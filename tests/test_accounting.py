import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwarden.accounting import (
    budget_terms,
    calibrate_gaussian_rho,
    compose_rdp,
    convert_unit,
    epsilon_for_auxiliary_unit,
    filter_check,
    gaussian_curve,
    gaussian_sigma,
    group_privacy,
    pure_curve,
    rdp_epsilon,
    rdp_to_adp,
    rows_within,
    scale_budget,
    within_budget,
    zcdp_to_adp,
    zero_curve,
)
from dpwarden.core import (
    ADP,
    DEFAULT_ALPHA_ORDERS,
    PrivacyUnit,
    PureDP,
    RDP,
    ZCDP,
    budget_leq,
)
from dpwarden.errors import (
    NoConversionPath,
    UnsupportedVariant,
    ValidationError,
    VariantMismatch,
)
from dpwarden.workload import WorkloadConfig


def test_compose_rdp_empty_and_identity():
    assert compose_rdp([]) == zero_curve()
    c = gaussian_curve(0.015)
    assert compose_rdp([c, zero_curve()]) == c


def test_compose_rdp_pointwise_sum():
    doubled = compose_rdp([gaussian_curve(0.015), gaussian_curve(0.015)])
    for got, want in zip(doubled.curve, gaussian_curve(0.030).curve):
        assert got == pytest.approx(want, rel=1e-12)


@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3)
)
def test_compose_rdp_associative_commutative(rhos):
    a, b, c = (gaussian_curve(r) for r in rhos)
    left = compose_rdp([compose_rdp([a, b]), c])
    right = compose_rdp([a, compose_rdp([b, c])])
    swapped = compose_rdp([c, a, b])
    for x, y, z in zip(left.curve, right.curve, swapped.curve):
        assert x == pytest.approx(y, rel=1e-12)
        assert x == pytest.approx(z, rel=1e-12)


def test_compose_rdp_rejects_other_variants():
    with pytest.raises(VariantMismatch):
        compose_rdp([ADP(1, 1e-7)])


def test_rdp_to_adp_zero_curve():
    eps = rdp_to_adp(zero_curve(), 1e-6).epsilon
    assert eps == pytest.approx(math.log(1e6) / (1e10 - 1), rel=1e-9)
    assert eps < 1e-8


def test_rdp_to_adp_grid_minimum():
    # minimum lands on the alpha = 32 grid point
    eps = rdp_to_adp(gaussian_curve(0.015), 1e-6).epsilon
    assert eps == pytest.approx(0.48 + math.log(1e6) / 31, rel=1e-12)
    assert eps == pytest.approx(0.926, abs=5e-4)


@given(
    st.floats(min_value=1e-4, max_value=5.0),
    st.lists(st.floats(min_value=0, max_value=2), min_size=14, max_size=14),
)
def test_rdp_to_adp_monotone(rho, bumps):
    lo = gaussian_curve(rho)
    hi = RDP(tuple(c + b for c, b in zip(lo.curve, bumps)))
    assert rdp_to_adp(lo, 1e-7).epsilon <= rdp_to_adp(hi, 1e-7).epsilon


def test_zcdp_closed_form():
    out = zcdp_to_adp(14.415, 1e-6, "closed_form")
    assert out.epsilon == pytest.approx(14.415 + 2 * math.sqrt(14.415 * math.log(1e6)), rel=1e-12)
    assert out.epsilon == pytest.approx(42.64, abs=0.05)


def test_zcdp_tight_numeric_monthly_values():
    assert zcdp_to_adp(14.415, 1e-6, "tight_numeric").epsilon == pytest.approx(41.94, abs=0.5)
    assert zcdp_to_adp(0.735, 1e-6, "tight_numeric").epsilon == pytest.approx(6.72, abs=0.2)


@settings(max_examples=200)
@given(
    st.floats(min_value=1e-6, max_value=100.0),
    st.floats(min_value=1e-12, max_value=0.4),
)
def test_zcdp_tight_never_exceeds_closed_form(rho, delta):
    tight = zcdp_to_adp(rho, delta, "tight_numeric").epsilon
    closed = zcdp_to_adp(rho, delta, "closed_form").epsilon
    assert tight <= closed + 1e-12


def test_group_privacy():
    assert group_privacy(ZCDP(0.015), 31) == ZCDP(14.415)
    assert group_privacy(PureDP(0.1), 5) == PureDP(0.5)
    b = ADP(1, 1e-7)
    assert group_privacy(b, 1) is b
    with pytest.raises(UnsupportedVariant):
        group_privacy(ADP(1, 1e-7), 2)
    with pytest.raises(UnsupportedVariant):
        group_privacy(gaussian_curve(0.1), 2)
    with pytest.raises(ValidationError):
        group_privacy(PureDP(1), 0)


def test_convert_unit_examples():
    day = PrivacyUnit("user-day", group_factor_to={"user-month": 31})
    month = PrivacyUnit("user-month", group_factor_to={"user-day": 1, "user-week": 2})
    week = PrivacyUnit("user-week")
    assert convert_unit(ZCDP(0.015), day, month) == ZCDP(14.415)
    b = ZCDP(0.7)
    assert convert_unit(b, month, day) is b
    assert convert_unit(ZCDP(1.0), month, week) == ZCDP(4.0)
    with pytest.raises(NoConversionPath):
        convert_unit(ZCDP(1.0), week, month)


@given(
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=40),
)
def test_group_privacy_preserves_order(r1, r2, k):
    a, b = ZCDP(min(r1, r2)), ZCDP(max(r1, r2))
    assert budget_leq(group_privacy(a, k), group_privacy(b, k))


def test_gaussian_sigma_values():
    assert gaussian_sigma(1, 1, 1e-5) == pytest.approx(math.sqrt(2 * math.log(1.25e5)), rel=1e-12)
    assert gaussian_sigma(1, 1, 1e-5) == pytest.approx(4.845, abs=1e-3)
    assert gaussian_sigma(2, 1, 1e-5) == pytest.approx(9.690, abs=2e-3)
    assert gaussian_sigma(1, 2, 1e-5) == pytest.approx(2.423, abs=1e-3)


def test_auxiliary_epsilon_round_trip():
    sigma = gaussian_sigma(1, 1, 1e-5)
    assert epsilon_for_auxiliary_unit(sigma, 1, 1e-5) == pytest.approx(1.0, rel=1e-12)
    assert epsilon_for_auxiliary_unit(sigma, 2, 1e-5) == pytest.approx(2.0, rel=1e-12)
    assert epsilon_for_auxiliary_unit(sigma, 0.5, 1e-5) == pytest.approx(0.5, rel=1e-12)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=20),
    st.floats(min_value=1e-10, max_value=0.5),
)
def test_auxiliary_epsilon_ratio_law(delta2, aux_delta2, epsilon, delta):
    sigma = gaussian_sigma(delta2, epsilon, delta)
    got = epsilon_for_auxiliary_unit(sigma, aux_delta2, delta)
    assert got == pytest.approx(epsilon * aux_delta2 / delta2, rel=1e-9)


def test_filter_check_examples():
    assert filter_check(zero_curve(), zero_curve(), ADP(1, 1e-7))
    assert not filter_check(gaussian_curve(0.015), gaussian_curve(0.015), ADP(0.9, 1e-6))
    assert filter_check(gaussian_curve(0.015), zero_curve(), ADP(1.0, 1e-6))


def test_filter_check_rdp_budget():
    budget = gaussian_curve(0.05)
    assert filter_check(zero_curve(), gaussian_curve(0.04), budget)
    assert not filter_check(gaussian_curve(0.04), gaussian_curve(0.04), budget)
    with pytest.raises(VariantMismatch):
        filter_check(zero_curve(), zero_curve(), PureDP(1.0))


@given(
    st.floats(min_value=0, max_value=0.1),
    st.floats(min_value=0, max_value=0.1),
    st.floats(min_value=0.1, max_value=4),
    st.floats(min_value=0, max_value=2),
)
def test_filter_check_monotone_budget_antitone_cost(r1, r2, eps, bump):
    cum, new = gaussian_curve(r1), gaussian_curve(r2)
    small, big = ADP(eps, 1e-7), ADP(eps + bump, 1e-7)
    if filter_check(cum, new, small):
        assert filter_check(cum, new, big)
    bigger_cost = compose_rdp([new, gaussian_curve(bump)])
    if filter_check(cum, bigger_cost, small):
        assert filter_check(cum, new, small)


def test_calibrated_gaussian_round_trip():
    for eps in (0.05, 0.2, 0.75, 2.0, 2.5):
        for delta in (1e-9, 1e-7):
            rho = calibrate_gaussian_rho(eps, delta)
            assert rdp_to_adp(gaussian_curve(rho), delta).epsilon == pytest.approx(eps, rel=1e-9)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_calibration_and_conversion_refuse_non_finite_input(value):
    with pytest.raises(ValidationError):
        calibrate_gaussian_rho(value, 1e-7)
    with pytest.raises(ValidationError):
        calibrate_gaussian_rho(1.0, value)
    for mode in ("tight_numeric", "closed_form"):
        with pytest.raises(ValidationError):
            zcdp_to_adp(value, 1e-7, mode)
        with pytest.raises(ValidationError):
            zcdp_to_adp(1.0, value, mode)


def test_calibration_refuses_an_epsilon_no_finite_rho_reaches():
    with pytest.raises(ValidationError):
        calibrate_gaussian_rho(1.7e308, 1e-7)


@pytest.mark.parametrize("rho", [5e-324, 1e-310, 1e-300, 1e300, 1.7e308, sys.float_info.max])
def test_tight_conversion_of_an_extreme_rho(rho):
    """``ln(1/delta)/rho`` overflows for a subnormal rho, and ``rho * a`` for a
    huge one; neither may yield NaN or warn, and the result stays within the
    closed form."""
    delta = 1e-7
    tight = zcdp_to_adp(rho, delta, "tight_numeric").epsilon
    closed = zcdp_to_adp(rho, delta, "closed_form").epsilon
    assert 0.0 <= tight <= closed


def test_scale_budget():
    assert scale_budget(ADP(10, 1e-7), 0.5) == ADP(5, 1e-7)
    assert scale_budget(gaussian_curve(0.1), 0.5) == gaussian_curve(0.05)
    for unenforceable in (PureDP(2), ZCDP(4)):  # no rule budget has these variants
        with pytest.raises(UnsupportedVariant):
            scale_budget(unenforceable, 0.5)


_N_ORDERS = len(DEFAULT_ALPHA_ORDERS)
_curve_row_lists = st.lists(
    st.lists(st.floats(min_value=0, max_value=50), min_size=_N_ORDERS, max_size=_N_ORDERS),
    min_size=1,
    max_size=4,
)
_deltas = st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True)
_filter_budgets = st.one_of(
    st.builds(ADP, st.floats(min_value=0, max_value=60), _deltas),
    st.lists(st.floats(min_value=0, max_value=50), min_size=_N_ORDERS, max_size=_N_ORDERS).map(
        lambda c: RDP(tuple(c))
    ),
)


@settings(max_examples=200)
@given(_curve_row_lists, _deltas, _filter_budgets)
def test_kernel_matches_scalar_reference(rows, delta, budget):
    assert rdp_epsilon(rows, delta).tolist() == [rdp_to_adp(RDP(r), delta).epsilon for r in rows]
    assert within_budget(rows, budget).tolist() == [
        filter_check(zero_curve(), RDP(r), budget) for r in rows
    ]


@settings(max_examples=300)
@given(_curve_row_lists, _filter_budgets, st.floats(min_value=0, max_value=1))
def test_one_verdict_matches_the_per_row_kernel(rows, budget, fraction):
    """``rows_within`` on a budget's terms, its bound scaled as
    ``scale_budget`` scales the budget, is ``within_budget(...).all()``."""
    offsets, bound = budget_terms(budget)
    want = bool(within_budget(rows, scale_budget(budget, fraction)).all())
    assert rows_within(np.array(rows), offsets, bound * fraction) is want
    for row in rows:
        assert rows_within(np.array([row]), offsets, bound) is bool(within_budget([row], budget).all())


@pytest.mark.parametrize("n_rows", [1, 2])
def test_one_verdict_accepts_rows_exactly_at_the_bound(n_rows):
    """A composed epsilon equal to the budget's is within it, as in
    ``within_budget``: zero rows at the budget whose epsilon is the least
    offset, and rows equal to an RDP budget's curve."""
    offsets, _ = budget_terms(ADP(1.0, 1e-7))
    at = ADP(float(offsets.min()), 1e-7)
    curve = gaussian_curve(0.05)
    for rows, budget in (([zero_curve().curve] * n_rows, at), ([curve.curve] * n_rows, curve)):
        assert within_budget(rows, budget).all()
        assert rows_within(np.array(rows), *budget_terms(budget))
        assert not rows_within(np.array(rows), *budget_terms(scale_budget(budget, 0.5)))


def test_kernel_rejects_other_variants_and_orders():
    rows = [zero_curve().curve]
    with pytest.raises(VariantMismatch):
        within_budget(rows, PureDP(1.0))
    with pytest.raises(VariantMismatch):
        within_budget(rows, ZCDP(1.0))
    with pytest.raises(VariantMismatch):
        budget_terms(PureDP(1.0))
    with pytest.raises(VariantMismatch):
        within_budget([[0.1]], ADP(1.0, 1e-7))
    with pytest.raises(ValidationError):
        RDP((1.0,))
    with pytest.raises(ValidationError):
        rdp_epsilon(rows, 0.0)


# ---------------------------------------------------------------------------
# The in-house Brent solvers against scipy's, the reference implementation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def optimize():
    return pytest.importorskip("scipy.optimize")


def _scipy_rho(optimize, epsilon, delta):
    """``calibrate_gaussian_rho`` with ``scipy.optimize.brentq`` as the root finder."""
    if epsilon <= rdp_to_adp(zero_curve(), delta).epsilon:
        return 0.0

    def gap(rho):
        return rdp_to_adp(gaussian_curve(rho), delta).epsilon - epsilon

    hi = 1.0
    while gap(hi) < 0:
        hi *= 2.0
    return float(optimize.brentq(gap, 0.0, hi, xtol=1e-15, rtol=1e-14))


def _scipy_tight_epsilon(optimize, rho, delta):
    """``zcdp_to_adp(rho, delta, "tight_numeric").epsilon`` refined by
    ``scipy.optimize.minimize_scalar(method="bounded")``."""
    ln1d = math.log(1.0 / delta)
    hi = max(6.0, math.log10(math.sqrt(ln1d / rho)) + 1.0)
    grid = 1.0 + np.logspace(-6.0, hi, 10_000)
    vals = rho * grid + ln1d / (grid - 1.0) + np.log1p(-1.0 / grid)
    i = int(np.argmin(vals))
    res = optimize.minimize_scalar(
        lambda a: rho * a + ln1d / (a - 1.0) + math.log1p(-1.0 / a),
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
        method="bounded",
    )
    return max(min(float(vals[i]), float(res.fun)), 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-3, max_value=300.0), st.floats(min_value=1e-12, max_value=0.1))
def test_calibration_equals_scipy_brentq(optimize, epsilon, delta):
    assert calibrate_gaussian_rho(epsilon, delta) == _scipy_rho(optimize, epsilon, delta)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=100.0),
    st.floats(min_value=1e-12, max_value=0.4),
)
def test_tight_conversion_equals_scipy_minimize_scalar(optimize, rho, delta):
    assert zcdp_to_adp(rho, delta, "tight_numeric").epsilon == _scipy_tight_epsilon(optimize, rho, delta)


def test_calibration_equals_scipy_on_every_configured_level(optimize):
    pairs = {
        (float(level), cfg.delta_request)
        for cfg in (WorkloadConfig.desk_scale("s2", 10.0), WorkloadConfig.paper_scale("s2", 10.0))
        for spec in cfg.mechanisms.values()
        if spec["family"] == "gaussian"
        for level in spec["levels"]
    }
    assert pairs
    for epsilon, delta in sorted(pairs):
        assert calibrate_gaussian_rho(epsilon, delta) == _scipy_rho(optimize, epsilon, delta)


def test_the_engine_runs_without_importing_scipy():
    """Run in a fresh interpreter, since other tests import scipy here."""
    script = (
        "import sys\n"
        "import dpwarden, dpwarden.cli\n"
        "from dpwarden.workload import WorkloadConfig, run_scenario\n"
        "run_scenario(WorkloadConfig.desk_scale('s2', 10.0), 'dpolicy')\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

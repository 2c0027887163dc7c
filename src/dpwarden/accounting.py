"""Privacy-loss arithmetic: composition, variant conversion, group privacy,
Gaussian calibration across units, and filter checks.

All functions are pure and safe for unrestricted parallel use.  The one
numerical solver, ``_brentq`` (Brent's root finder), calibrates Gaussian
noise; it is a private pure-Python port of scipy's, kept operation for
operation so that every float matches what scipy returns.  The tight zCDP
conversion needs no solver of that kind: its objective has one stationary
point, which bisection finds to the last float.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    ADP,
    DEFAULT_ALPHA_ORDERS,
    PrivacyBudget,
    PrivacyUnit,
    PureDP,
    RDP,
    Rule,
    ZCDP,
)
from .errors import (
    DPWardenError,
    NoConversionPath,
    UnsupportedVariant,
    ValidationError,
    VariantMismatch,
)


def zero_curve() -> RDP:
    return RDP((0.0,) * len(DEFAULT_ALPHA_ORDERS))


def gaussian_curve(rho: float) -> RDP:
    """RDP curve of a Gaussian-family mechanism: rho * alpha at each order."""
    if rho < 0:
        raise ValidationError("rho must be non-negative")
    return RDP(tuple(rho * a for a in DEFAULT_ALPHA_ORDERS))


def pure_curve(epsilon: float) -> RDP:
    """RDP curve of a pure epsilon-DP mechanism, constant across orders."""
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    return RDP((epsilon,) * len(DEFAULT_ALPHA_ORDERS))


def compose_rdp(costs: Iterable[RDP]) -> RDP:
    """Sequential composition of RDP costs: pointwise sum per alpha order."""
    total = [0.0] * len(DEFAULT_ALPHA_ORDERS)
    for c in costs:
        if not isinstance(c, RDP):
            raise VariantMismatch(f"compose_rdp expects RDP curves, got {type(c).__name__}")
        for i, v in enumerate(c.curve):
            total[i] += v
    return RDP(tuple(total))


def rdp_to_adp(cost: RDP, delta: float) -> ADP:
    """Convert an RDP curve to approximate DP at a target delta.

    epsilon = min over the alpha orders of curve(a) + ln(1/delta)/(a-1).
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    ln1d = math.log(1.0 / delta)
    eps = min(c + ln1d / (a - 1.0) for c, a in zip(cost.curve, DEFAULT_ALPHA_ORDERS))
    return ADP(eps, delta)


@lru_cache(maxsize=64)
def _adp_offsets(delta: float) -> np.ndarray:
    """ln(1/delta)/(a-1) per order, the RDP-to-ADP term of ``rdp_to_adp``."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    offsets = math.log(1.0 / delta) / (np.asarray(DEFAULT_ALPHA_ORDERS) - 1.0)
    offsets.flags.writeable = False  # one cached array is shared by every caller
    return offsets


def _curve_rows(curves) -> np.ndarray:
    rows = np.asarray(curves)
    if rows.shape[-1:] != (len(DEFAULT_ALPHA_ORDERS),):
        raise VariantMismatch("RDP curve not over the configured alpha orders")
    return rows


def rdp_epsilon(curves, delta: float) -> np.ndarray:
    """Vectorised ``rdp_to_adp``: the epsilon at ``delta`` of each row of RDP
    curves (last axis over the orders), min over a of curve(a) + ln(1/delta)/(a-1)."""
    return (_curve_rows(curves) + _adp_offsets(delta)).min(axis=-1)


def within_budget(curves, budget: PrivacyBudget) -> np.ndarray:
    """Vectorised ``filter_check`` on composed curves: one verdict per row.

    ADP budgets are checked through ``rdp_epsilon``; RDP budgets accept a row
    when some order stays within the budget curve.  The decision stages use
    ``rows_within``; this is the per-row reference it is tested against.
    """
    if isinstance(budget, ADP):
        return rdp_epsilon(curves, budget.delta) <= budget.epsilon
    if isinstance(budget, RDP):
        return (_curve_rows(curves) <= budget.curve).any(axis=-1)
    raise VariantMismatch(f"filter budgets must be ADP or RDP, got {type(budget).__name__}")


def budget_terms(budget: PrivacyBudget) -> tuple[np.ndarray | None, float | np.ndarray]:
    """What ``rows_within`` checks composed curves against, derived once per
    budget: for ADP the shared read-only offsets ``ln(1/delta)/(a-1)`` and
    epsilon, for RDP no offsets and the budget curve.  The bound scales as
    ``scale_budget`` scales the budget: ``bound * fraction`` is the float it
    makes."""
    if isinstance(budget, ADP):
        return _adp_offsets(budget.delta), budget.epsilon
    if isinstance(budget, RDP):
        return None, np.asarray(budget.curve)
    raise VariantMismatch(f"filter budgets must be ADP or RDP, got {type(budget).__name__}")


def rows_within(rows: np.ndarray, offsets: np.ndarray | None, bound) -> bool:
    """``within_budget(rows, budget).all()`` for the ``(offsets, bound)``
    that ``budget_terms`` derives from ``budget``, bit for bit: with
    offsets, the largest over rows of min over a of row(a) + offset(a) is
    at most epsilon; without, every row stays within the curve at some
    order.  ``rows`` holds at least one row of composed curves, and no NaN:
    they sum RDP curves, whose entries are non-negative."""
    if offsets is None:
        return bool((rows <= bound).any(axis=-1).all())
    if len(rows) == 1:
        # the same min over one row's orders, without a numpy reduction's
        # fixed cost, which is most of the check at 14 orders
        return min((rows[0] + offsets).tolist()) <= bound
    return bool((rows + offsets).min(axis=-1).max() <= bound)


def check_enforceable(rules: Iterable[Rule]) -> None:
    """Refuse a rule whose budget no filter can enforce: filters check
    composed RDP curves against an RDP budget, or against an ADP budget
    with delta > 0, the only deltas RDP converts to.  Extensions map ADP to
    ADP at the same delta and scale RDP to RDP, so checking the rules a
    document generates also covers the rules compiled from them."""
    for rule in rules:
        if not isinstance(rule.budget, (ADP, RDP)):
            raise ValidationError(
                f"rule {rule.rule_id!r}: a budget must be ADP or RDP to be enforced, "
                f"got {type(rule.budget).__name__}"
            )
        if isinstance(rule.budget, ADP) and rule.budget.delta == 0.0:
            raise ValidationError(f"rule {rule.rule_id!r}: an ADP budget needs delta > 0 to be enforced")


def zcdp_to_adp(rho: float, delta: float, mode: str = "tight_numeric") -> ADP:
    """Convert a zCDP guarantee to approximate DP at a target delta.

    ``closed_form`` uses rho + 2*sqrt(rho*ln(1/delta)).  ``tight_numeric``
    minimises f(a) = rho*a + L/(a-1) + ln(1 - 1/a), L = ln(1/delta), over
    orders a > 1 (Bun & Steinke, TCC 2016), and never exceeds the closed
    form.  With x = a - 1, f'(a)*x*(x+1) = g(x) = rho*x^2 + rho*x + 1 - L - L/x,
    which for rho > 0 rises from -inf at 0+ to +inf, so f has one stationary
    point: g's sign change, bisected geometrically over every positive float
    down to two adjacent ones.  At rho = 0 the closed form, 0, is the least.
    """
    if not 0.0 <= rho < math.inf:
        raise ValidationError("rho must be finite and non-negative")
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    ln1d = math.log(1.0 / delta)
    closed = rho + 2.0 * math.sqrt(rho * ln1d)
    if mode == "closed_form":
        return ADP(closed, delta)
    if mode != "tight_numeric":
        raise ValidationError(f"unknown conversion mode {mode!r}")
    lo, hi = math.ulp(0.0), sys.float_info.max
    while math.nextafter(lo, hi) < hi:
        x = math.sqrt(lo) * math.sqrt(hi)
        if not lo < x < hi:  # the rounded geometric mean of floats a few apart
            x = lo + (hi - lo) / 2
        if rho * x * x + rho * x + (1.0 - ln1d) - ln1d / x < 0.0:
            lo = x
        else:
            hi = x
    # ln(1 - 1/a) as -log1p(1/x): log(x) - log1p(x) cancels to 0 at a large x
    eps = min(rho * (x + 1.0) + ln1d / x - math.log1p(1.0 / x) for x in (lo, hi))
    return ADP(max(min(eps, closed), 0.0), delta)


def group_privacy(budget: PrivacyBudget, k: int) -> PrivacyBudget:
    """Scale a guarantee to protect k simultaneous unit changes.

    Pure DP scales epsilon linearly; zCDP scales rho by k^2.  Group privacy
    for ADP/RDP is rejected (out of scope); k = 1 is the identity for every
    variant.
    """
    if not isinstance(k, int) or k < 1:
        raise ValidationError("group size must be a positive integer")
    if k == 1:
        return budget
    if isinstance(budget, PureDP):
        return PureDP(k * budget.epsilon)
    if isinstance(budget, ZCDP):
        return ZCDP(k * k * budget.rho)
    raise UnsupportedVariant(f"group privacy with k > 1 undefined for {type(budget).__name__}")


def convert_unit(budget: PrivacyBudget, src: PrivacyUnit, dst: PrivacyUnit) -> PrivacyBudget:
    """Express a guarantee for unit ``src`` as one for unit ``dst`` via the
    declared group-size factor."""
    if src.name == dst.name:
        return budget
    k = src.group_factor_to.get(dst.name)
    if k is None:
        raise NoConversionPath(f"no group factor declared from {src.name!r} to {dst.name!r}")
    return group_privacy(budget, k)


def gaussian_sigma(delta2: float, epsilon: float, delta: float) -> float:
    """Gaussian-mechanism noise scale for an L2 sensitivity and ADP target:
    sigma = delta2 * sqrt(2 ln(1.25/delta)) / epsilon."""
    if delta2 <= 0 or epsilon <= 0 or delta <= 0:
        raise ValidationError("sensitivity, epsilon and delta must be positive")
    if delta >= 1:
        raise ValidationError("delta must be below 1")
    return delta2 * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def epsilon_for_auxiliary_unit(sigma: float, aux_delta2: float, delta: float) -> float:
    """Privacy parameter implied for an auxiliary unit by rearranging the
    Gaussian calibration with that unit's sensitivity."""
    if sigma <= 0 or aux_delta2 <= 0 or delta <= 0:
        raise ValidationError("sigma, sensitivity and delta must be positive")
    return aux_delta2 * math.sqrt(2.0 * math.log(1.25 / delta)) / sigma


def filter_check(cumulative: RDP, new_cost: RDP, budget: PrivacyBudget) -> bool:
    """Would admitting ``new_cost`` on top of ``cumulative`` stay within budget?

    RDP budgets accept when some order stays within the curve; ADP budgets
    convert the composed curve at the budget's delta.
    """
    composed = compose_rdp([cumulative, new_cost])
    if isinstance(budget, RDP):
        return any(c <= b for c, b in zip(composed.curve, budget.curve))
    if isinstance(budget, ADP):
        return rdp_to_adp(composed, budget.delta).epsilon <= budget.epsilon
    raise VariantMismatch(f"filter budgets must be ADP or RDP, got {type(budget).__name__}")


def scale_budget(budget: PrivacyBudget, fraction: float) -> PrivacyBudget:
    """Scale the headline privacy parameter (unlocking); delta stays fixed."""
    if fraction < 0:
        raise ValidationError("scale fraction must be non-negative")
    if fraction == 1.0:
        return budget
    if isinstance(budget, ADP):
        return ADP(budget.epsilon * fraction, budget.delta)
    if isinstance(budget, RDP):
        return RDP(tuple(c * fraction for c in budget.curve))
    raise UnsupportedVariant(f"budget scaling is defined on ADP and RDP, not {type(budget).__name__}")


@lru_cache(maxsize=256)
def _calibrate_cached(epsilon: float, delta: float) -> float:
    floor = rdp_to_adp(zero_curve(), delta).epsilon
    if epsilon <= floor:
        return 0.0

    def gap(rho: float) -> float:
        return rdp_to_adp(gaussian_curve(rho), delta).epsilon - epsilon

    hi = 1.0
    while gap(hi) < 0:
        hi *= 2.0
    if hi == math.inf:
        raise ValidationError(f"epsilon {epsilon} is too large to calibrate")
    return _brentq(gap, 0.0, hi, xtol=1e-15, rtol=1e-14)


def calibrate_gaussian_rho(epsilon: float, delta: float) -> float:
    """Find rho so the Gaussian curve rho*alpha converts to the target epsilon
    at the given delta over the alpha orders (root found by ``_brentq``)."""
    if not 0.0 <= epsilon < math.inf:
        raise ValidationError("epsilon must be finite and non-negative")
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    return _calibrate_cached(float(epsilon), float(delta))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in [xa, xb], where f(xa) and f(xb) differ in sign, by
    Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4).  Ported operation for operation from scipy's C ``brentq``
    (``scipy/optimize/Zeros/brentq.c``), so it returns the float that
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol)`` does."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the best point, xblk across the root
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # C's MIN
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise DPWardenError(f"no root found in {maxiter} iterations")

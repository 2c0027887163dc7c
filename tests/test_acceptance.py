"""Acceptance gate: one test per criterion, each printing a PASS line.

Covers conversion regressions, the rule-count identity, pruning correctness
(fixture + randomized decision-equivalence oracle), decision-point soundness,
desk-scale scenario properties, sampling statistics, and the Gaussian
calibration round trip.
"""

import copy
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _util import (  # noqa: E402
    assert_same_state,
    hasse_fixture,
    random_rule_set,
    random_trace,
    replay_accumulate,
)

from dpwarden.accounting import (
    epsilon_for_auxiliary_unit,
    gaussian_sigma,
    group_privacy,
    scale_budget,
    zcdp_to_adp,
)
from dpwarden.compiler import compile_policy_set, parse_policy_set
from dpwarden.core import ADP, DEFAULT_ALPHA_ORDERS, RDP, ZCDP
from dpwarden.decision import BlockDomain, DecisionPoint, TimeAxis
from dpwarden.poset import build_poset, prune, prune_with_report
from dpwarden.workload import (
    WorkloadConfig,
    build_policy_document,
    build_schema,
    emit_report,
    run_scenario,
    s1_standard_epsilon,
)

EPSILON_SWEEP = (3.0, 5.0, 7.0, 10.0, 15.0, 20.0)
SEEDS = (0, 1, 2, 3, 4)
REL_TOL = 1e-9


def _ok(name: str) -> None:
    print(f"PASS: {name}")


# ---------------------------------------------------------------------------
# Conversion regressions (runtime < 1 s)
# ---------------------------------------------------------------------------

def test_conversion_regressions():
    start = time.perf_counter()
    assert group_privacy(ZCDP(0.015), 31) == ZCDP(14.415)

    tight_month = zcdp_to_adp(14.415, 1e-6, "tight_numeric").epsilon
    closed_month = zcdp_to_adp(14.415, 1e-6, "closed_form").epsilon
    assert tight_month == pytest.approx(41.94, abs=0.5)
    assert closed_month == pytest.approx(42.64, abs=0.05)
    assert closed_month >= tight_month

    tight_bounded = zcdp_to_adp(0.735, 1e-6, "tight_numeric").epsilon
    assert tight_bounded == pytest.approx(6.72, abs=0.2)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"conversion regressions (group 31^2, 41.94, 6.72) in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Rule-count identity (runtime < 1 s)
# ---------------------------------------------------------------------------

def test_rule_count_identity():
    start = time.perf_counter()
    cfg = WorkloadConfig(scenario="s2", total_epsilon=20.0, rng_seed=0)
    doc = build_policy_document(cfg, build_schema(cfg))
    ps = parse_policy_set(doc)
    assert len(ps.base_rules) == 181

    doc["extension_policies"] = [
        {
            "name": "context",
            "extensions": [
                {"name": "standard",
                 "predicate": {"op": "has_label", "key": "context", "value": "standard"},
                 "budget_fn": {"kind": "identity"}, "rank": 0},
                {"name": "total", "predicate": {"op": "true"},
                 "budget_fn": {"kind": "scale", "factor": 2.0}, "rank": 1},
            ],
        }
    ]
    assert len(compile_policy_set(parse_policy_set(doc))) == 362
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(f"rule-count identity 181 -> 362 in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Pruning correctness
# ---------------------------------------------------------------------------

def test_pruning_fixture():
    rules, units = hasse_fixture()
    active, records = prune_with_report(build_poset(rules, units))
    assert {r.rule_id for r in active.rules} == {"r1", "r4", "r6"}
    assert {rec.rule_id for rec in records} == {"r2", "r3", "r5", "r7"}
    _ok("worked-example poset prunes exactly {r2, r3, r5, r7}")


def test_pruning_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    accepts = rejects = 0
    domain = BlockDomain(("pa",), 4)
    for _ in range(1000):
        rules, units = random_rule_set(rng, max_rules=12)
        poset = build_poset(rules, units)
        pruned = prune(poset)
        full_point = DecisionPoint(poset, domain=domain)
        pruned_point = DecisionPoint(pruned, domain=domain)
        for request in random_trace(rng, units, domain_size=4, max_requests=30):
            a = full_point.process(request).accepted
            b = pruned_point.process(request).accepted
            assert a == b
            accepts += a
            rejects += not a
    elapsed = time.perf_counter() - start
    assert accepts and rejects  # the traces exercise both outcomes
    assert elapsed < 300.0
    _ok(
        f"pruned vs unpruned decisions identical over 1000 posets "
        f"({accepts} accepts / {rejects} rejects) in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Decision-point soundness
# ---------------------------------------------------------------------------

def _curve_fits(acc_row: np.ndarray, budget, orders) -> bool:
    if isinstance(budget, ADP):
        eps = min(c + math.log(1.0 / budget.delta) / (a - 1.0) for c, a in zip(acc_row, orders))
        return eps <= budget.epsilon * (1.0 + REL_TOL) + 1e-12
    if isinstance(budget, RDP):
        return any(c <= b * (1.0 + REL_TOL) for c, b in zip(acc_row, budget.curve))
    raise AssertionError("unexpected budget variant")


def test_decision_point_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    n_rejects_checked = 0
    for trace_no in range(100):
        rules, units = random_rule_set(rng, max_rules=12)
        with_time = "month" in units.units and rng.random() < 0.6
        axis = TimeAxis("month", 3, 5) if with_time else None
        domain = BlockDomain(("pa",), 2048, axis)
        steps = (None, 0, 2, 4, 5) if with_time else (None,)
        point = DecisionPoint(point_poset := build_poset(rules, units), domain=domain)
        scale = float(rng.choice([0.5, 1.0]))
        accepted = []
        for i, request in enumerate(
            random_trace(rng, units, domain_size=2048, max_requests=50, time_steps=steps)
        ):
            check_this = n_rejects_checked < 300 and rng.random() < 0.2
            snapshot = copy.deepcopy(point.state) if check_this else None
            if point.process(request, budget_scale=scale).accepted:
                accepted.append(request)
            elif snapshot is not None:
                n_rejects_checked += 1
                assert_same_state(point.state, snapshot)
        # replay-recompute cumulative cost per (rule, block, cell) via direct
        # predicate evaluation; every cell must satisfy its (scaled) budget
        acc = replay_accumulate(point_poset.rules, accepted, domain)
        budgets = {r.rule_id: scale_budget(r.budget, scale) for r in point_poset.rules}
        for (rule_id, _cell), arr in acc.items():
            budget = budgets[rule_id]
            for block in np.flatnonzero(arr.any(axis=1)):
                assert _curve_fits(arr[block], budget, DEFAULT_ALPHA_ORDERS)
    elapsed = time.perf_counter() - start
    assert n_rejects_checked > 50
    _ok(
        f"replay-recomputed budgets hold on 100 traces; {n_rejects_checked} rejects "
        f"left state bit-identical; {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Scenario property reproduction at desk scale
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def scenario_sweep():
    start = time.perf_counter()
    results = {}
    for scenario in ("s1", "s2", "s3"):
        for mode in ("dpolicy", "baseline"):
            for eps in EPSILON_SWEEP:
                for seed in SEEDS:
                    cfg = WorkloadConfig.desk_scale(scenario, eps, seed)
                    results[(scenario, mode, eps, seed)] = run_scenario(cfg, mode)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\n[scenario sweep: {len(results)} runs in {elapsed:.0f}s]")
    return results


def test_s1_context_properties(scenario_sweep):
    for seed in SEEDS:
        for eps in EPSILON_SWEEP:
            bound = s1_standard_epsilon(eps)
            fin = scenario_sweep[("s1", "dpolicy", eps, seed)].final_scopes()
            assert fin["standard"].cumulative_epsilon <= bound * (1 + REL_TOL) + 1e-12
            assert fin["combined"].cumulative_epsilon <= eps * (1 + REL_TOL) + 1e-12
        largest = scenario_sweep[("s1", "baseline", EPSILON_SWEEP[-1], seed)].final_scopes()
        assert largest["standard"].cumulative_epsilon > s1_standard_epsilon(EPSILON_SWEEP[-1])
    _ok("S1: policy mode respects the standard bound; baseline overshoots it at eps_t=20")


def test_s2_scope_properties(scenario_sweep):
    for seed in SEEDS:
        for eps in EPSILON_SWEEP:
            fin = scenario_sweep[("s2", "dpolicy", eps, seed)].final_scopes()
            for level, bound in (("member", 5.0), ("strong", 7.5), ("weak", 10.0)):
                got = max(
                    sc.cumulative_epsilon for name, sc in fin.items()
                    if name.startswith("cat.") and name.endswith(level)
                )
                assert got <= bound * (1 + REL_TOL) + 1e-12
        for eps in (15.0, 20.0):
            fin = scenario_sweep[("s2", "baseline", eps, seed)].final_scopes()
            assert any(sc.violation for name, sc in fin.items() if name.startswith("cat."))
    _ok("S2: policy mode holds 5 / 7.5 / 10 category bounds; baseline violates at 15 and 20")


def test_s3_time_unit_properties(scenario_sweep):
    for seed in SEEDS:
        for eps in EPSILON_SWEEP:
            fin = scenario_sweep[("s3", "dpolicy", eps, seed)].final_scopes()
            worst = max(
                sc.cumulative_epsilon for name, sc in fin.items() if name.startswith("month.")
            )
            assert worst <= 3.0 * (1 + REL_TOL) + 1e-12
        for eps in (15.0, 20.0):
            fin = scenario_sweep[("s3", "baseline", eps, seed)].final_scopes()
            assert any(sc.violation for name, sc in fin.items() if name.startswith("month."))
    _ok("S3: policy mode caps every month at 3; baseline concentrates past 3 at 15 and 20")


def test_utility_grows_with_budget(scenario_sweep):
    for scenario in ("s1", "s2", "s3"):
        for seed in SEEDS:
            low = scenario_sweep[(scenario, "dpolicy", EPSILON_SWEEP[0], seed)].total_utility
            high = scenario_sweep[(scenario, "dpolicy", EPSILON_SWEEP[-1], seed)].total_utility
            assert high > low
    _ok("every scenario turns extra budget into strictly higher policy-mode utility")


# sha256 over every sweep run's summary.json and rounds.csv, in sweep order;
# recorded when the sweep's outputs were last known good
SWEEP_DIGEST = "5626fe2c2841ef44d337be09a22a8ae8c7aeb4d641b1f9ce8c601850342e24c9"


def test_sweep_reports_are_byte_identical(scenario_sweep, tmp_path):
    """The 180 runs write the same report files, byte for byte, as they did
    when ``SWEEP_DIGEST`` was recorded: a change to the engine must not move
    a single decision or scope report."""
    digest = hashlib.sha256()
    for scenario in ("s1", "s2", "s3"):
        for mode in ("dpolicy", "baseline"):
            for eps in EPSILON_SWEEP:
                for seed in SEEDS:
                    key = (scenario, mode, eps, seed)
                    out = tmp_path / f"{scenario}-{mode}-{eps}-{seed}"
                    for path in emit_report(scenario_sweep[key], out):
                        digest.update(f"{key} {path.name}\n".encode())
                        digest.update(path.read_bytes())
    assert digest.hexdigest() == SWEEP_DIGEST
    _ok("the 180 sweep runs write byte-identical summary.json and rounds.csv")


# ---------------------------------------------------------------------------
# Sampling statistics
# ---------------------------------------------------------------------------

def test_sampling_statistics(sampling_draws):
    # the draws are made once per session, in tests/conftest.py
    assert sampling_draws.n_requests >= 100_000
    assert len(sampling_draws.attr_counts) == 100_000
    mean_attrs = float(np.mean(sampling_draws.attr_counts))
    assert mean_attrs == pytest.approx(5.0, abs=0.1)

    rate = float(sampling_draws.blackbox[sampling_draws.ml].mean())
    assert rate == pytest.approx(0.80, abs=0.02)

    mean_cats = float(np.mean(sampling_draws.category_counts))
    assert mean_cats == pytest.approx(3.5, abs=0.1)

    draws = sampling_draws.months
    assert float((draws == 6).mean()) == pytest.approx(1 / 3, abs=0.01)
    for month in range(6):
        assert float((draws == month).mean()) == pytest.approx(1 / 9, abs=0.01)
    _ok(
        f"sampling: {mean_attrs:.3f} attrs/request, {mean_cats:.3f} categories/attribute, "
        f"{rate:.3f} black-box rate, month split 1/3 vs 1/9"
    )


# ---------------------------------------------------------------------------
# Gaussian calibration round trip across units
# ---------------------------------------------------------------------------

def test_auxiliary_unit_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(500):
        delta2 = float(rng.uniform(1e-3, 1e3))
        aux_delta2 = float(rng.uniform(1e-3, 1e3))
        epsilon = float(rng.uniform(1e-3, 20.0))
        delta = float(10 ** rng.uniform(-10, -1))
        sigma = gaussian_sigma(delta2, epsilon, delta)
        got = epsilon_for_auxiliary_unit(sigma, aux_delta2, delta)
        want = epsilon * aux_delta2 / delta2
        assert abs(got - want) <= REL_TOL * abs(want)
    _ok("noise-scale rearrangement returns eps * aux_sensitivity / sensitivity to 1e-9")

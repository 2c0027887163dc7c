import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwarden.accounting import gaussian_curve, pure_curve, rdp_epsilon, zero_curve
from dpwarden.core import HasLabel, LabelSet, Mechanism, ReleaseRequest
from dpwarden.decision import BlockDomain, DecisionPoint, RuleIndex
from dpwarden.errors import ConfigError, DPWardenError
from dpwarden.workload import (
    DEFAULT_MECHANISMS,
    S1_BUDGET_TABLE,
    WorkloadConfig,
    build_policy_document,
    build_schema,
    emit_report,
    generate_workload,
    month_of_round,
    run_scenario,
    s1_standard_epsilon,
    sample_without_replacement,
    tracked_months,
    _Scope,
)

sys.path.insert(0, str(Path(__file__).parent))
from _util import dense, replay_scope_epsilon  # noqa: E402


def small_cfg(**kw):
    base = dict(
        scenario="s2",
        total_epsilon=10.0,
        rounds=3,
        requests_per_round=8.0,
        pa_domain_size=64,
        pa_range_unit=40,
        rng_seed=7,
    )
    base.update(kw)
    return WorkloadConfig(**base)


def test_config_round_trip_and_validation():
    cfg = small_cfg()
    assert WorkloadConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        WorkloadConfig(scenario="s9")
    with pytest.raises(ConfigError):
        WorkloadConfig.from_dict({"scenario": "s1", "no_such_knob": 1})
    with pytest.raises(ConfigError):
        WorkloadConfig(scenario="s1", blackbox_rate=1.5)


@pytest.mark.parametrize("fields", [
    {"utility_alpha": "x"},
    {"utility_alpha": -1.0},
    {"rng_seed": "x"},
    {"rng_seed": -1},
    {"rng_seed": True},
    {"requests_per_round": float("nan")},
    {"attr_zipf_exponent": float("nan")},
    {"mechanisms": {}},
    {"mechanisms": {"g": {"family": "pure", "levels": "ab", "pa_beta": [1.0, 1.0]}}},
    {"mechanisms": {"g": {"family": "pure", "levels": [0.1], "pa_beta": [1.0, 0.0]}}},
    {"rounds_per_month": 0},
    {"month_window": 1},
    # level ** utility_beta overflows a float
    {"mechanisms": {"g": {"family": "pure", "levels": [1e200], "pa_beta": [1.0, 1.0]}}},
    {"mechanisms": {"g": {"family": "pure", "levels": [10**400], "pa_beta": [1.0, 1.0]}}},
])
def test_config_rejects_values_the_simulator_cannot_run(fields):
    with pytest.raises(DPWardenError):
        WorkloadConfig.from_dict({"scenario": "s3", **fields})


def test_s1_standard_epsilon_inverts_table():
    for std, total in S1_BUDGET_TABLE:
        assert s1_standard_epsilon(total) == pytest.approx(std)
    assert 1.7 < s1_standard_epsilon(4.0) < 1.8


def test_mean_attributes_and_blackbox_rate(sampling_draws):
    # one large generation pass (tests/conftest.py) feeds both statistics
    assert sampling_draws.n_requests >= 100_000
    assert len(sampling_draws.attr_counts) == 100_000
    assert np.mean(sampling_draws.attr_counts) == pytest.approx(5.0, abs=0.1)
    blackbox_among_ml = sampling_draws.blackbox[sampling_draws.ml]
    assert blackbox_among_ml.mean() == pytest.approx(0.80, abs=0.02)


def test_mean_categories_per_attribute(sampling_draws):
    assert np.mean(sampling_draws.category_counts) == pytest.approx(3.5, abs=0.1)


def test_month_selection_frequencies(sampling_draws):
    draws = sampling_draws.months
    current = 6
    assert float((draws == current).mean()) == pytest.approx(1 / 3, abs=0.01)
    for m in range(current - 6, current):
        assert float((draws == m).mean()) == pytest.approx(1 / 9, abs=0.01)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=40)
    .filter(lambda w: any(x > 0 for x in w)),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
)
def test_sampler_draws_what_numpy_choice_draws(weights, data, seed):
    """Pinned to numpy's stream: the same indices from the same doubles, up
    to as many draws as there are positive weights, so that repeated draws
    send the sampler round its renormalising loop."""
    probs = np.asarray(weights) / sum(weights)
    size = data.draw(st.integers(0, int(np.count_nonzero(probs))))
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    want = numpys.choice(len(probs), size, replace=False, p=probs).tolist()
    assert sample_without_replacement(ours, probs, size) == want
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_workload_determinism():
    cfg = small_cfg()
    w1 = list(generate_workload(cfg))
    w2 = list(generate_workload(cfg))
    assert [[q.to_dict() for q in batch] for batch in w1] == [
        [q.to_dict() for q in batch] for batch in w2
    ]
    other = list(generate_workload(small_cfg(rng_seed=8)))
    assert [[q.to_dict() for q in b] for b in w1] != [[q.to_dict() for q in b] for b in other]


def test_run_scenario_holds_one_round_of_requests(monkeypatch):
    """Rounds are drawn as they are offered, and each is dropped before the
    next is drawn: when a round's first request is built, no request of an
    earlier round is alive."""
    import gc
    import weakref

    from dpwarden import workload

    build = workload.ReleaseRequest
    refs: dict[int, list] = {}
    checked = []

    def tracked(request_id, *args, **kwargs):
        round_no = int(request_id[1:3])
        if round_no not in refs:
            gc.collect()
            alive = [ref().request_id for r, round_refs in refs.items() for ref in round_refs if ref() is not None]
            assert alive == [], f"drawing round {round_no} while {alive} are alive"
            checked.append(round_no)
            refs[round_no] = []
        request = build(request_id, *args, **kwargs)
        refs[round_no].append(weakref.ref(request))
        return request

    monkeypatch.setattr(workload, "ReleaseRequest", tracked)
    cfg = small_cfg(rounds=5)
    result = run_scenario(cfg)
    assert len(result.reports) == cfg.rounds
    assert len(checked) >= 3 and sum(map(len, refs.values())) > 20


@pytest.mark.parametrize("total_epsilon,own", [(20.0, 0), (3.0, 18)])
def test_a_scope_builds_its_own_store_only_when_no_rule_enforces_it(total_epsilon, own, monkeypatch):
    """Desk s2 dpolicy: at ε 20 every one of the 19 scopes reads its rule's
    store, so no scope builds a store; at ε 3 pruning leaves the global
    scope's rule alone, and the other 18 scopes build one each."""
    from dpwarden import workload
    from dpwarden.decision import BlockRows

    built = []

    class Counted(BlockRows):
        def __init__(self, domain_size):
            built.append(domain_size)
            super().__init__(domain_size)

    monkeypatch.setattr(workload, "BlockRows", Counted)
    cfg = WorkloadConfig.desk_scale("s2", total_epsilon, 0)
    result = run_scenario(cfg, "dpolicy")
    assert len(result.reports[0].scopes) == 19
    assert built == [cfg.pa_domain_size] * own


def test_scenario_run_determinism(tmp_path):
    cfg = small_cfg()
    r1 = run_scenario(cfg, "dpolicy")
    r2 = run_scenario(cfg, "dpolicy")
    assert r1.summary() == r2.summary()
    emit_report(r1, tmp_path / "a")
    emit_report(r2, tmp_path / "b")
    assert (tmp_path / "a" / "rounds.csv").read_bytes() == (tmp_path / "b" / "rounds.csv").read_bytes()


def test_budget_unlock_schedule():
    cfg = WorkloadConfig.paper_scale("s1", 10.0)
    fractions = [min(1.0, r / cfg.unlock_rounds) for r in range(1, cfg.rounds + 1)]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[11] == 1.0  # round 12 fully unlocked
    assert fractions[10] < 1.0


def test_cumulative_scope_costs_non_decreasing():
    res = run_scenario(small_cfg(), "dpolicy")
    for name in res.reports[0].scopes:
        series = [rep.scopes[name].cumulative_epsilon for rep in res.reports]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))


def test_round_utilities_accumulate():
    res = run_scenario(small_cfg(), "baseline")
    total = 0.0
    for rep in res.reports:
        total += rep.utility
        assert rep.cumulative_utility == pytest.approx(total)


def test_emit_report_shapes(tmp_path):
    cfg = small_cfg(scenario="s3", rounds=4, rounds_per_month=2)
    res = run_scenario(cfg, "dpolicy")
    csv_path, summary_path = emit_report(res, tmp_path)
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    n_scopes = 1 + len(tracked_months(cfg))
    assert len(rows) == cfg.rounds * n_scopes
    summary = json.loads(summary_path.read_text())
    assert summary["rounds"] == cfg.rounds
    assert set(summary["final"]) == set(res.reports[-1].scopes)

    # empty result writes a header-only csv
    empty = run_scenario(small_cfg(rounds=1, requests_per_round=1e-9), "dpolicy")
    empty.reports = []
    csv_path, _ = emit_report(empty, tmp_path / "empty")
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1


def test_month_advances_and_collapses():
    cfg = small_cfg(scenario="s3", rounds=4, rounds_per_month=2, month_window=2)
    assert month_of_round(cfg, 1) == cfg.start_month
    assert month_of_round(cfg, 3) == cfg.start_month + 1
    res = run_scenario(cfg, "dpolicy")
    assert len(res.reports) == 4


def test_s3_requests_cover_both_kinds():
    cfg = small_cfg(scenario="s3", requests_per_round=40.0)
    reqs = [q for batch in generate_workload(cfg) for q in batch]
    time_reqs = [q for q in reqs if q.time_step is not None]
    static = [q for q in reqs if q.time_step is None]
    assert time_reqs and static
    for q in time_reqs:
        assert q.mechanisms[0].labels.has("data", "time")
        assert "user-month" in q.mechanisms[0].cost_by_unit
    for q in static:
        assert q.mechanisms[0].labels.has("data", "static")


def test_policy_documents_compile_per_scenario():
    from dpwarden.compiler import compile_policy_set, parse_policy_set
    from dpwarden.poset import build_poset, prune

    for scenario, expected_final in (("s1", 2), ("s2", 181), ("s3", 2)):
        cfg = small_cfg(scenario=scenario)
        schema = build_schema(cfg)
        ps = parse_policy_set(build_policy_document(cfg, schema))
        rules = compile_policy_set(ps)
        assert len(rules) == expected_final
        prune(build_poset(rules, ps.unit_graph()))


def test_mechanism_table_matches_defaults():
    cfg = small_cfg()
    assert set(cfg.mechanisms) == set(DEFAULT_MECHANISMS)
    for name, spec in cfg.mechanisms.items():
        assert len(spec["levels"]) == 3


@pytest.mark.parametrize("mode", ["dpolicy", "baseline"])
@pytest.mark.parametrize("total_epsilon", [3.0, 20.0])
@pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
def test_scope_reports_match_pure_python_replay(scenario, total_epsilon, mode, monkeypatch):
    """Every report, whether its scope shares an active rule's store or
    keeps its own, equals a dense replay of the accepted requests."""
    from dpwarden import workload
    from dpwarden.decision import CELL_STATIC, DecisionPoint, _atom
    from dpwarden.workload import _build_scopes

    cfg = small_cfg(scenario=scenario, rounds=4, total_epsilon=total_epsilon)
    accepted = []
    points = []
    built = []
    indexed = []
    process = DecisionPoint.process

    def recording_process(self, request, budget_scale=1.0):
        points.append(self)
        decision = process(self, request, budget_scale)
        if decision.accepted:
            accepted.append(request)
        return decision

    def recording_build(cfg, schema):
        built.extend(_build_scopes(cfg, schema))
        return built

    def recording_index(items):
        indexed.append(items)
        return RuleIndex(items)

    monkeypatch.setattr(DecisionPoint, "process", recording_process)
    monkeypatch.setattr(workload, "_build_scopes", recording_build)
    monkeypatch.setattr(workload, "RuleIndex", recording_index)
    result = run_scenario(cfg, mode)
    monkeypatch.undo()

    # a scope reads the static store of the active rule it duplicates, and
    # only the scopes that keep their own store are indexed and charged
    point = points[0]
    shared = []
    for scope in built:
        for rule in point.index.rules:
            if scope.month is None and rule.unit == scope.unit and _atom(rule.predicate) == _atom(scope.predicate):
                assert scope._acc is point.state.array(rule.rule_id, CELL_STATIC)
                shared.append(scope)
                break
    assert indexed == [[scope for scope in built if scope not in shared]]
    # every dpolicy scope of s1, and of s2 at 20, where pruning keeps each
    # scope's rule; otherwise the global scope alone
    every = mode == "dpolicy" and (scenario == "s1" or (scenario, total_epsilon) == ("s2", 20.0))
    assert len(shared) == (len(built) if every else 1)

    schema = build_schema(cfg)
    batches = generate_workload(cfg, schema)
    round_of = {q.request_id: r for r, batch in enumerate(batches, start=1) for q in batch}
    scopes = _build_scopes(cfg, schema)
    assert {s.name for s in scopes} == set(result.reports[0].scopes)
    charged = 0
    for rep in result.reports:
        prefix = [q for q in accepted if round_of[q.request_id] <= rep.round]
        for scope in scopes:
            expected = replay_scope_epsilon(scope, prefix, cfg.delta_budget, cfg.pa_domain_size)
            assert rep.scopes[scope.name].cumulative_epsilon == expected
            charged += expected > 0
    assert charged > 0


def full_scope_epsilon(scope) -> float:
    """The scope report recomputed over every block's accumulator row; 0.0
    while no block has been charged."""
    if scope._acc.shape[0] == 1:  # the zero row alone
        return 0.0
    return float(rdp_epsilon(dense(scope._acc), scope.delta).max())


_SCOPE_DOMAIN = 6
_curves = st.one_of(
    st.just(zero_curve()),
    st.floats(0.0, 2.0).map(gaussian_curve),
    st.floats(0.0, 5.0).map(pure_curve),
)
_mechanisms = st.builds(
    lambda kind, unit, curve: Mechanism(LabelSet({"kind": [kind]}), {unit: curve}),
    st.sampled_from(["charged", "other"]),
    st.sampled_from(["user", "user-month"]),
    _curves,
)
_requests = st.builds(
    lambda mechs, blocks, month: ReleaseRequest("q", tuple(mechs), sorted(blocks), month),
    st.lists(_mechanisms, max_size=3),
    st.sets(st.integers(0, _SCOPE_DOMAIN - 1)),
    st.sampled_from([None, 6, 7]),
)


@settings(max_examples=200, deadline=None)
@given(
    month=st.sampled_from([None, 6]),
    steps=st.lists(st.one_of(st.none(), _requests), max_size=25),
)
def test_incremental_scope_report_equals_full_recompute(month, steps):
    """``None`` steps are reports; several may follow one another."""
    cfg = small_cfg(pa_domain_size=_SCOPE_DOMAIN, pa_range_unit=2)
    scope = _Scope("s", HasLabel("kind", "charged"), "user", 1.0, cfg, month=month)
    assert not scope.share(DecisionPoint([], domain=BlockDomain(("pa",), _SCOPE_DOMAIN)))
    index = RuleIndex([scope])
    last = 0.0
    for step in [*steps, None]:
        if step is not None:
            matched, = index.match(step.mechanisms)
            if matched:
                scope.add(step, matched)
            continue
        eps = scope.report().cumulative_epsilon
        assert eps == full_scope_epsilon(scope)
        assert eps >= last
        last = eps


def test_shared_and_own_scopes_add_a_multi_mechanism_request_alike():
    """A request of two matching mechanisms charges a scope that shares its
    rule's store and a scope with its own store with the same bits: the
    mechanisms' costs are summed, then added once, as the commit adds them."""
    from dpwarden.core import ADP, Or, Rule
    from dpwarden.decision import CELL_STATIC, BlockDomain, DecisionPoint

    cfg = small_cfg(pa_domain_size=4, pa_range_unit=2)
    charged = HasLabel("kind", "charged")
    point = DecisionPoint([Rule("r", charged, "user", ADP(1e6, 1e-7))], domain=BlockDomain(("pa",), 4))
    shared = _Scope("shared", charged, "user", None, cfg)
    own = _Scope("own", Or((charged, HasLabel("kind", "never"))), "user", None, cfg)
    assert shared.share(point) and not own.share(point)
    # a month scope counts one month's requests, the rule's store all of them
    assert not _Scope("month", charged, "user", None, cfg, month=6).share(point)
    assert shared._acc is point.state.array("r", CELL_STATIC)

    def mech(eps):
        return Mechanism(LabelSet({"kind": ["charged"]}), {"user": pure_curve(eps)})

    c, a, b = (np.array(pure_curve(eps).curve) for eps in (0.1, 0.2, 0.3))
    assert ((c + a) + b != c + (a + b)).all()  # the two orders differ here
    index = RuleIndex([own])
    for request in (ReleaseRequest("q1", (mech(0.1),), [0, 1, 2]),
                    ReleaseRequest("q2", (mech(0.2), mech(0.3)), [1, 2, 3])):
        assert point.process(request).accepted
        matched, = index.match(request.mechanisms)
        own.add(request, matched)
    want = np.array([c, c + (a + b), c + (a + b), a + b])
    assert dense(shared._acc).tobytes() == dense(own._acc).tobytes() == want.tobytes()
    eps = float(rdp_epsilon(want, cfg.delta_budget).max())
    assert shared.report().cumulative_epsilon == own.report().cumulative_epsilon == eps


def test_paper_scale_scope_reports_equal_full_recompute(monkeypatch):
    """At paper scale each request charges few of the 204,800 rows, so most
    rows stay clean between reports."""
    report = _Scope.report
    checked = []

    def checking_report(self):
        got = report(self)
        assert got.cumulative_epsilon == full_scope_epsilon(self)
        checked.append(got.cumulative_epsilon > 0)
        return got

    monkeypatch.setattr(_Scope, "report", checking_report)
    cfg = WorkloadConfig.paper_scale("s1", 10.0, 0)
    result = run_scenario(cfg)
    assert len(checked) == cfg.rounds * len(result.reports[0].scopes)
    assert any(checked)


def test_state_and_scopes_hold_rows_only_for_charged_blocks():
    """A hundred-odd narrow requests on the paper-scale domain of 204,800
    blocks: every filter and scope store holds far less than a dense
    ``(domain_size, n_alpha)`` array would."""
    from dataclasses import replace

    from dpwarden.compiler import compile_policy_set, parse_policy_set
    from dpwarden.decision import N_ALPHA, BlockDomain, DecisionPoint
    from dpwarden.poset import build_poset, prune
    from dpwarden.workload import _build_scopes

    cfg = replace(WorkloadConfig.paper_scale("s2", 10.0, 0), rounds=1, requests_per_round=120.0)
    schema = build_schema(cfg)
    policy = parse_policy_set(build_policy_document(cfg, schema))
    point = DecisionPoint(prune(build_poset(compile_policy_set(policy), policy.unit_graph())),
                          policy.per_release, BlockDomain(("pa",), cfg.pa_domain_size))
    scopes = _build_scopes(cfg, schema)
    own = [scope for scope in scopes if not scope.share(point)]
    index = RuleIndex(own)
    accepted = 0
    for request in next(generate_workload(cfg, schema)):
        if point.process(request).accepted:
            accepted += 1
            for scope, matched in zip(own, index.match(request.mechanisms)):
                if matched:
                    scope.add(request, matched)
    assert accepted >= 90
    # a scope that shares a rule's store adds no store of its own
    stores = [store for per_rule in point.state._cells.values() for store in per_rule.values()]
    stores += [scope._acc for scope in own]
    assert len({id(store) for store in stores}) == len(stores)
    assert len(stores) > 20 and len(own) < len(scopes)
    dense_nbytes = cfg.pa_domain_size * N_ALPHA * np.dtype(float).itemsize
    assert sum(store.nbytes for store in stores) < 0.1 * len(stores) * dense_nbytes

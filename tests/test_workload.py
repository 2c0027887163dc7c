import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dpwarden.errors import ConfigError
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
    sample_month,
    tracked_months,
)

sys.path.insert(0, str(Path(__file__).parent))
from _util import replay_scope_epsilon  # noqa: E402


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


def test_s1_standard_epsilon_inverts_table():
    for std, total in S1_BUDGET_TABLE:
        assert s1_standard_epsilon(total) == pytest.approx(std)
    assert 1.7 < s1_standard_epsilon(4.0) < 1.8


def test_mean_attributes_and_blackbox_rate():
    # one large generation pass feeds both statistics
    cfg = WorkloadConfig(
        scenario="s1",
        total_epsilon=10.0,
        rounds=20,
        requests_per_round=5100.0,
        rng_seed=1,
    )
    schema = build_schema(cfg)
    reqs = [r for batch in generate_workload(cfg, schema) for r in batch]
    assert len(reqs) >= 100_000
    reqs = reqs[:100_000]
    attr_counts = [len(q.mechanisms[0].labels.attrs) for q in reqs]
    assert np.mean(attr_counts) == pytest.approx(5.0, abs=0.1)

    ml = [q for q in reqs if q.mechanisms[0].labels.values("mech") & {"dpsgd", "pate"}]
    blackbox = [q for q in ml if q.mechanisms[0].labels.has("context", "blackbox-ml")]
    assert len(blackbox) / len(ml) == pytest.approx(0.80, abs=0.02)


def test_mean_categories_per_attribute():
    from dpwarden.workload import _zipf_probs, sample_category_assignment

    cfg = WorkloadConfig(scenario="s2")
    probs = _zipf_probs(cfg.n_categories, cfg.cat_zipf_exponent)
    rng = np.random.default_rng(2)
    counts = [len(sample_category_assignment(rng, cfg, probs)) for _ in range(100_000)]
    assert np.mean(counts) == pytest.approx(3.5, abs=0.1)


def test_month_selection_frequencies():
    cfg = WorkloadConfig(scenario="s3")
    rng = np.random.default_rng(3)
    current = 6
    draws = [sample_month(rng, cfg, current) for _ in range(100_000)]
    counts = {m: draws.count(m) for m in set(draws)}
    assert counts[current] / len(draws) == pytest.approx(1 / 3, abs=0.01)
    for m in range(current - 6, current):
        assert counts[m] / len(draws) == pytest.approx(1 / 9, abs=0.01)


def test_workload_determinism():
    cfg = small_cfg()
    w1 = generate_workload(cfg)
    w2 = generate_workload(cfg)
    assert [[q.to_dict() for q in batch] for batch in w1] == [
        [q.to_dict() for q in batch] for batch in w2
    ]
    other = generate_workload(small_cfg(rng_seed=8))
    assert [[q.to_dict() for q in b] for b in w1] != [[q.to_dict() for q in b] for b in other]


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


@pytest.mark.parametrize("scenario", ["s1", "s2", "s3"])
def test_scope_reports_match_pure_python_replay(scenario, monkeypatch):
    from dpwarden.decision import DecisionPoint
    from dpwarden.workload import _build_scopes

    cfg = small_cfg(scenario=scenario, rounds=4, total_epsilon=3.0)
    accepted = []
    process = DecisionPoint.process

    def recording_process(self, request, budget_scale=1.0):
        decision = process(self, request, budget_scale)
        if decision.accepted:
            accepted.append(request)
        return decision

    monkeypatch.setattr(DecisionPoint, "process", recording_process)
    result = run_scenario(cfg)
    monkeypatch.undo()

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

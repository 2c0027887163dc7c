"""The benchmark's per-layer tracer (``perfbench/tracer.py``) still finds
every layer it wraps, its scope-row count reads the simulator's scopes, and
its state-size metric (``perfbench/passes.py``) reads the decision point."""

import importlib.util
from pathlib import Path

import dpwarden.cli  # noqa: F401  (the tracer wraps cli.main too)
from dpwarden.accounting import gaussian_curve
from dpwarden.core import ADP, LabelSet, Mechanism, ReleaseRequest, Rule, TruePredicate
from dpwarden.decision import BlockDomain, DecisionPoint
from dpwarden.workload import WorkloadConfig, run_scenario


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer_and_counts_scope_rows():
    tracer_module = _perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.absent == {}
        run_scenario(WorkloadConfig(scenario="s3", rounds=2, requests_per_round=6.0,
                                    pa_domain_size=32, pa_range_unit=16, rng_seed=5))
        values, absent = tracer_module.layer_metrics(tracer, {})
    finally:
        tracer.uninstall()
    assert absent == {}
    assert values["workload.scope_rows"] > 0


def test_state_metric_reads_the_decision_point():
    """``measure_state`` turns an ``AttributeError`` into an absent metric,
    so a decision point of another shape would read 0 MB unnoticed."""
    point = DecisionPoint([Rule("r", TruePredicate(), "user", ADP(10.0, 1e-7))], domain=BlockDomain((), 64))
    mech = Mechanism(LabelSet({"attr": ["a1"]}), {"user": gaussian_curve(0.01)})
    for k in range(3):
        assert point.process(ReleaseRequest(f"q{k}", (mech,), range(k, 64, 3))).accepted
    assert _perfbench_module("passes").state_mb(point) > 0

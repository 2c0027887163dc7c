"""The benchmark's per-layer tracer (``perfbench/tracer.py``) still finds
every layer it wraps, and its scope-row count reads the simulator's scopes."""

import importlib.util
from pathlib import Path

import dpwarden.cli  # noqa: F401  (the tracer wraps cli.main too)
from dpwarden.workload import WorkloadConfig, run_scenario


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer_and_counts_scope_rows():
    tracer_module = _tracer_module()
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

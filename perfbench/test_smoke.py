"""Smoke test of the benchmark on tiny configs: output schema and the digest
gate only, no timing bounds.  Run from the repository root with
``python3 -m pytest perfbench/test_smoke.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace,group", [
    ("smoke", "0", "end_to_end"),
    ("smoke-cli", "0", "end_to_end"),
    ("smoke", "1", "per_layer"),
    ("smoke-cli", "1", "per_layer"),
])
def test_result_schema(workload, trace, group):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # seed 0 is the reference seed, so this also matches reference.json
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH[group]}
    units = {m["name"]: m["unit"] for m in BENCH[group]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_other_seed_runs_agree():
    # a traced run has at least one untraced and one traced pass, whose
    # digests must agree away from the reference seed
    proc = bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    record = json.loads((ROOT / ".perfbench_out" / "result-smoke-seed7-trace1.json").read_text())
    assert record["samples"]["passes"] >= 1 and record["samples"]["traced_passes"] >= 1


def test_digest_gate():
    reference = json.loads((HERE / "reference.json").read_text())
    good = reference["digests"]["smoke"]
    assert run.check_digests("smoke", reference["seed"], [{"digest": good}] * 2) == (0, [])
    bad, notes = run.check_digests("smoke", reference["seed"], [{"digest": good}, {"digest": "0" * 64}])
    assert bad == 1 and notes
    # away from the reference seed the passes of a run must agree
    bad, _ = run.check_digests("smoke", reference["seed"] + 1,
                               [{"digest": "a" * 64}, {"digest": "a" * 64}, {"digest": "b" * 64}])
    assert bad == 1


def test_refuses_without_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark itself
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-s2", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

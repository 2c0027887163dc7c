"""Benchmark of dpwarden: set-up, throughput, decision latency and memory on
three workloads built from the paper's scenarios and the ``dpwarden check``
command.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload desk-mix --seed 0 --seconds 20 --trace 0

``--workload all`` (the default) runs paper-s2, desk-mix and cli-check one
after another.  Every set-up and every pass runs in its own fresh child
process, one at a time; the engine is a single writer whose callers each
wait for a verdict, so each workload is a closed loop with one client.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from traced children, and the
traced-over-untraced wall time as ``trace.overhead``.  Every pass is checked
against the digest of its reports and verdicts (see ``reference.json``); a
mismatch or a raised error fails the run.  The last line printed is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from passes import WORKLOADS

HERE = Path(__file__).resolve().parent
MAIN_WORKLOADS = ("paper-s2", "desk-mix", "cli-check")
SETUPS = 11  # set-up-only children per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # a run must end within 180 s


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tail_percentile(counts: list[int]) -> float:
    """The highest of p50/p90/p99/p99.9 that leaves at least ten samples
    beyond it in every pass."""
    for pct in (99.9, 99.0, 90.0):
        if all(n * (1 - pct / 100) >= 10 for n in counts):
            return pct
    return 50.0


def fs_type(path: Path) -> str:
    """File system type of the mount holding ``path``."""
    path = path.resolve()
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4]
        if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) >= len(best):
            best, kind = mount, right.split()[0]
    return kind


class Runner:
    """Starts the children of one workload run and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int, out_dir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.started = time.monotonic()
        self.children = 0

    def child(self, mode: str) -> dict:
        self.children += 1
        work = self.work / f"child-{self.children}"
        out = self.work / f"result-{self.children}.json"
        cmd = [sys.executable, str(HERE / "passes.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--work", str(work), "--out", str(out)]
        if mode == "trace":
            cmd += ["--spans", str(self.out_dir / f"spans-{self.workload}.jsonl")]
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=max(left, 1))
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} child failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        result = json.loads(out.read_text())
        shutil.rmtree(work, ignore_errors=True)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def check_digests(workload: str, seed: int, results: list[dict]) -> tuple[int, list[str]]:
    """Every pass of a run must produce the same digest, and at the
    reference seed it must equal the recorded one.  Returns the number of
    mismatching passes and a note per problem."""
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference["digests"].get(workload) if seed == reference["seed"] else None
    if expected is None:
        expected = statistics.mode(r["digest"] for r in results)
    bad = [r["digest"] for r in results if r["digest"] != expected]
    notes = [f"digest {d[:12]} != expected {expected[:12]}" for d in bad]
    return len(bad), notes


def run_workload(root: Path, bench: dict, workload: str, seed: int, seconds: int,
                 trace: bool, out_dir: Path) -> dict:
    runner = Runner(root, workload, seed, out_dir)
    try:
        passes: list[dict] = []
        traced: list[dict] = []
        setups: list[float] = []
        while not passes or runner.elapsed() < seconds or (trace and not traced):
            if trace and len(traced) < len(passes):
                traced.append(runner.child("trace"))
            else:
                passes.append(runner.child("pass"))
        if not trace:
            setups = [runner.child("setup")["setup_s"] for _ in range(SETUPS)]
    finally:
        runner.close()

    checked = passes + traced
    mismatched, notes = check_digests(workload, seed, checked)
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked) + mismatched
    notes += [e for r in checked for e in r["errors"]]

    n_samples = [len(r["latencies"]) for r in passes]
    tail = tail_percentile(n_samples)
    # the tail is read from untraced passes in both modes; it is a per-layer
    # figure because it is not steady enough across seeds to carry a bound
    tail_us = statistics.median(percentile(r["latencies"], tail) for r in passes) * 1e6
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units if name in traced[0]["layers"]}
        values["decide_tail_us"] = tail_us
        values["trace.overhead"] = (
            statistics.median(r["work_s"] for r in traced) / statistics.median(r["work_s"] for r in passes)
        )
        absent = {k: v for r in traced for k, v in r["absent"].items()}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "setup_s": statistics.median(setups),
            "requests_per_s": statistics.median(r["requests"] / r["wall_s"] for r in passes),
            "decide_p50_us": statistics.median(percentile(r["accepted_latencies"], 50) for r in passes) * 1e6,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        }
        absent = {}

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "notes": notes,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "absent": absent,
        "samples": {
            "passes": len(passes),
            "traced_passes": len(traced),
            "setups": len(setups),
            "latencies_per_pass": n_samples,
            "tail_percentile": tail,
            "decide_tail_us": tail_us,
            "beyond_tail_per_pass": [round(n * (1 - tail / 100)) for n in n_samples],
            "per_pass": [
                {"requests_per_s": r["requests"] / r["wall_s"],
                 "p50_us": percentile(r["accepted_latencies"], 50) * 1e6,
                 "tail_us": percentile(r["latencies"], tail) * 1e6, "rss_mb": r["rss_mb"]}
                for r in passes
            ],
        },
        "digest": passes[0]["digest"],
        "accepted": passes[0]["accepted"],
        "rejected": passes[0]["rejected"],
        "env": {
            **passes[0]["env"],
            "commit": git_commit(root),
            "seed": seed,
            "work_dir_fs": fs_type(out_dir),
            **({"state_dir_fs": "memory"} if WORKLOADS[workload]["kind"] == "cli" else {}),
        },
    }


def print_report(res: dict) -> None:
    print(f"== {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"passes={res['samples']['passes']} traced={res['samples']['traced_passes']}")
    print(f"   env {json.dumps(res['env'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"   {name:28s} {m['value']:.6g} {m['unit']}")
    s = res["samples"]
    if not res["trace"]:
        print(f"   decide_tail_us (per-layer) {s['decide_tail_us']:.6g} us = p{s['tail_percentile']:g}; "
              f"latencies per pass {s['latencies_per_pass']}, beyond the tail {s['beyond_tail_per_pass']}; "
              f"setup samples {s['setups']}")
    for name, why in res["absent"].items():
        print(f"   absent: {name}: {why}")
    print(f"   error_rate {res['error_rate']:.6g} ({res['failed']} failed of {res['attempted']} attempted); "
          f"verdicts {res['accepted']} accepted, {res['rejected']} rejected; digest {res['digest'][:16]}")
    for note in res["notes"]:
        print(f"   FAIL {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="measured time per workload run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "dpwarden" / "__init__.py").is_file():
        print(f"error: no dpwarden sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    workloads = MAIN_WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        res = run_workload(root, bench, workload, args.seed, seconds, bool(args.trace), out_dir)
        (out_dir / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=2))
        print_report(res)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

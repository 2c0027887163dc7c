"""One benchmark child: set up a workload, optionally run one pass of it, and
write what it measured as JSON.

``run.py`` starts each child in a fresh interpreter, one at a time::

    python3 perfbench/passes.py --workload desk-mix --seed 0 --mode pass \
        --work WORKDIR --out RESULT.json [--spans SPANS.jsonl]

``--mode setup`` only times set-up: ``run_scenario`` cut short once its
DecisionPoint exists (sims) or ``dpwarden compile`` (cli).  ``pass`` runs the
workload with ``DecisionPoint.process`` (sims) or each ``dpwarden check``
call (cli) timed; ``trace`` runs the pass under the span tracer instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# kind "sim": run_scenario + emit_report over every config of the workload.
# kind "cli": per config, `prefill` requests committed in-process, then the
# next `checks` requests, one `dpwarden check` each.
WORKLOADS = {
    "paper-s2": {"kind": "sim"},
    "desk-mix": {"kind": "sim"},
    "cli-check": {"kind": "cli", "prefill": 150, "checks": 12},
    # tiny configs for the smoke test only; not benchmark workloads
    "smoke": {"kind": "sim"},
    "smoke-cli": {"kind": "cli", "prefill": 4, "checks": 6},
}


CLI_STREAMS = 20


def sim_configs(name: str, seed: int) -> list:
    from dpwarden.workload import WorkloadConfig

    if name == "paper-s2":
        # three instances per pass, so one seed's schema does not set the figures
        return [(WorkloadConfig.paper_scale("s2", 10.0, 3 * seed + k), "dpolicy") for k in range(3)]
    if name == "desk-mix":
        # the acceptance-sweep grid at its lowest and highest total epsilon;
        # each config has its own seed, so one seed's schema does not set the figures
        grid = [(s, mode, eps) for s in ("s1", "s2", "s3") for mode in ("dpolicy", "baseline") for eps in (3.0, 20.0)]
        return [(WorkloadConfig.desk_scale(s, eps, len(grid) * seed + k), mode)
                for k, (s, mode, eps) in enumerate(grid)]
    return [
        (WorkloadConfig(scenario=s, rounds=2, requests_per_round=8.0, pa_domain_size=64,
                        pa_range_unit=64, rng_seed=seed), mode)
        for s in ("s1", "s2", "s3")
        for mode in ("dpolicy", "baseline")
    ]


def cli_configs(name: str, seed: int) -> list:
    from dpwarden.workload import WorkloadConfig

    if name == "cli-check":
        # twenty streams, so one seed's accept/reject mix does not set the figures
        return [WorkloadConfig.desk_scale("s1", 20.0, CLI_STREAMS * seed + k) for k in range(CLI_STREAMS)]
    return [WorkloadConfig(scenario="s1", total_epsilon=20.0, rounds=2, requests_per_round=8.0,
                           pa_domain_size=64, pa_range_unit=64, rng_seed=2 * seed + k) for k in range(2)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict_bytes(verdicts: list[tuple[str, bool]]) -> bytes:
    return "".join(f"{rid}:{int(ok)}\n" for rid, ok in verdicts).encode()


def state_mb(point) -> float:
    """Sum of nbytes over FilterState.array(rule, cell) of a DecisionPoint,
    for every cell a rule can hold: static, historical, future and each step
    up to ``now``."""
    state = point.state
    cells = ["static", "hist", "future", *(f"t{s}" for s in range(state.now + 1))]
    total = 0
    for rule in point.poset.rules:
        for cell in cells:
            arr = state.array(rule.rule_id, cell)
            if arr is not None:
                total += arr.nbytes
    return total / 2**20


def measure_state(points, tracer, out: dict) -> None:
    """Add the state size of finished DecisionPoints to ``out["state_mb"]``,
    or mark the metric absent if the state no longer has that shape."""
    try:
        out["state_mb"] = out.get("state_mb", 0.0) + sum(map(state_mb, points))
    except AttributeError as exc:
        tracer.absent["decision.state_mb"] = f"{exc}; metric not measured"


# ---------------------------------------------------------------------------
# sims: paper-s2, desk-mix
# ---------------------------------------------------------------------------

class SetupDone(Exception):
    """Stops run_scenario once its DecisionPoint exists."""


class SetupClock:
    """Times the set-up that ``run_scenario`` performs itself: from its call
    to the end of the ``DecisionPoint.__init__`` it makes, which covers the
    schema, the policy document, parse, compile, ``build_poset`` and
    ``prune`` (or the baseline rule).  The scenario is then cut short by
    raising SetupDone from that ``__init__``, so no request is decided."""

    def __enter__(self):
        from dpwarden.decision import DecisionPoint

        self.total = 0.0
        self.start = 0.0
        inner = self.inner = DecisionPoint.__init__
        clock = self

        def timed_init(point, *args, **kwargs):
            inner(point, *args, **kwargs)
            clock.total += time.perf_counter() - clock.start
            raise SetupDone

        DecisionPoint.__init__ = timed_init
        return self

    def __exit__(self, *exc):
        from dpwarden.decision import DecisionPoint

        DecisionPoint.__init__ = self.inner

    def run(self, cfg, mode: str) -> None:
        from dpwarden.workload import run_scenario

        self.start = time.perf_counter()
        try:
            run_scenario(cfg, mode)
        except SetupDone:
            return
        raise RuntimeError("run_scenario returned without building a DecisionPoint")


def sim_setup(configs) -> float:
    """Each config's set-up as run_scenario performs it.  Returns the time."""
    with SetupClock() as clock:
        for cfg, mode in configs:
            clock.run(cfg, mode)
    return clock.total


def sim_pass(configs, work: Path, out: dict, tracer=None) -> None:
    from dpwarden.decision import DecisionPoint
    from dpwarden.workload import emit_report, run_scenario

    latencies: list[float] = []
    accepted_latencies: list[float] = []
    verdicts: list[tuple[str, bool]] = []
    inner = DecisionPoint.process
    attempted = 0

    def timed_process(self, request, budget_scale=1.0):
        nonlocal attempted
        attempted += 1
        t = time.perf_counter()
        decision = inner(self, request, budget_scale)
        latencies.append(time.perf_counter() - t)
        if decision.accepted:
            accepted_latencies.append(latencies[-1])
        verdicts.append((request.request_id, decision.accepted))
        return decision

    DecisionPoint.process = timed_process
    wall = 0.0
    digests = []
    try:
        for k, (cfg, mode) in enumerate(configs):
            verdicts.clear()
            report_dir = work / f"report-{k}"
            t = time.perf_counter()
            try:
                emit_report(run_scenario(cfg, mode), report_dir)
            except Exception:
                out["failed"] += 1
                out["errors"].append(f"{cfg.scenario}/{mode}/{cfg.total_epsilon}: {traceback.format_exc()}")
                digests.append("error")
                continue
            finally:
                wall += time.perf_counter() - t
            digests.append(sha("|".join((
                sha((report_dir / "summary.json").read_bytes()),
                sha((report_dir / "rounds.csv").read_bytes()),
                sha(verdict_bytes(verdicts)),
            )).encode()))
            out["accepted"] += sum(ok for _, ok in verdicts)
            out["rejected"] += sum(not ok for _, ok in verdicts)
            if tracer is not None:
                # the run's state at its end; then the DecisionPoint can go
                measure_state(tracer.points, tracer, out)
                tracer.points.clear()
    finally:
        DecisionPoint.process = inner
    out.update(wall_s=wall, requests=len(latencies), attempted=attempted,
               latencies=latencies, accepted_latencies=accepted_latencies,
               digest=sha("|".join(digests).encode()))


# ---------------------------------------------------------------------------
# cli-check
# ---------------------------------------------------------------------------

def cli_stream(cfg, n: int) -> list:
    """The first n generated requests with their unlock scale, in the
    simulator's order: round by round, by descending utility."""
    from dpwarden.workload import generate_workload

    stream = []
    for round_no, batch in enumerate(generate_workload(cfg), start=1):
        scale = min(1.0, round_no / cfg.unlock_rounds)
        for request in sorted(batch, key=lambda q: -q.utility):
            if len(stream) == n:
                return stream
            stream.append((request, scale))
    return stream


def cli_prepare(cfg, prefill: int, checks: int) -> tuple:
    """A stream's first ``prefill`` requests committed in-process: the state
    the timed checks start from, and the DecisionPoint that the cross-check
    continues.  Returns (cfg, point, state JSON, the requests to check)."""
    from dpwarden.compiler import compile_policy_set, parse_policy_set
    from dpwarden.decision import BlockDomain, DecisionPoint
    from dpwarden.poset import build_poset, prune
    from dpwarden.workload import build_policy_document, build_schema

    stream = cli_stream(cfg, prefill + checks)
    policy = parse_policy_set(build_policy_document(cfg, build_schema(cfg)))
    poset = prune(build_poset(compile_policy_set(policy), policy.unit_graph()))
    point = DecisionPoint(poset, policy.per_release, BlockDomain((), cfg.pa_domain_size))
    for request, scale in stream[:prefill]:
        point.process(request, budget_scale=scale)
    return cfg, point, json.dumps(point.state.to_dict()), stream[prefill:]


def cli_setup(configs, work: Path) -> float:
    from dpwarden import cli
    from dpwarden.workload import build_policy_document, build_schema

    elapsed = 0.0
    for k, cfg in enumerate(configs):
        policies = work / f"policies-{k}.json"
        policies.write_text(json.dumps(build_policy_document(cfg, build_schema(cfg))))
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["compile", "--policies", str(policies), "-o", str(work / f"rules-{k}.json")])
        elapsed += time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"dpwarden compile exited with {rc}")
    return elapsed


class MemoryFiles:
    """Keeps the files directly in one directory in memory while active.

    ``dpwarden`` reads and writes its files with ``Path.read_text``,
    ``Path.write_text`` and ``Path.exists``; for files in ``root`` these
    are served from a dict of encoded bytes, which stands in for a
    memory-backed file system such as tmpfs.  ``dpwarden check`` rewrites its
    1.1 MB state on every accepted check; on the checkout's disk that costs
    more than the decision and varies with every other writer on the host,
    so a check would measure the disk, not the program.  Other paths go to
    the real file system.
    """

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, bytes] = {}

    def _mine(self, path) -> bool:
        return Path(path).parent == self.root

    def __enter__(self):
        self.saved = read, write, exists = Path.read_text, Path.write_text, Path.exists
        mem = self

        def read_text(path, encoding=None, errors=None):
            if not mem._mine(path):
                return read(path, encoding, errors)
            try:
                return mem.files[str(path)].decode(encoding or "utf-8", errors or "strict")
            except KeyError:
                raise FileNotFoundError(str(path)) from None

        def write_text(path, data, encoding=None, errors=None, newline=None):
            if not mem._mine(path):
                return write(path, data, encoding, errors, newline)
            mem.files[str(path)] = data.encode(encoding or "utf-8", errors or "strict")
            return len(data)

        def exists(path, *args, **kwargs):
            return str(path) in mem.files if mem._mine(path) else exists(path, *args, **kwargs)

        Path.read_text, Path.write_text, Path.exists = read_text, write_text, exists
        return self

    def __exit__(self, *exc):
        Path.read_text, Path.write_text, Path.exists = self.saved


def cli_pass(streams, work: Path, out: dict, tracer=None) -> None:
    from dpwarden import cli

    latencies: list[float] = []
    accepted_latencies: list[float] = []
    digests = []
    out["state_json_bytes"] = 0
    for k, (cfg, point, state_doc, checks) in enumerate(streams):
        rules, state, request_path = work / f"rules-{k}.json", work / f"state-{k}.json", work / "request.json"
        state.write_text(state_doc)
        verdicts: list[tuple[str, bool]] = []
        for request, scale in checks:
            request_path.write_text(json.dumps(request.to_dict()))
            argv = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request_path),
                    "--blocks", str(cfg.pa_domain_size), "--scale", repr(scale)]
            if tracer is not None:
                tracer.request_id = request.request_id
            sink = io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = cli.main(argv)
            except Exception:
                rc = None
                out["errors"].append(f"{request.request_id}: {traceback.format_exc()}")
            latencies.append(time.perf_counter() - t)
            if rc == 0:
                accepted_latencies.append(latencies[-1])
            elif rc != 1:
                out["failed"] += 1
                if rc is not None:
                    out["errors"].append(f"{request.request_id}: dpwarden check exited with {rc}")
            verdicts.append((request.request_id, rc == 0))
        state_bytes = state.read_text().encode()
        out["state_json_bytes"] += len(state_bytes)
        out["accepted"] += sum(ok for _, ok in verdicts)
        out["rejected"] += sum(not ok for _, ok in verdicts)
        digests.append(sha(f"{sha(verdict_bytes(verdicts))}|{sha(state_bytes)}".encode()))
        out.setdefault("_verdicts", []).append(verdicts)
        out.setdefault("_states", []).append(state_bytes)
    out.update(wall_s=sum(latencies), requests=len(latencies), attempted=len(latencies),
               latencies=latencies, accepted_latencies=accepted_latencies,
               digest=sha("|".join(digests).encode()))


def cli_cross_check(streams, verdicts: list, states: list[bytes]) -> list[str]:
    """Continue each stream's in-process DecisionPoint over the checked
    requests.  Its verdicts must equal the CLI's, and its final state the
    CLI's state file, so a lossy state round trip shows up here."""
    errors = []
    for k, ((_, point, _, checks), stream_verdicts, state) in enumerate(zip(streams, verdicts, states)):
        for (request, scale), (rid, cli_ok) in zip(checks, stream_verdicts):
            ok = point.process(request, budget_scale=scale).accepted
            if ok != cli_ok:
                errors.append(f"{rid}: dpwarden check says {cli_ok}, DecisionPoint says {ok}")
        in_process = json.loads(json.dumps(point.state.to_dict()))
        if json.loads(state) != in_process:
            errors.append(f"stream {k}: the state file differs from the in-process state")
    return errors


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def run_child(workload: str, seed: int, mode: str, work: Path, spans: Path | None) -> dict:
    spec = WORKLOADS[workload]
    out: dict = {"failed": 0, "errors": [], "accepted": 0, "rejected": 0}
    t0 = time.perf_counter()
    import dpwarden  # noqa: F401  (import is part of set-up: every CLI user pays it)
    import dpwarden.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    configs = sim_configs(workload, seed) if spec["kind"] == "sim" else cli_configs(workload, seed)

    if mode == "setup":
        setup_s = sim_setup(configs) if spec["kind"] == "sim" else cli_setup(configs, work)
        out.update(setup_s=import_s + setup_s, env=environment())
        return out

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # a sim pass compiles inside run_scenario; the CLI needs its rules files
    compile_s = cli_setup(configs, work) if spec["kind"] == "cli" else 0.0
    out["env"] = environment()

    if spec["kind"] == "cli":
        # the in-process prefix is input preparation: neither timed nor traced
        if tracer is not None:
            tracer.uninstall()
        streams = [cli_prepare(cfg, spec["prefill"], spec["checks"]) for cfg in configs]
        if tracer is not None:
            tracer.install()

    if spec["kind"] == "sim":
        sim_pass(configs, work, out, tracer)
    else:
        cli_pass(streams, work, out, tracer)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["work_s"] = compile_s + out["wall_s"]
    if tracer is not None:
        tracer.uninstall()
    if spec["kind"] == "cli":
        mismatches = cli_cross_check(streams, out.pop("_verdicts"), out.pop("_states"))
        out["failed"] += len(mismatches)
        out["errors"].extend(mismatches)

    if tracer is not None:
        from tracer import layer_metrics

        extra = {
            "decision.accepted": out["accepted"],
            "decision.rejected": out["rejected"],
            "decision.state_json_bytes": out.get("state_json_bytes", 0),
        }
        if spec["kind"] == "cli":
            # the cross-check left each stream's DecisionPoint in the state
            # the CLI's file holds
            measure_state([s[1] for s in streams], tracer, out)
        extra["decision.state_mb"] = out.get("state_mb", 0.0)
        out["layers"], out["absent"] = layer_metrics(tracer, extra)
        if spans is not None:
            tracer.dump(spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    parser.add_argument("--work", required=True, help="scratch directory for reports and state")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    # the CLI's policies, rules, state and request files live in memory
    files = MemoryFiles(work) if WORKLOADS[args.workload]["kind"] == "cli" else contextlib.nullcontext()
    with files:
        out = run_child(args.workload, args.seed, args.mode, work, Path(args.spans) if args.spans else None)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

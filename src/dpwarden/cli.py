"""Command-line interface.

Subcommands: ``compile`` a policy document into a pruned rule set, ``check``
one release request against a rule set and state file, ``advance`` a state
file's time frontier, ``simulate`` a scenario workload, and ``report`` a
finished simulation directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compiler import compile_policy_set, parse_policy_set
from .core import DEFAULT_ALPHA_ORDERS, ReleaseRequest, Rule, UnitGraph
from .decision import BlockDomain, DecisionPoint, FilterState, TimeAxis
from .errors import DPWardenError, ParseError, ValidationError, reading
from .poset import build_poset, prune_with_report, to_dot
from .workload import WorkloadConfig, emit_report, run_scenario

RULES_FORMAT = "dpwarden-rules"


def _cmd_compile(args: argparse.Namespace) -> int:
    policy = parse_policy_set(Path(args.policies).read_text())
    units = policy.unit_graph()
    rules = compile_policy_set(policy)
    poset = build_poset(rules, units)
    pruned_poset, records = prune_with_report(poset)
    payload = {
        "format": RULES_FORMAT,
        "alpha_orders": list(DEFAULT_ALPHA_ORDERS),
        "units": units.to_dicts(),
        "rules": [r.to_dict() for r in pruned_poset.rules],
        "per_release_rules": [r.to_dict() for r in policy.per_release],
        "pruned": [rec.to_dict() for rec in records],
    }
    Path(args.out).write_text(json.dumps(payload, indent=2))
    if args.dot:
        Path(args.dot).write_text(to_dot(poset, [rec.rule_id for rec in records]))
    print(
        f"compiled {len(rules)} rules -> {len(pruned_poset.rules)} active "
        f"({len(records)} pruned) -> {args.out}"
    )
    return 0


def _read_json(path: str, what: str, decode=json.loads):
    with reading(what):
        return decode(Path(path).read_text())


def _load_rules(path: str) -> tuple[list[Rule], list[Rule]]:
    """The active rules and the per-release rules of a compiled rule set,
    read and checked against the file's format tag, alpha orders and units."""
    with reading("rule set"):
        doc = json.loads(Path(path).read_text())
        if doc.get("format") != RULES_FORMAT:
            raise ParseError(f"{path} is not a compiled rule set")
        if doc["alpha_orders"] != list(DEFAULT_ALPHA_ORDERS):
            raise ParseError(f"{path} was compiled for other alpha orders than {list(DEFAULT_ALPHA_ORDERS)}")
        units = UnitGraph.from_dicts(doc["units"])
        rules = [Rule.from_dict(d) for d in doc["rules"]]
        per_release = [Rule.from_dict(d) for d in doc.get("per_release_rules", ())]
        for rule in rules + per_release:
            if rule.unit not in units:
                raise ValidationError(f"rule {rule.rule_id!r} uses undeclared unit {rule.unit!r}")
        return rules, per_release


def _cmd_check(args: argparse.Namespace) -> int:
    rules, per_release = _load_rules(args.rules)
    axis = TimeAxis(args.time_unit, args.window, args.horizon) if args.time_unit else None
    point = DecisionPoint(rules, per_release, BlockDomain((), args.blocks, axis))

    state_path = Path(args.state)
    if state_path.exists():
        point.state = _read_json(args.state, "state", FilterState.from_json)

    request = ReleaseRequest.from_dict(
        _read_json(args.request, "release request"), domain_size=point.state.domain.domain_size
    )
    decision = point.process(request, args.scale)
    if decision.accepted:  # before any output: a failed write prints no verdict
        state_path.write_text(point.state.to_json())
    result = decision.to_dict()
    result["headroom"] = point.headroom(args.scale)
    print(json.dumps(result, indent=2))
    return 0 if decision.accepted else 1


def _cmd_advance(args: argparse.Namespace) -> int:
    state = _read_json(args.state, "state", FilterState.from_json)
    state.collapse_time(args.to)
    Path(args.state).write_text(state.to_json())
    print(f"advanced {args.state} to time step {state.now}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = WorkloadConfig.from_dict(_read_json(args.config, "workload config"))
    result = run_scenario(cfg, args.mode)
    csv_path, summary_path = emit_report(result, args.out)
    print(f"wrote {csv_path} and {summary_path}")
    print(
        f"scenario={cfg.scenario} mode={args.mode} eps_total={cfg.total_epsilon} "
        f"utility={result.total_utility:.4f} violation_rounds={result.violation_count()}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    summary = _read_json(str(Path(args.indir) / "summary.json"), "simulation summary")
    with reading("simulation summary"):
        lines = [
            f"scenario={summary['scenario']} mode={summary['mode']} "
            f"eps_total={summary['total_epsilon']} rounds={summary['rounds']}",
            f"total utility: {summary['total_utility']:.4f}",
            f"scope rows with violations: {summary['violation_rounds']}",
        ]
        for name, sc in summary["final"].items():
            bound = "-" if sc["bound"] is None else f"{sc['bound']:.3f}"
            flag = " VIOLATION" if sc["violation"] else ""
            lines.append(f"  {name}: eps={sc['cumulative_epsilon']:.4f} bound={bound}{flag}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpwarden", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a policy document into a pruned rule set")
    p.add_argument("--policies", required=True, help="policy document (JSON)")
    p.add_argument("-o", "--out", required=True, help="output rule-set path")
    p.add_argument("--dot", help="also write the rule poset as DOT")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("check", help="check one release request, committing on accept")
    p.add_argument("--rules", required=True)
    p.add_argument("--state", required=True, help="state file; created if missing")
    p.add_argument("--request", required=True)
    p.add_argument("--blocks", type=int, default=1, help="block-domain size for a fresh state")
    p.add_argument("--time-unit", help="time-based unit name for a fresh state")
    p.add_argument("--window", type=int, default=7)
    p.add_argument("--horizon", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0, help="budget unlock fraction")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("advance", help="advance a state file's time frontier")
    p.add_argument("--state", required=True, help="existing state file with a time axis")
    p.add_argument("--to", type=int, required=True, help="new current time step")
    p.set_defaults(func=_cmd_advance)

    p = sub.add_parser("simulate", help="run a scenario workload")
    p.add_argument("--config", required=True, help="workload config (JSON)")
    p.add_argument("--mode", choices=("dpolicy", "baseline"), default="dpolicy")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="summarize a simulation output directory")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DPWardenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

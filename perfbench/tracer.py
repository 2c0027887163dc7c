"""In-memory span tracer that wraps dpwarden's layer entry points by attribute.

Nothing in ``src/`` is edited: each public function (and the few methods the
benchmark needs) is replaced, in every ``dpwarden`` module that binds it, by
a wrapper that records a span.  A span holds its name, start, end, parent
span and the request id current when it opened.  Spans stay in memory and
are written out once, after the traced pass.

A layer's self time is its span's duration minus the time its child spans
cover; spans nest strictly because the engine is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  A method is "Class.method".
SPANS = (
    ("dpwarden.compiler", "parse_policy_set", "compiler.parse"),
    ("dpwarden.compiler", "compile_policy_set", "compiler.compile"),
    ("dpwarden.poset", "build_poset", "poset.build"),
    ("dpwarden.poset", "prune", "poset.prune"),
    ("dpwarden.poset", "prune_with_report", "poset.prune"),
    ("dpwarden.workload", "generate_workload", "workload.generate"),
    ("dpwarden.workload", "_Scope.add", "workload.scope_add"),
    ("dpwarden.workload", "_Scope.report", "workload.scope_report"),
    ("dpwarden.workload", "emit_report", "workload.emit"),
    ("dpwarden.core", "ReleaseRequest.__init__", "core.request_build"),
    ("dpwarden.core", "ReleaseRequest.from_dict", "core.request_build"),
    ("dpwarden.accounting", "calibrate_gaussian_rho", "accounting.calibrate"),
    ("dpwarden.decision", "DecisionPoint.process", "decision.process"),
    ("dpwarden.decision", "check_per_release", "decision.per_release"),
    ("dpwarden.decision", "match_rules", "decision.match"),
    ("dpwarden.decision", "check_and_commit", "decision.cumulative"),
    ("dpwarden.decision", "FilterState.collapse_time", "decision.collapse"),
    ("dpwarden.decision", "FilterState.from_dict", "decision.state_load"),
    ("dpwarden.decision", "FilterState.to_dict", "decision.state_dump"),
    ("dpwarden.decision", "headroom", "decision.headroom"),
    ("dpwarden.cli", "main", "cli.main"),
)

# Per-layer metrics that need a wrapped attribute, and which one.
NEEDS = {
    "workload.scope_add_s": "dpwarden.workload._Scope.add",
    "workload.scope_report_s": "dpwarden.workload._Scope.report",
    "workload.scope_rows": "dpwarden.workload._Scope.report",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[str | None] = []
        self.stack: list[int] = []
        self.request_id: str | None = None
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self.points: list = []  # DecisionPoints seen by DecisionPoint.process
        self._matched_rules: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name."""
        incl: defaultdict[str, float] = defaultdict(float)
        self_t: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            incl[name] += dur
            self_t[name] += dur
            p = self.parents[i]
            if p >= 0:
                self_t[self.names[p]] -= dur
        return dict(incl), dict(self_t)

    def dump(self, path) -> None:
        """One JSON header line naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"]}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i], self.requests[i]]) + "\n")

    # -- wrapping ----------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Counts taken at the span boundary from the call's own values."""
        c = self.counts
        if name == "compiler.compile":
            self.maxima["compiler.rules"] = max(self.maxima["compiler.rules"], len(result))
        elif name == "poset.build":
            c["poset.base_comparisons"] += result.stats.base_comparisons
        elif name == "poset.prune":
            pruned = result[0] if isinstance(result, tuple) else result
            self.maxima["poset.rules_active"] = max(self.maxima["poset.rules_active"], len(pruned.rules))
        elif name == "workload.generate":
            c["workload.requests"] += sum(len(batch) for batch in result)
        elif name == "workload.scope_report":
            acc = getattr(args[0], "_acc", None)
            c["workload.scope_rows"] += 0 if acc is None else acc.shape[0]
        elif name == "core.request_build":
            c["core.selection_blocks"] += len(args[0].pa_selection) if result is None else len(result.pa_selection)
        elif name == "decision.match":
            c["decision.matched_pairs"] += sum(len(m) for m in result)
            self._matched_rules = [i for i, m in enumerate(result) if m]
        elif name == "decision.cumulative":
            state, request, poset = args[0], args[1], args[2]
            axis = state.domain.time_axis
            cells = 0
            for i in self._matched_rules:
                time_based = axis is not None and poset.rules[i].unit == axis.unit
                cells += len(state.cells_for(time_based, request.time_step))
            c["decision.rows_checked"] += len(request.pa_selection) * cells
        elif name == "decision.process":
            if not self.points or self.points[-1] is not args[0]:
                self.points.append(args[0])

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a nested call of the same layer (from_dict -> __init__,
            # prune -> prune_with_report) belongs to the outer span
            if tracer.current() == name:
                return fn(*args, **kwargs)
            outer_request = tracer.request_id
            if name == "decision.process":
                tracer.request_id = args[1].request_id
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}" if argv else name
            i = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
                tracer.request_id = outer_request
            tracer._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in SPANS, plus a counter on eval_predicate."""
        for module_name, path, name in SPANS:
            owner = sys.modules.get(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent[f"{module_name}.{path}"] = "attribute not found; metric not measured"
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(owner, type):
                self._set(owner, attr, self._wrap(raw, name))
            else:
                self._rebind(raw, self._wrap(raw, name))

        core = sys.modules["dpwarden.core"]
        original = core.eval_predicate
        tracer = self

        @functools.wraps(original)
        def counting_eval(p, labels):
            tracer.counts["core.predicate_evals"] += 1
            if tracer.current() == "decision.match":
                tracer.counts["decision.match_evals"] += 1
            return original(p, labels)

        self._rebind(original, counting_eval)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace a function in every dpwarden module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dpwarden" or mod_name.startswith("dpwarden."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values from one traced child, plus absent metrics
    with their reason.  ``extra`` carries values measured outside spans."""
    incl, self_t = tracer.totals()
    c = tracer.counts
    evals = c["decision.match_evals"]
    values = {
        "compiler.parse_s": incl.get("compiler.parse", 0.0),
        "compiler.compile_s": incl.get("compiler.compile", 0.0),
        "compiler.rules": tracer.maxima["compiler.rules"],
        "poset.build_s": incl.get("poset.build", 0.0),
        "poset.prune_s": self_t.get("poset.prune", 0.0),
        "poset.base_comparisons": c["poset.base_comparisons"],
        "poset.rules_active": tracer.maxima["poset.rules_active"],
        "workload.generate_s": incl.get("workload.generate", 0.0),
        "workload.requests": c["workload.requests"],
        "workload.scope_add_s": incl.get("workload.scope_add", 0.0),
        "workload.scope_report_s": incl.get("workload.scope_report", 0.0),
        "workload.scope_rows": c["workload.scope_rows"],
        "workload.emit_s": incl.get("workload.emit", 0.0),
        "core.request_build_s": incl.get("core.request_build", 0.0),
        "core.selection_blocks": c["core.selection_blocks"],
        "core.predicate_evals": c["core.predicate_evals"],
        "accounting.calibrate_s": incl.get("accounting.calibrate", 0.0),
        "decision.per_release_s": incl.get("decision.per_release", 0.0),
        "decision.match_s": incl.get("decision.match", 0.0),
        "decision.match_ratio": c["decision.matched_pairs"] / evals if evals else 0.0,
        "decision.cumulative_s": self_t.get("decision.cumulative", 0.0),
        "decision.rows_checked": c["decision.rows_checked"],
        "decision.collapse_s": incl.get("decision.collapse", 0.0),
        "decision.state_load_s": incl.get("decision.state_load", 0.0),
        "decision.state_dump_s": incl.get("decision.state_dump", 0.0),
        "decision.headroom_s": incl.get("decision.headroom", 0.0),
        "cli.check_self_s": self_t.get("cli.check", 0.0),
    }
    values.update(extra)
    absent = {metric: tracer.absent[attr] for metric, attr in NEEDS.items() if attr in tracer.absent}
    absent.update({k: v for k, v in tracer.absent.items() if k in values})
    return values, absent

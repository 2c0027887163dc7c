"""Stateful two-stage policy decision point.

Stage one checks per-release rules statelessly.  Stage two walks the rule
poset top-down, skipping a rule's entire down-set for any mechanism whose
labels fail its predicate, and runs an RDP privacy filter for every (block,
time-cell) a request touches.  Commits are all-or-nothing: a rejected request
leaves the filter state untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .accounting import rdp_epsilon, scale_budget, within_budget
from .core import (
    ADP,
    DEFAULT_ALPHA_ORDERS,
    Mechanism,
    RDP,
    ReleaseRequest,
    Rule,
    eval_predicate,
    validate_alpha_orders,
)
from .errors import MissingCost, UnknownTimeStep, ValidationError, VariantMismatch, reading
from .poset import RulePoset

CELL_STATIC = "static"
CELL_HIST = "hist"
CELL_FUTURE = "future"


def step_cell(step: int) -> str:
    return f"t{step}"


def _cell_step(cell: str) -> int | None:
    if cell.startswith("t") and cell[1:].isdigit():
        return int(cell[1:])
    return None


@dataclass(frozen=True)
class TimeAxis:
    """Time dimension for one time-based privacy unit.

    The most recent ``granular_window`` steps are tracked individually; older
    steps collapse into a single historical interval, and steps beyond the
    current frontier are a single future interval.  ``horizon`` is the
    initial frontier step.
    """

    unit: str
    granular_window: int
    horizon: int = 0

    def __post_init__(self):
        if self.granular_window < 0:
            raise ValidationError("granular window must be >= 0")
        if self.horizon < 0:
            raise ValidationError("horizon must be >= 0")


@dataclass(frozen=True)
class BlockDomain:
    """Partitioning-attribute block space shared by all rules."""

    partitioning_attributes: tuple[str, ...] = ()
    domain_size: int = 1
    time_axis: TimeAxis | None = None

    def __post_init__(self):
        object.__setattr__(self, "partitioning_attributes", tuple(self.partitioning_attributes))
        if self.domain_size < 1:
            raise ValidationError("domain size must be >= 1")

    def to_dict(self) -> dict:
        d = {
            "partitioning_attributes": list(self.partitioning_attributes),
            "domain_size": self.domain_size,
        }
        if self.time_axis is not None:
            d["time_axis"] = {
                "unit": self.time_axis.unit,
                "granular_window": self.time_axis.granular_window,
                "horizon": self.time_axis.horizon,
            }
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "BlockDomain":
        ta = d.get("time_axis")
        return cls(
            tuple(d.get("partitioning_attributes", ())),
            int(d.get("domain_size", 1)),
            TimeAxis(ta["unit"], int(ta["granular_window"]), int(ta.get("horizon", 0))) if ta else None,
        )


class FilterState:
    """Cumulative RDP accumulators per (rule, block, time cell)."""

    def __init__(self, domain: BlockDomain, orders: Sequence[float] = DEFAULT_ALPHA_ORDERS):
        self.domain = domain
        self.orders = validate_alpha_orders(orders)
        self.n_alpha = len(self.orders)
        self.now = domain.time_axis.horizon if domain.time_axis else 0
        self._cells: dict[str, dict[str, np.ndarray]] = {}

    # -- cell addressing ----------------------------------------------------

    def granular_steps(self) -> range:
        w = self.domain.time_axis.granular_window if self.domain.time_axis else 0
        return range(max(0, self.now - w + 1), self.now + 1)

    def cells_for(self, time_based: bool, time_step: int | None) -> list[str]:
        """Cells a request touches for one rule.

        Requests without a time step hit every cell of a time-based rule;
        static rules always use the single static cell.
        """
        if not time_based:
            return [CELL_STATIC]
        if time_step is None:
            return [CELL_HIST, *(step_cell(s) for s in self.granular_steps()), CELL_FUTURE]
        if time_step > self.now:
            raise UnknownTimeStep(f"time step {time_step} beyond current horizon {self.now}")
        if time_step in self.granular_steps():
            return [step_cell(time_step)]
        return [CELL_HIST]

    # -- accumulator access ---------------------------------------------------

    def array(self, rule_id: str, cell: str) -> np.ndarray | None:
        return self._cells.get(rule_id, {}).get(cell)

    def ensure(self, rule_id: str, cell: str) -> np.ndarray:
        per_rule = self._cells.setdefault(rule_id, {})
        arr = per_rule.get(cell)
        if arr is None:
            arr = np.zeros((self.domain.domain_size, self.n_alpha))
            per_rule[cell] = arr
        return arr

    def collapse_time(self, new_now: int) -> None:
        """Advance the frontier, folding steps that leave the granular window
        into the historical interval by pointwise maximum (parallel
        composition across disjoint steps)."""
        if new_now < self.now:
            raise ValidationError("time cannot move backwards")
        w = self.domain.time_axis.granular_window if self.domain.time_axis else 0
        cutoff = new_now - w
        for per_rule in self._cells.values():
            future = per_rule.get(CELL_FUTURE)
            if future is not None:
                # a release over all time also covers every step that opens
                # now; steps already past the window reach hist through `cutoff`
                for step in range(max(self.now + 1, cutoff), new_now + 1):
                    per_rule[step_cell(step)] = future.copy()
            for cell in [c for c in per_rule if (s := _cell_step(c)) is not None and s <= cutoff]:
                hist = per_rule.get(CELL_HIST)
                if hist is None:
                    hist = np.zeros((self.domain.domain_size, self.n_alpha))
                    per_rule[CELL_HIST] = hist
                np.maximum(hist, per_rule[cell], out=hist)
                del per_rule[cell]
        self.now = new_now

    def copy(self) -> "FilterState":
        dup = FilterState(self.domain, self.orders)
        dup.now = self.now
        dup._cells = {
            rid: {cell: arr.copy() for cell, arr in per_rule.items()}
            for rid, per_rule in self._cells.items()
        }
        return dup

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        cells: dict[str, dict[str, dict]] = {}
        for rid, per_rule in self._cells.items():
            out_rule: dict[str, dict] = {}
            for cell, arr in per_rule.items():
                nz = np.flatnonzero(arr.any(axis=1))
                if nz.size == 0:
                    continue
                out_rule[cell] = {
                    "blocks": [int(b) for b in nz],
                    "curves": [list(map(float, arr[b])) for b in nz],
                }
            if out_rule:
                cells[rid] = out_rule
        return {"now": self.now, "domain": self.domain.to_dict(), "cells": cells}

    @classmethod
    def from_dict(cls, d: Mapping, orders: Sequence[float] = DEFAULT_ALPHA_ORDERS) -> "FilterState":
        with reading("state"):
            unknown = set(d) - {"now", "domain", "cells"}
            if unknown:
                raise ValidationError(f"unknown state keys: {sorted(unknown)}")
            state = cls(BlockDomain.from_dict(d["domain"]), orders)
            state.now = int(d.get("now", state.now))
            if state.now < 0:
                raise ValidationError("state time step must be >= 0")
            addressable = {CELL_STATIC}
            if state.domain.time_axis is not None:
                addressable |= {CELL_HIST, CELL_FUTURE, *map(step_cell, state.granular_steps())}
            n = state.domain.domain_size
            for rid, per_rule in d.get("cells", {}).items():
                for cell, payload in per_rule.items():
                    if cell not in addressable:
                        raise ValidationError(f"state cell {rid}/{cell}: not a cell of this state")
                    blocks = np.asarray(payload["blocks"])
                    curves = np.asarray(payload["curves"], dtype=float)
                    if (
                        blocks.ndim != 1
                        # numpy reads a bool among ints as 0 or 1
                        or bool in map(type, payload["blocks"])
                        or (blocks.size and (
                            blocks.dtype.kind not in "iu" or blocks.min() < 0 or blocks.max() >= n
                            or (np.diff(np.sort(blocks)) == 0).any()
                        ))
                    ):
                        raise ValidationError(
                            f"state cell {rid}/{cell}: blocks must be integers in [0, {n}), each listed once"
                        )
                    if curves.shape != (blocks.size, state.n_alpha) or not ((curves >= 0) & (curves < np.inf)).all():
                        raise ValidationError(
                            f"state cell {rid}/{cell}: curves must be one row of {state.n_alpha} "
                            f"finite, non-negative values per block"
                        )
                    state.ensure(rid, cell)[blocks] = curves
        return state


@dataclass(frozen=True)
class Violation:
    rule_id: str
    stage: str
    cell: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"rule": self.rule_id, "stage": self.stage, "cell": self.cell, "detail": self.detail}


@dataclass(frozen=True)
class Decision:
    accepted: bool
    stage: str
    violations: tuple[Violation, ...] = ()

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "stage": self.stage,
            "violations": [v.to_dict() for v in self.violations],
        }


def check_per_release(
    request: ReleaseRequest,
    per_release_rules: Sequence[Rule],
    orders: Sequence[float] = DEFAULT_ALPHA_ORDERS,
) -> Decision:
    """Stage one: every mechanism's own cost must fit every matching
    per-release rule.  Stateless."""
    violations = []
    for mech in request.mechanisms:
        for rule in per_release_rules:
            if not eval_predicate(rule.predicate, mech.labels):
                continue
            cost = mech.cost_by_unit.get(rule.unit)
            if cost is None:
                raise MissingCost(
                    f"request {request.request_id!r}: no cost for unit {rule.unit!r} "
                    f"required by per-release rule {rule.rule_id!r}"
                )
            if not within_budget(cost.curve, rule.budget, orders):
                violations.append(Violation(rule.rule_id, "per_release"))
    if violations:
        return Decision(False, "per_release", tuple(violations))
    return Decision(True, "per_release")


def match_rules(poset: RulePoset, mechanisms: Sequence[Mechanism]) -> list[frozenset[int]]:
    """Mechanism indices matching each rule, via poset-skipping traversal.

    A rule is only evaluated on mechanisms that matched all of its upper
    covers; anything else is already known false because predicates only
    narrow downwards.
    """
    all_mechs = frozenset(range(len(mechanisms)))
    matches: dict[int, frozenset[int]] = {}
    for i in poset.topo_order():
        covers = poset.upper_cover_indices(i)
        if covers:
            cand = frozenset.intersection(*(matches[c] for c in covers))
        else:
            cand = all_mechs
        rule = poset.rules[i]
        matches[i] = frozenset(
            m for m in cand if eval_predicate(rule.predicate, mechanisms[m].labels)
        )
    return [matches[i] for i in range(len(poset.rules))]


def check_and_commit(
    state: FilterState,
    request: ReleaseRequest,
    poset: RulePoset,
    budget_scale: float = 1.0,
) -> Decision:
    """Stage two: cumulative check of every matching rule on every touched
    (block, time-cell), then an atomic commit on acceptance."""
    sel = request.pa_selection
    if sel.size and sel[-1] >= state.domain.domain_size:
        raise ValidationError(
            f"request {request.request_id!r}: block {int(sel[-1])} outside the domain "
            f"of {state.domain.domain_size} blocks"
        )

    tracked_units = {r.unit for r in poset.rules}
    for mech in request.mechanisms:
        missing = tracked_units - set(mech.cost_by_unit)
        if missing:
            raise MissingCost(
                f"request {request.request_id!r}: mechanism lacks costs for tracked units {sorted(missing)}"
            )

    time_axis = state.domain.time_axis
    matches = match_rules(poset, request.mechanisms)

    plan: list[tuple[str, list[str], np.ndarray]] = []
    violations: list[Violation] = []
    for i, rule in enumerate(poset.rules):
        mech_idx = matches[i]
        if not mech_idx:
            continue
        cost = np.zeros(state.n_alpha)
        for m in mech_idx:
            curve = request.mechanisms[m].cost_by_unit[rule.unit].curve
            if len(curve) != state.n_alpha:
                raise VariantMismatch("cost curve not over the configured alpha orders")
            cost += np.asarray(curve)
        time_based = time_axis is not None and rule.unit == time_axis.unit
        cells = state.cells_for(time_based, request.time_step)
        if sel.size == 0:
            continue
        budget = scale_budget(rule.budget, budget_scale)
        for cell in cells:
            arr = state.array(rule.rule_id, cell)
            rows = cost[None, :] if arr is None else arr[sel] + cost
            if not within_budget(rows, budget, state.orders).all():
                violations.append(Violation(rule.rule_id, "cumulative", cell))
        plan.append((rule.rule_id, cells, cost))

    if violations:
        return Decision(False, "cumulative", tuple(violations))
    for rule_id, cells, cost in plan:
        for cell in cells:
            state.ensure(rule_id, cell)[sel] += cost
    return Decision(True, "accepted")


def headroom(state: FilterState, poset: RulePoset, budget_scale: float = 1.0) -> dict[str, dict]:
    """Per-rule consumed-vs-budget summary over all blocks and cells."""
    out: dict[str, dict] = {}
    for rule in poset.rules:
        budget = scale_budget(rule.budget, budget_scale)
        per_rule = state._cells.get(rule.rule_id, {})
        if isinstance(budget, ADP):
            consumed = 0.0
            for arr in per_rule.values():
                if arr.any():
                    consumed = max(consumed, float(rdp_epsilon(arr, budget.delta, state.orders).max()))
            out[rule.rule_id] = {
                "budget_epsilon": budget.epsilon,
                "consumed_epsilon": consumed,
                "headroom_epsilon": budget.epsilon - consumed,
            }
        elif isinstance(budget, RDP):
            curve = np.asarray(budget.curve)
            used = 0.0
            for arr in per_rule.values():
                with np.errstate(divide="ignore", invalid="ignore"):
                    frac = np.where(curve > 0, arr / curve, np.where(arr > 0, np.inf, 0.0))
                if frac.size:
                    used = max(used, float(frac.min(axis=1).max()))
            out[rule.rule_id] = {"utilization": used}
    return out


class DecisionPoint:
    """Serialized single-writer wrapper around the two enforcement stages."""

    def __init__(
        self,
        poset: RulePoset,
        per_release_rules: Sequence[Rule] = (),
        domain: BlockDomain | None = None,
        orders: Sequence[float] = DEFAULT_ALPHA_ORDERS,
    ):
        self.poset = poset
        self.per_release_rules = tuple(per_release_rules)
        self.state = FilterState(domain or BlockDomain(), orders)

    def process(self, request: ReleaseRequest, budget_scale: float = 1.0) -> Decision:
        first = check_per_release(request, self.per_release_rules, self.state.orders)
        if not first.accepted:
            return first
        return check_and_commit(self.state, request, self.poset, budget_scale)

    def advance_time(self, new_now: int) -> None:
        self.state.collapse_time(new_now)

    def headroom(self, budget_scale: float = 1.0) -> dict[str, dict]:
        return headroom(self.state, self.poset, budget_scale)

"""Shared fixtures: the worked poset example, random rule sets, random traces,
and naive reference engines used as oracles."""

from __future__ import annotations

import json
import math

import numpy as np

from dpwarden.accounting import (
    calibrate_gaussian_rho,
    compose_rdp,
    filter_check,
    gaussian_curve,
    pure_curve,
    scale_budget,
    zero_curve,
)
from dpwarden.core import (
    ADP,
    AttrIntersects,
    BASE_RANKS,
    BASE_TOP,
    DEFAULT_ALPHA_ORDERS,
    LabelSet,
    Mechanism,
    OrderKey,
    PrivacyUnit,
    Provenance,
    RDP,
    ReleaseRequest,
    Rule,
    TruePredicate,
    UnitGraph,
    eval_predicate,
)
from dpwarden.decision import CELL_FUTURE, CELL_HIST, CELL_STATIC, BlockRows, step_cell

ATTR_UNIVERSE = tuple(f"x{i}" for i in range(6))
BUDGET_GRID = (0.5, 1.0, 1.5, 2.0, 3.0)


def hasse_fixture():
    """Seven-rule poset with budgets 7,7,7,5,7,3,5 and cover edges
    (1-2, 1-3, 1-4, 2-5, 2-6, 3-6, 4-7), encoded via annotation tuples."""
    units = UnitGraph([PrivacyUnit("user")])
    coords = {1: (2, 2, 2), 2: (2, 2, 1), 3: (2, 1, 2), 4: (1, 2, 2),
              5: (2, 2, 0), 6: (2, 0, 1), 7: (0, 2, 2)}
    budgets = {1: 7.0, 2: 7.0, 3: 7.0, 4: 5.0, 5: 7.0, 6: 3.0, 7: 5.0}
    rules = [
        Rule(
            f"r{i}",
            TruePredicate(),
            "user",
            ADP(budgets[i], 1e-7),
            Provenance("fixture", i),
            OrderKey(BASE_RANKS, coords[i], (), "user"),
        )
        for i in range(1, 8)
    ]
    return rules, units


def annotated_policy_doc() -> dict:
    """Two custom policies whose order-key annotations claim that team_b's
    scope lies inside team_a's, although their predicates are disjoint."""

    def custom(name, team, annotation, epsilon):
        return {
            "type": "custom",
            "name": name,
            "unit": "user",
            "predicate": {"op": "has_label", "key": "team", "value": team},
            "annotation": annotation,
            "budget": {"kind": "adp", "epsilon": epsilon, "delta": 1e-7},
        }

    return {
        "units": [{"name": "user"}],
        "attributes": [],
        "categories": [],
        "base_policies": [custom("team_a", "a", [2, 2], 10.0), custom("team_b", "b", [1, 1], 1.0)],
        "extension_policies": [],
        "per_release_policies": [],
    }


def team_request_doc(epsilon: float, team: str) -> dict:
    """A Gaussian release at ``epsilon`` on blocks 0 and 1, labelled ``team``."""
    curve = gaussian_curve(calibrate_gaussian_rho(epsilon, 1e-7))
    return {
        "request_id": f"{team}-{epsilon}",
        "mechanisms": [
            {
                "labels": {"team": [team]},
                "cost_by_unit": {"user": {"kind": "rdp", "curve": list(curve.curve)}},
            }
        ],
        "pa_selection": [0, 1],
        "utility": 1.0,
    }


def monthly_policy_doc() -> dict:
    """A user-month rule (ε=3 per month) on releases labelled ``data=time``,
    a global user rule (ε=8) and a per-release cap (ε=4)."""

    def adp(epsilon):
        return {"kind": "adp", "epsilon": epsilon, "delta": 1e-7}

    return {
        "units": [
            {"name": "user", "group_factor_to": {"user-month": 1}},
            {"name": "user-month", "above": ["user"]},
        ],
        "base_policies": [
            {"type": "custom", "name": "global", "unit": "user", "predicate": {"op": "true"},
             "budget": adp(8.0)},
            {"type": "custom", "name": "monthly", "unit": "user-month",
             "predicate": {"op": "has_label", "key": "data", "value": "time"}, "budget": adp(3.0)},
        ],
        "per_release_policies": [
            {"name": "cap", "unit": "user", "predicate": {"op": "true"}, "budget": adp(4.0)},
        ],
    }


def monthly_request_doc(epsilon: float, time_step: int | None, blocks=(0, 1)) -> dict:
    """A Gaussian release at ``epsilon`` labelled ``data=time``, charged to
    both units."""
    curve = {"kind": "rdp", "curve": list(gaussian_curve(calibrate_gaussian_rho(epsilon, 1e-7)).curve)}
    doc = {
        "request_id": f"m{time_step}-{epsilon}",
        "mechanisms": [{"labels": {"data": ["time"]}, "cost_by_unit": {"user": curve, "user-month": curve}}],
        "pa_selection": list(blocks),
        "utility": 1.0,
    }
    if time_step is not None:
        doc["time_step"] = time_step
    return doc


def unit_layout(rng: np.random.Generator) -> UnitGraph:
    pick = rng.integers(3)
    if pick == 0:
        return UnitGraph([PrivacyUnit("user")])
    if pick == 1:
        return UnitGraph([
            PrivacyUnit("user", group_factor_to={"month": 1}),
            PrivacyUnit("month", ord_above=frozenset({"user"})),
        ])
    return UnitGraph([
        PrivacyUnit("user", group_factor_to={"month": 1, "week": 1}),
        PrivacyUnit("month", ord_above=frozenset({"user"})),
        PrivacyUnit("week", ord_above=frozenset({"user"})),
    ])


def unit_multipliers(units: UnitGraph) -> dict[str, float]:
    """Cost multipliers monotone in the unit order: bigger units cost more."""
    names = sorted(units.units)
    return {
        u: 1.0 + 0.25 * sum(1 for v in names if v != u and units.leq(v, u))
        for u in names
    }


def random_rule_set(rng: np.random.Generator, max_rules: int = 12):
    """Rules with attribute-set scopes (order keys consistent with their
    predicates by construction) over a random unit layout."""
    units = unit_layout(rng)
    names = sorted(units.units)
    n = int(rng.integers(3, max_rules + 1))
    rules = []
    for i in range(n):
        unit = names[int(rng.integers(len(names)))]
        budget = ADP(float(rng.choice(BUDGET_GRID)), 1e-7)
        if rng.random() < 0.15:
            predicate = TruePredicate()
            key = OrderKey(BASE_TOP, (), (), unit)
        else:
            size = int(rng.integers(1, 5))
            attrs = frozenset(rng.choice(ATTR_UNIVERSE, size=size, replace=False))
            predicate = AttrIntersects(attrs)
            key = OrderKey("attrs", attrs, (), unit)
        rules.append(Rule(f"r{i}", predicate, unit, budget, Provenance("rand", i), key))
    return rules, units


def random_request(
    rng: np.random.Generator,
    units: UnitGraph,
    rid: str,
    domain_size: int,
    time_steps: tuple[int | None, ...] = (None,),
) -> ReleaseRequest:
    mult = unit_multipliers(units)
    mechs = []
    for _ in range(int(rng.integers(1, 3))):
        n_attrs = int(rng.integers(1, 4))
        attrs = list(rng.choice(ATTR_UNIVERSE, size=n_attrs, replace=False))
        base = gaussian_curve(float(rng.uniform(0.002, 0.02)))
        if rng.random() < 0.5:
            base = compose_rdp([base, pure_curve(float(rng.uniform(0.02, 0.2)))])
        costs = {
            u: RDP(tuple(c * m for c in base.curve))
            for u, m in mult.items()
        }
        mechs.append(Mechanism(LabelSet({"attr": attrs}), costs))
    n_blocks = int(rng.integers(1, min(domain_size, 4) + 1))
    sel = tuple(int(b) for b in rng.choice(domain_size, size=n_blocks, replace=False))
    ts = time_steps[int(rng.integers(len(time_steps)))]
    return ReleaseRequest(rid, tuple(mechs), sel, ts, float(rng.uniform(0, 1)))


def random_trace(
    rng: np.random.Generator,
    units: UnitGraph,
    domain_size: int = 4,
    max_requests: int = 50,
    time_steps: tuple[int | None, ...] = (None,),
) -> list[ReleaseRequest]:
    n = int(rng.integers(5, max_requests + 1))
    return [random_request(rng, units, f"q{i}", domain_size, time_steps) for i in range(n)]


class NaiveEngine:
    """Linear-scan reference: one accumulator per rule, no blocks, no cells.

    Only valid for single-block domains without a time axis; used to check
    the optimized decision point against first-principles filtering.
    """

    def __init__(self, rules):
        self.rules = list(rules)
        self.acc = {r.rule_id: zero_curve() for r in self.rules}

    def process(self, request: ReleaseRequest, budget_scale: float = 1.0) -> bool:
        charges = {}
        for rule in self.rules:
            matching = [
                m for m in request.mechanisms if eval_predicate(rule.predicate, m.labels)
            ]
            if not matching or request.pa_selection.size == 0:
                continue
            cost = compose_rdp([m.cost_by_unit[rule.unit] for m in matching])
            budget = scale_budget(rule.budget, budget_scale)
            if not filter_check(self.acc[rule.rule_id], cost, budget):
                return False
            charges[rule.rule_id] = cost
        for rule_id, cost in charges.items():
            self.acc[rule_id] = compose_rdp([self.acc[rule_id], cost])
        return True


def naive_cells(time_based: bool, time_step, now: int, window: int) -> list[str]:
    """Cell addressing re-derived for replay checks."""
    if not time_based:
        return [CELL_STATIC]
    granular = range(max(0, now - window + 1), now + 1)
    if time_step is None:
        return [CELL_HIST, *(step_cell(s) for s in granular), CELL_FUTURE]
    if time_step in granular:
        return [step_cell(time_step)]
    return [CELL_HIST]


def dense(store) -> np.ndarray:
    """The ``(domain_size, n_alpha)`` array a ``BlockRows`` store stands for:
    every uncharged block reads the zero row of slot 0."""
    return store.rows[store.index]


def place(state, rule_id: str, cell: str, rows, blocks=None) -> None:
    """Give a ``FilterState`` a (rule, cell) store built whole, in which
    block ``blocks[i]`` holds ``rows[i]``; without ``blocks``, every block of
    the domain its row."""
    rows = np.asarray(rows, dtype=float)
    blocks = np.arange(len(rows)) if blocks is None else np.asarray(blocks)
    state._cells.setdefault(rule_id, {})[cell] = BlockRows.from_rows(state.domain.domain_size, blocks, rows)


def dense_cells(state) -> dict[tuple[str, str], np.ndarray]:
    """Every (rule, cell) store of a ``FilterState`` as its dense array."""
    return {
        (rid, cell): dense(store)
        for rid, per_rule in state._cells.items()
        for cell, store in per_rule.items()
    }


def assert_same_state(state, other) -> None:
    """Two filter states hold the same stores, bit for bit, and serialize to
    the same bytes."""
    assert state.now == other.now
    mine, theirs = dense_cells(state), dense_cells(other)
    assert mine.keys() == theirs.keys()
    for key, arr in mine.items():
        assert arr.shape == theirs[key].shape and arr.tobytes() == theirs[key].tobytes(), key
    assert json.dumps(state.to_dict()) == json.dumps(other.to_dict())


def replay_accumulate(rules, accepted, domain, orders=DEFAULT_ALPHA_ORDERS):
    """Recompute per (rule, cell, block) cumulative curves from a list of
    accepted requests, using direct predicate evaluation only."""
    n_alpha = len(orders)
    time_axis = domain.time_axis
    now = time_axis.horizon if time_axis else 0
    window = time_axis.granular_window if time_axis else 0
    acc: dict[tuple[str, str], np.ndarray] = {}
    for request in accepted:
        if request.pa_selection.size == 0:
            continue
        sel = np.asarray(request.pa_selection, dtype=np.intp)
        for rule in rules:
            matching = [
                m for m in request.mechanisms if eval_predicate(rule.predicate, m.labels)
            ]
            if not matching:
                continue
            cost = np.zeros(n_alpha)
            for m in matching:
                cost += np.asarray(m.cost_by_unit[rule.unit].curve)
            time_based = time_axis is not None and rule.unit == time_axis.unit
            for cell in naive_cells(time_based, request.time_step, now, window):
                key = (rule.rule_id, cell)
                if key not in acc:
                    acc[key] = np.zeros((domain.domain_size, n_alpha))
                acc[key][sel] += cost
    return acc


def replay_scope_epsilon(scope, accepted, delta, domain_size, orders=DEFAULT_ALPHA_ORDERS) -> float:
    """Pure-Python replay of one simulator scope over the accepted requests:
    per-block accumulators summed in acceptance order, then the max over all
    blocks of min over alpha of acc + ln(1/delta)/(alpha-1); 0.0 when the
    scope was never charged."""
    acc = [[0.0] * len(orders) for _ in range(domain_size)]
    charged = False
    for request in accepted:
        if scope.month is not None and request.time_step != scope.month:
            continue
        for mech in request.mechanisms:
            cost = mech.cost_by_unit.get(scope.unit)
            if cost is None or not eval_predicate(scope.predicate, mech.labels):
                continue
            for b in request.pa_selection:
                charged = True
                acc[b] = [a + c for a, c in zip(acc[b], cost.curve)]
    if not charged:
        return 0.0
    ln1d = math.log(1.0 / delta)
    return max(min(a + ln1d / (alpha - 1.0) for a, alpha in zip(row, orders)) for row in acc)

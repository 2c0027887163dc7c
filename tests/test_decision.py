import copy
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwarden.accounting import (
    calibrate_gaussian_rho,
    gaussian_curve,
    pure_curve,
    rdp_epsilon,
    scale_budget,
    within_budget,
)
from dpwarden.cli import main
from dpwarden.compiler import compile_policy_set, parse_policy_set
from dpwarden.core import (
    ADP,
    ATTR_KEY,
    And,
    AttrIntersects,
    BASE_ATOMS,
    BASE_ATTRS,
    BASE_RANKS,
    HasLabel,
    LabelSet,
    Mechanism,
    Not,
    Or,
    OrderKey,
    PrivacyUnit,
    Provenance,
    PureDP,
    RDP,
    ReleaseRequest,
    Rule,
    TruePredicate,
    UnitGraph,
    ZCDP,
    eval_predicate,
)
from dpwarden import decision
from dpwarden.decision import (
    _FEW_RUNS,
    BlockDomain,
    BlockRows,
    CELL_FUTURE,
    CELL_HIST,
    CELL_STATIC,
    MAX_WINDOW,
    N_ALPHA,
    DecisionPoint,
    FilterState,
    RuleIndex,
    TimeAxis,
    check_and_commit,
    check_per_release,
    match_rules,
    step_cell,
)
from dpwarden.errors import MissingCost, UnknownTimeStep, ValidationError
from dpwarden.poset import build_poset, prune, prune_with_report
from dpwarden.workload import WorkloadConfig, _Scope

sys.path.insert(0, str(Path(__file__).parent))
from _util import (  # noqa: E402
    NaiveEngine,
    annotated_policy_doc,
    assert_same_state,
    dense,
    dense_cells,
    naive_cells,
    place,
    random_rule_set,
    random_trace,
    team_request_doc,
)


def _user():
    return UnitGraph([PrivacyUnit("user")])


def _mech(labels, curve, units=("user",)):
    return Mechanism(LabelSet(labels), {u: curve for u in units})


def _rule(rule_id, predicate, attrs_key, eps, unit="user"):
    return Rule(rule_id, predicate, unit, ADP(eps, 1e-7), Provenance("t", 0),
                OrderKey(BASE_ATTRS, frozenset(attrs_key), (), unit))


def test_per_release_no_rules_accepts():
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, gaussian_curve(0.01)),), (0,))
    assert check_per_release(req, RuleIndex([])).accepted


def test_per_release_rejects_over_budget_mechanism():
    cost = gaussian_curve(calibrate_gaussian_rho(0.75, 1e-7))
    rule = Rule("cap", TruePredicate(), "user", ADP(0.5, 1e-7), Provenance("pr", 0))
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, cost),), (0,))
    decision = check_per_release(req, RuleIndex([rule]))
    assert not decision.accepted
    assert decision.violations[0].rule_id == "cap"


def test_per_release_predicate_scoping():
    cost = gaussian_curve(calibrate_gaussian_rho(5.0, 1e-7))
    rule = Rule("std_cap", HasLabel("context", "standard"), "user", ADP(0.5, 1e-7),
                Provenance("pr", 0))
    req = ReleaseRequest("q", (_mech({"context": ["blackbox-ml"]}, cost),), (0,))
    assert check_per_release(req, RuleIndex([rule])).accepted


def test_per_release_missing_cost():
    rule = Rule("cap", TruePredicate(), "user-month", ADP(0.5, 1e-7), Provenance("pr", 0))
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, gaussian_curve(0.01)),), (0,))
    with pytest.raises(MissingCost):
        check_per_release(req, RuleIndex([rule]))


def test_decision_point_refuses_two_active_rules_under_one_id():
    """Rule ids key the filter state, so a second rule under one id would
    overwrite the first one's rows at each commit and void its budget."""
    strict = _rule("r1", TruePredicate(), set(), 1.0)
    loose = _rule("r1", HasLabel("context", "standard"), set(), 50.0)
    with pytest.raises(ValidationError, match="duplicate rule id 'r1'"):
        DecisionPoint([strict, loose], domain=BlockDomain((), 1))


@pytest.mark.parametrize("stage", ["active", "per_release"])
@pytest.mark.parametrize("budget", [ZCDP(1.0), PureDP(1.0), ADP(1.0, 0.0)], ids=["zcdp", "pure_dp", "adp_delta_0"])
def test_decision_point_refuses_a_budget_no_filter_can_enforce(stage, budget):
    rule = Rule("cap", TruePredicate(), "user", budget)
    rules, per_release = ([rule], []) if stage == "active" else ([], [rule])
    with pytest.raises(ValidationError, match="rule 'cap'"):
        DecisionPoint(rules, per_release, BlockDomain((), 1))


def _monthly_point(budget_eps=3.0, window=7, horizon=6, blocks=8):
    units = UnitGraph([
        PrivacyUnit("user", group_factor_to={"user-month": 1}),
        PrivacyUnit("user-month", ord_above=frozenset({"user"})),
    ])
    monthly = Rule(
        "monthly", HasLabel("data", "time"), "user-month", ADP(budget_eps, 1e-7),
        Provenance("monthly", 0),
        OrderKey(BASE_ATOMS, frozenset({("data", "time")}), (), "user-month"),
    )
    poset = build_poset([monthly], units)
    domain = BlockDomain(("pa",), blocks, TimeAxis("user-month", window, horizon))
    return DecisionPoint(poset, domain=domain)


def _time_request(rid, month, eps=2.5):
    curve = gaussian_curve(calibrate_gaussian_rho(eps, 1e-7))
    mech = Mechanism(
        LabelSet({"data": ["time"], "attr": ["a1"]}),
        {"user": curve, "user-month": curve},
    )
    return ReleaseRequest(rid, (mech,), (0, 1, 2), month, 1.0)


def test_ledger_is_the_static_store_of_a_rule_off_the_time_axis():
    """A scope shares a rule's store only when the rule's predicate equals
    its own up to ``and(..., true)``, the units are equal, and the unit is
    not the time axis's, whose rules keep one store per time cell."""
    standard = HasLabel("context", "standard")
    rules = [
        Rule("global", TruePredicate(), "user", ADP(10.0, 1e-7)),
        Rule("standard", And((standard, TruePredicate())), "user", ADP(3.0, 1e-7)),
        Rule("monthly", HasLabel("data", "time"), "user-month", ADP(3.0, 1e-7)),
    ]
    point = DecisionPoint(rules, domain=BlockDomain(("pa",), 8, TimeAxis("user-month", 7, 6)))
    assert point.ledger(TruePredicate(), "user") is point.state.array("global", CELL_STATIC)
    assert point.ledger(standard, "user") is point.state.array("standard", CELL_STATIC)
    assert point.ledger(standard, "user-month") is None
    assert point.ledger(HasLabel("data", "time"), "user-month") is None
    assert point.ledger(HasLabel("context", "other"), "user") is None
    # the commit charges the very store a scope reads
    store = point.ledger(TruePredicate(), "user")
    mech = _mech({"context": ["standard"]}, pure_curve(0.5), ("user", "user-month"))
    req = ReleaseRequest("q", (mech,), (0, 1))
    assert point.process(req).accepted
    assert dense(store)[[0, 1]].tolist() == [list(pure_curve(0.5).curve)] * 2


def test_plans_are_made_once_whatever_the_time_axis(monkeypatch):
    """``dpwarden check`` builds its decision point without a time axis and
    then swaps in the state it loads, which may have one: the plans do not
    depend on the axis, so each index refuses unenforceable budgets once."""
    rules = _monthly_point().index.rules
    calls = []

    def counting_check_enforceable(rules):
        calls.append(tuple(rules))

    monkeypatch.setattr(decision, "check_enforceable", counting_check_enforceable)
    point = DecisionPoint(rules, (_rule("cap", TruePredicate(), set(), 100.0),), BlockDomain(("pa",), 8))
    assert len(calls) == 2
    point.state = FilterState(BlockDomain(("pa",), 8, TimeAxis("user-month", 3, 6)))
    assert point.process(_time_request("q1", None, eps=1.0)).accepted
    assert point.process(_time_request("q2", 6, eps=1.0)).accepted
    assert len(calls) == 2
    # the swapped-in axis decides the cells: a request without a step charges them all
    assert set(point.state._cells["monthly"]) == {CELL_HIST, "t4", "t5", "t6", CELL_FUTURE}


def test_a_window_past_the_bound_is_refused():
    TimeAxis("m", MAX_WINDOW, MAX_WINDOW)
    with pytest.raises(ValidationError, match="granular window"):
        TimeAxis("m", MAX_WINDOW + 1)
    doc = {"now": 0, "domain": BlockDomain(("pa",), 1).to_dict(), "cells": {}}
    doc["domain"]["time_axis"] = {"unit": "m", "granular_window": MAX_WINDOW + 1, "horizon": 0}
    with pytest.raises(ValidationError, match="granular window"):
        FilterState.from_dict(doc)


def test_parallel_composition_across_months():
    point = _monthly_point()
    assert point.process(_time_request("q1", 5)).accepted
    assert point.process(_time_request("q2", 6)).accepted


def test_sequential_composition_within_month_rejects():
    point = _monthly_point()
    assert point.process(_time_request("q1", 6)).accepted
    decision = point.process(_time_request("q2", 6))
    assert not decision.accepted
    assert decision.violations[0].rule_id == "monthly"
    assert decision.violations[0].cell == step_cell(6)
    # a different month still has room
    assert point.process(_time_request("q3", 5)).accepted


def test_time_step_beyond_horizon_errors():
    point = _monthly_point(horizon=6)
    with pytest.raises(UnknownTimeStep):
        point.process(_time_request("q", 7))


def test_request_without_time_step_charges_all_cells():
    point = _monthly_point(window=3, horizon=6)
    curve = gaussian_curve(calibrate_gaussian_rho(1.0, 1e-7))
    mech = Mechanism(LabelSet({"data": ["time"]}), {"user": curve, "user-month": curve})
    req = ReleaseRequest("q", (mech,), (0,), None, 1.0)
    assert point.process(req).accepted
    state = point.state
    cells = set(state._cells["monthly"])
    assert cells == {CELL_HIST, "t4", "t5", "t6", "future"}


def test_missing_tracked_unit_cost_errors():
    point = _monthly_point()
    curve = gaussian_curve(0.01)
    mech = Mechanism(LabelSet({"data": ["time"]}), {"user": curve})
    req = ReleaseRequest("q", (mech,), (0,), 6, 1.0)
    with pytest.raises(MissingCost):
        point.process(req)


def test_out_of_range_block_fails_closed():
    point = _monthly_point(blocks=8)
    assert point.process(_time_request("q1", 6)).accepted
    cells = {rid: set(per_rule) for rid, per_rule in point.state._cells.items()}
    before = json.dumps(point.state.to_dict())
    curve = gaussian_curve(0.001)
    mech = Mechanism(LabelSet({"data": ["time"]}), {"user": curve, "user-month": curve})
    for month in (6, 5, None):
        with pytest.raises(ValidationError):
            point.process(ReleaseRequest("q", (mech,), (3, 8), month, 1.0))
    assert {rid: set(per_rule) for rid, per_rule in point.state._cells.items()} == cells
    assert json.dumps(point.state.to_dict()) == before


def test_collapse_examples():
    domain = BlockDomain(("pa",), 2, TimeAxis("m", 7, 9))
    state = FilterState(domain)
    c1 = np.array([gaussian_curve(0.01).curve] * 2)
    c2 = np.array([gaussian_curve(0.02).curve] * 2)

    # advancing by one with an empty oldest step leaves the interval alone
    place(state, "r", step_cell(9), c1)
    state.collapse_time(10)
    assert state.array("r", CELL_HIST) is None

    # absorbing a step into an empty interval copies the curve
    state2 = FilterState(domain)
    place(state2, "r", step_cell(3), c1)
    state2.collapse_time(10)
    assert dense(state2.array("r", CELL_HIST)).tobytes() == c1.tobytes()

    # absorbing two steps takes the pointwise maximum
    state3 = FilterState(domain)
    first = c1.copy()
    first[0, 0] = 99.0
    place(state3, "r", step_cell(3), first)
    place(state3, "r", step_cell(4), c2)
    state3.collapse_time(11)
    merged = dense(state3.array("r", CELL_HIST))
    assert merged[0, 0] == 99.0
    assert merged.tobytes() == np.maximum(first, c2).tobytes()
    assert np.array_equal(merged[1], c2[1])

    # a step charged on one block only leaves the other block's row alone
    state4 = FilterState(domain)
    place(state4, "r", CELL_HIST, c1)
    place(state4, "r", step_cell(3), c2[1:], [1])
    state4.collapse_time(10)
    assert dense(state4.array("r", CELL_HIST)).tobytes() == np.array([c1[0], c2[1]]).tobytes()


def test_release_over_all_time_charges_steps_that_open_later():
    point = _monthly_point(budget_eps=1.0, window=2, horizon=2)
    assert point.process(_time_request("all", None, eps=0.8)).accepted
    point.state.collapse_time(3)
    assert not point.process(_time_request("q3", 3, eps=0.8)).accepted
    # a long jump opens only the window; the steps it skips reach hist
    point.state.collapse_time(9)
    assert set(point.state._cells["monthly"]) == {CELL_HIST, step_cell(8), step_cell(9), CELL_FUTURE}
    for month in (5, 9):
        assert not point.process(_time_request(f"q{month}", month, eps=0.8)).accepted

def test_collapse_monotone_never_forgets():
    rng = np.random.default_rng(5)
    domain = BlockDomain(("pa",), 4, TimeAxis("m", 3, 6))
    state = FilterState(domain)
    steps = {}
    for step in range(7):
        steps[step] = rng.uniform(0, 1, size=(4, N_ALPHA))
        place(state, "r", step_cell(step), steps[step])
    before = state.array("r", CELL_HIST)
    before = np.zeros((4, N_ALPHA)) if before is None else dense(before)
    state.collapse_time(9)
    after = dense(state.array("r", CELL_HIST))
    assert (after >= before - 1e-15).all()
    # steps 0..6 all left the window [7, 9]: hist is their pointwise max
    assert after.tobytes() == np.maximum.reduce(list(steps.values())).tobytes()
    assert state.now == 9
    with pytest.raises(Exception):
        state.collapse_time(5)


def test_poset_skipping_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rules, units = random_rule_set(rng)
        poset = build_poset(rules, units)
        reqs = random_trace(rng, units, max_requests=5)
        for req in reqs:
            got = match_rules(RuleIndex(poset.rules), req.mechanisms)
            for i, rule in enumerate(poset.rules):
                direct = frozenset(
                    m for m, mech in enumerate(req.mechanisms)
                    if rule.predicate.matches(mech.labels)
                )
                assert got[i] == direct


def _random_ranks(rng, rules):
    """The same rules under random annotation order keys: an admin's claim
    of scope containment that need not agree with the predicates."""
    return [
        dataclasses.replace(
            r, order_key=OrderKey(BASE_RANKS, tuple(int(x) for x in rng.integers(0, 3, size=2)), (), r.unit)
        )
        for r in rules
    ]


def test_matches_naive_single_block_engine():
    rng = np.random.default_rng(12)
    key_rng = np.random.default_rng(14)
    for _ in range(60):
        rules, units = random_rule_set(rng)
        trace = random_trace(rng, units, domain_size=1, max_requests=30)
        for keyed in (rules, _random_ranks(key_rng, rules)):
            point = DecisionPoint(build_poset(keyed, units), domain=BlockDomain((), 1))
            naive = NaiveEngine(rules)
            for req in trace:
                assert point.process(req).accepted == naive.process(req)


_label_names = st.sampled_from(["a", "b", "c"])
_label_keys = st.sampled_from([ATTR_KEY, "context", "k"])
# the indexed atoms, an empty attribute set among them, alone or under
# And / Or / Not fallbacks nested a few levels deep
_atoms = st.one_of(
    st.just(TruePredicate()),
    st.builds(HasLabel, _label_keys, _label_names),
    st.builds(AttrIntersects, st.frozensets(_label_names, max_size=3)),
)
_predicates = st.one_of(
    _atoms,
    st.recursive(
        _atoms,
        lambda inner: st.one_of(
            st.builds(And, st.lists(inner, max_size=3).map(tuple)),
            st.builds(Or, st.lists(inner, max_size=3).map(tuple)),
            st.builds(Not, inner),
        ),
        max_leaves=6,
    ),
)
# an empty attribute set leaves the attr key out
_label_sets = st.builds(
    lambda attrs, others: LabelSet({ATTR_KEY: attrs, **others}),
    st.frozensets(_label_names, max_size=3),
    st.dictionaries(st.sampled_from(["context", "k"]), st.frozensets(_label_names, max_size=3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(predicates=st.lists(_predicates, max_size=8), label_sets=st.lists(_label_sets, max_size=4))
def test_rule_index_matches_flat_evaluation(predicates, label_sets):
    """Rules and simulator scopes alike: the index finds exactly the
    mechanisms whose labels satisfy each predicate."""
    mechanisms = [Mechanism(labels, {}) for labels in label_sets]
    cfg = WorkloadConfig(pa_domain_size=4, pa_range_unit=4)
    for items in (
        [Rule(f"r{i}", p, "user", ADP(1.0, 1e-7)) for i, p in enumerate(predicates)],
        [_Scope(f"s{i}", p, "user", None, cfg) for i, p in enumerate(predicates)],
    ):
        want = [
            frozenset(m for m, mech in enumerate(mechanisms) if item.predicate.matches(mech.labels))
            for item in items
        ]
        assert RuleIndex(items).match(mechanisms) == want


# an atom conjoined with `true` parts, as extensions conjoin predicates
_conjunctions = st.builds(
    lambda before, atom, after: And((TruePredicate(),) * before + (atom,) + (TruePredicate(),) * after),
    st.integers(0, 2),
    st.one_of(st.builds(HasLabel, _label_keys, _label_names),
              st.builds(AttrIntersects, st.frozensets(_label_names, max_size=3))),
    st.integers(0, 2),
) | st.integers(0, 3).map(lambda n: And((TruePredicate(),) * n))


@settings(max_examples=300, deadline=None)
@given(conjunctions=st.lists(_conjunctions, min_size=1, max_size=6),
       others=st.lists(_predicates, max_size=4),
       label_sets=st.lists(_label_sets, min_size=1, max_size=4))
def test_rule_index_buckets_an_atom_conjoined_with_true(conjunctions, others, label_sets):
    """An ``And`` of ``true`` parts and at most one indexed atom needs no
    evaluation on a label set, and still matches as ``eval_predicate`` does."""
    predicates = [*conjunctions, *others]
    index = RuleIndex([Rule(f"r{i}", p, "user", ADP(1.0, 1e-7)) for i, p in enumerate(predicates)])
    assert all(i >= len(conjunctions) for i in index._fallback)
    for labels in label_sets:
        assert index.matching(labels) == {i for i, p in enumerate(predicates) if eval_predicate(p, labels)}


@settings(max_examples=150, deadline=None)
@given(
    rules=st.lists(st.tuples(_predicates, st.sampled_from([0.05, 0.1, 0.3])), min_size=1, max_size=6),
    trace=st.lists(
        st.lists(st.tuples(_label_sets, st.sampled_from([0.002, 0.01, 0.03])), min_size=1, max_size=3),
        max_size=12,
    ),
)
def test_indexed_decision_point_matches_naive_engine(rules, trace):
    """Random predicates, fallbacks included, decide as the flat-evaluating
    single-block engine does, request by request."""
    rules = [Rule(f"r{i}", p, "user", ADP(eps, 1e-7)) for i, (p, eps) in enumerate(rules)]
    point = DecisionPoint(rules, domain=BlockDomain((), 1))
    naive = NaiveEngine(rules)
    for j, mechs in enumerate(trace):
        request = ReleaseRequest(
            f"q{j}", tuple(Mechanism(labels, {"user": gaussian_curve(rho)}) for labels, rho in mechs), [0]
        )
        assert point.process(request).accepted == naive.process(request)


_DENSE_DOMAIN = 24
_DENSE_AXIS = TimeAxis("m", 2, 3)  # granular steps 2 and 3, then hist and future


class _DenseReference:
    """The cumulative check from first principles: one dense
    ``(domain, N_ALPHA)`` array per (rule, cell), costs composed with ``+=``
    in mechanism order, verdicts from ``accounting.within_budget``."""

    def __init__(self, rules):
        self.rules = rules
        self.acc: dict[tuple[str, str], np.ndarray] = {}

    def process(self, request, budget_scale):
        """The violations, as (rule, stage, cell), or the error type the
        request must raise; an accepted request is charged."""
        sel = request.pa_selection
        if sel.size and sel[-1] >= _DENSE_DOMAIN:
            return ValidationError
        charges, violations = [], []
        for rule in self.rules:
            matching = [m for m in request.mechanisms if eval_predicate(rule.predicate, m.labels)]
            if not matching:
                continue
            time_based = rule.unit == _DENSE_AXIS.unit
            if time_based and request.time_step is not None and request.time_step > _DENSE_AXIS.horizon:
                return UnknownTimeStep
            if not sel.size:
                continue
            cost = np.zeros(N_ALPHA)
            for m in matching:
                cost += m.cost_by_unit[rule.unit].curve
            budget = scale_budget(rule.budget, budget_scale)
            for cell in naive_cells(time_based, request.time_step, _DENSE_AXIS.horizon,
                                    _DENSE_AXIS.granular_window):
                arr = self.acc.get((rule.rule_id, cell), np.zeros((_DENSE_DOMAIN, N_ALPHA)))
                composed = arr[sel] + cost
                if not within_budget(composed, budget).all():
                    violations.append((rule.rule_id, "cumulative", cell))
                charges.append(((rule.rule_id, cell), arr, composed))
        if not violations:
            for key, arr, composed in charges:
                arr[sel] = composed
                self.acc[key] = arr
        return violations


_dense_budgets = st.one_of(
    st.floats(0.5, 8.0).map(lambda eps: ADP(eps, 1e-7)),
    st.floats(0.02, 0.5).map(lambda rho: RDP(gaussian_curve(rho).curve)),
)


@st.composite
def _dense_requests(draw, rid):
    mechanisms = []
    for _ in range(draw(st.integers(1, 3))):
        attrs = draw(st.lists(st.sampled_from(["a1", "a2", "a3"]), min_size=1, max_size=2, unique=True))
        rho = draw(st.floats(0.001, 0.1))
        mechanisms.append(Mechanism(LabelSet({"attr": attrs}), {
            "user": gaussian_curve(rho),
            "m": pure_curve(rho),
        }))
    # a few ranges, so a selection crosses several runs of the classes made
    ranges = draw(st.lists(st.tuples(st.integers(0, _DENSE_DOMAIN - 1), st.integers(1, 9)), max_size=3))
    blocks = {b for start, length in ranges for b in range(start, min(start + length, _DENSE_DOMAIN))}
    if draw(st.integers(0, 15)) == 0:
        blocks.add(_DENSE_DOMAIN)  # outside the domain
    time_step = draw(st.sampled_from([None, None, 0, 2, 3, 4]))  # 4 is past the frontier
    return ReleaseRequest(rid, tuple(mechanisms), sorted(blocks), time_step), draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(budgets=st.lists(_dense_budgets, min_size=4, max_size=4), data=st.data())
def test_check_matches_a_dense_per_block_reference(budgets, data):
    """Request by request, ``DecisionPoint.process`` gives the dense
    reference's verdict, violations and state; a rejected or erroring
    request leaves ``state.to_dict()`` byte-identical."""
    rules = [
        Rule("all", TruePredicate(), "user", budgets[0]),
        Rule("a1", AttrIntersects(frozenset({"a1"})), "user", budgets[1]),
        Rule("month", AttrIntersects(frozenset({"a2", "a3"})), "m", budgets[2]),
        Rule("month.a3", HasLabel("attr", "a3"), "m", budgets[3]),
    ]
    point = DecisionPoint(rules, domain=BlockDomain(("pa",), _DENSE_DOMAIN, _DENSE_AXIS))
    reference = _DenseReference(rules)
    for j in range(data.draw(st.integers(1, 25))):
        request, scale = data.draw(_dense_requests(f"q{j}"))
        before = json.dumps(point.state.to_dict())
        want = reference.process(request, scale)
        if isinstance(want, type):
            with pytest.raises(want):
                point.process(request, scale)
            assert json.dumps(point.state.to_dict()) == before
            continue
        decision = point.process(request, scale)
        assert decision.accepted == (not want)
        assert [(v.rule_id, v.stage, v.cell) for v in decision.violations] == want
        if want:
            assert json.dumps(point.state.to_dict()) == before
        got = dense_cells(point.state)
        assert got.keys() == reference.acc.keys()
        for key, arr in reference.acc.items():
            assert got[key].tobytes() == arr.tobytes(), key


def test_annotated_order_does_not_exempt_a_rule_from_its_check():
    policy = parse_policy_set(annotated_policy_doc())
    poset = prune(build_poset(compile_policy_set(policy), policy.unit_graph()))
    assert [r.rule_id for r in poset.rules] == ["team_a", "team_b"]
    point = DecisionPoint(poset, domain=BlockDomain((), 4))
    decision = point.process(ReleaseRequest.from_dict(team_request_doc(5.0, "b")))
    assert not decision.accepted
    assert [v.rule_id for v in decision.violations] == ["team_b"]
    assert point.state.to_dict()["cells"] == {}
    assert point.process(ReleaseRequest.from_dict(team_request_doc(5.0, "a"))).accepted


def test_an_annotation_alone_cannot_prune_a_rule_whose_scope_it_does_not_cover():
    doc = annotated_policy_doc()
    team_a, team_b = doc["base_policies"]
    team_a["budget"]["epsilon"], team_b["budget"]["epsilon"] = 1.0, 10.0
    policy = parse_policy_set(doc)
    sub, records = prune_with_report(build_poset(compile_policy_set(policy), policy.unit_graph()))
    assert [r.rule_id for r in sub.rules] == ["team_a", "team_b"]
    assert records == []
    point = DecisionPoint(sub, domain=BlockDomain((), 4))
    for _ in range(3):
        decision = point.process(ReleaseRequest.from_dict(team_request_doc(50.0, "b")))
        assert not decision.accepted
        assert [v.rule_id for v in decision.violations] == ["team_b"]
    assert point.state.to_dict()["cells"] == {}


def test_reject_leaves_state_bit_identical_and_replayable():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rules, units = random_rule_set(rng)
        poset = build_poset(rules, units)
        point = DecisionPoint(poset, domain=BlockDomain(("pa",), 4))
        accepted = []
        for req in random_trace(rng, units, domain_size=4, max_requests=40):
            snapshot = copy.deepcopy(point.state)
            if point.process(req).accepted:
                accepted.append(req)
            else:
                assert_same_state(point.state, snapshot)
        replay = DecisionPoint(poset, domain=BlockDomain(("pa",), 4))
        for req in accepted:
            assert replay.process(req).accepted
        assert_same_state(replay.state, point.state)


def test_empty_selection_accepts_without_charging():
    units = _user()
    rule = _rule("r", AttrIntersects(frozenset({"a1"})), {"a1"}, 0.01)
    point = DecisionPoint(build_poset([rule], units), domain=BlockDomain((), 4))
    big = gaussian_curve(calibrate_gaussian_rho(5.0, 1e-7))
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, big),), ())
    assert point.process(req).accepted
    assert point.state._cells == {}


def test_budget_scale_throttles():
    units = _user()
    rule = _rule("r", TruePredicate(), set(), 1.0)
    rule = Rule("r", TruePredicate(), "user", ADP(1.0, 1e-7), Provenance("t", 0),
                OrderKey("top", (), (), "user"))
    poset = build_poset([rule], units)
    point = DecisionPoint(poset, domain=BlockDomain((), 1))
    cost = gaussian_curve(calibrate_gaussian_rho(0.8, 1e-7))
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, cost),), (0,))
    assert not point.process(req, budget_scale=0.5).accepted
    for scale in (1.5, float("inf"), float("nan"), -0.5):
        with pytest.raises(ValidationError):
            point.process(req, budget_scale=scale)
    assert point.state._cells == {}
    assert point.process(req, budget_scale=1.0).accepted


def test_state_serialization_round_trip():
    point = _monthly_point()
    point.process(_time_request("q1", 6))
    point.process(_time_request("q2", 5))
    payload = json.loads(json.dumps(point.state.to_dict()))
    restored = FilterState.from_dict(payload)
    # JSON floats round-trip exactly
    assert_same_state(restored, point.state)
    assert dense_cells(restored)
    # a decision made on the restored state matches one on the original
    fresh_poset = point.poset
    d1 = check_and_commit(point.state, _time_request("q3", 6), fresh_poset)
    d2 = check_and_commit(restored, _time_request("q3", 6), fresh_poset)
    assert d1.accepted == d2.accepted


def _state_doc(blocks, curves, domain_size=4):
    return {
        "now": 0,
        "domain": BlockDomain(("pa",), domain_size).to_dict(),
        "cells": {"r": {"static": {"blocks": blocks, "curves": curves}}},
    }


_ROW = list(gaussian_curve(0.01).curve)


def test_state_load_places_each_curve_at_its_block():
    state = FilterState.from_dict(_state_doc([3, 0], [_ROW, [2 * c for c in _ROW]]))
    arr = dense(state.array("r", "static"))
    assert arr.tolist() == [[2 * c for c in _ROW], [0.0] * len(_ROW), [0.0] * len(_ROW), _ROW]


@pytest.mark.parametrize(
    "blocks, curves",
    [
        ([4], [_ROW]),                      # block == domain_size
        ([7], [_ROW]),                      # block beyond the domain
        ([-1], [_ROW]),                     # would load into the last block
        ([2**70], [_ROW]),
        ([1.0], [_ROW]),
        (["0"], [_ROW]),
        ([[0]], [_ROW]),
        ([0], [[0.1, 0.2, 0.3]]),           # curve not over the orders
        ([0], [_ROW[:-1] + [float("nan")]]),
        ([0], [_ROW[:-1] + [float("inf")]]),
        ([0], [_ROW[:-1] + [-0.5]]),
        ([0], [_ROW[:-1] + ["x"]]),
        ([0, 1], [_ROW]),                   # fewer curves than blocks
        ([0], [_ROW, _ROW]),                # more curves than blocks
        ([True, 2], [_ROW, _ROW]),          # numpy reads a bool among ints as 0 or 1
        ([1, 1], [_ROW, [2 * c for c in _ROW]]),  # a duplicate would keep the last curve
        ([], [_ROW]),                       # a curve without a block
        ([], [[]]),                         # an empty row without a block
        ([[]], []),                         # no block, but not listed flat
    ],
)
def test_state_load_fails_closed(blocks, curves):
    with pytest.raises(ValidationError):
        FilterState.from_dict(json.loads(json.dumps(_state_doc(blocks, curves))))


@pytest.mark.parametrize("charged", [False, True])
def test_state_load_reads_an_empty_cell_as_no_charge(charged):
    doc = _state_doc([], [])
    if charged:  # beside a charged cell, so the text has a "curves" array to cut
        doc["cells"]["r2"] = {"static": {"blocks": [1], "curves": [_ROW]}}
    text = json.dumps(doc)
    for state in (FilterState.from_dict(json.loads(text)), FilterState.from_json(text)):
        assert state.array("r", CELL_STATIC) is None  # no store, so none is written back
        assert list(state.to_dict()["cells"]) == (["r2"] if charged else [])


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["cells"]["r"]["static"].pop("curves"),
        lambda doc: doc.pop("domain"),
        lambda doc: doc.update(now="x"),
        lambda doc: doc["domain"].update(domain_size=None),
        lambda doc: doc.update(cels=doc.pop("cells")),  # a typo would reset the budget
        lambda doc: doc["cells"]["r"].update(bogus=doc["cells"]["r"]["static"]),
        lambda doc: doc["cells"]["r"].update(t0=doc["cells"]["r"]["static"]),  # no time axis
        lambda doc: (  # beyond the frontier
            doc["domain"].update(time_axis={"unit": "m", "granular_window": 3, "horizon": 6}),
            doc.update(now=6),
            doc["cells"]["r"].update(t9=doc["cells"]["r"]["static"]),
        ),
        lambda doc: doc["domain"].update(time_axis={"unit": 5, "granular_window": 3, "horizon": 0}),
        lambda doc: doc["domain"].update(time_axis={"unit": ["m"], "granular_window": 3, "horizon": 0}),
        lambda doc: doc.update(now=-1),
        lambda doc: (  # behind the horizon a fresh state starts at
            doc["domain"].update(time_axis={"unit": "m", "granular_window": 3, "horizon": 6}),
            doc.update(now=5),
        ),
    ],
)
def test_state_load_rejects_missing_or_mistyped_fields(edit):
    doc = _state_doc([0], [_ROW])
    edit(doc)
    with pytest.raises(ValidationError):
        FilterState.from_dict(doc)


@pytest.mark.parametrize("field", ["domain_size", "granular_window", "horizon", "now"])
@pytest.mark.parametrize("value", [2048.9, 6.0, True, False, "64", None])
def test_state_load_refuses_a_count_that_is_not_an_integer(field, value):
    """``int()`` would read 2048.9 as 2048, true as 1 and "64" as 64."""
    doc = _state_doc([0], [_ROW])
    doc["domain"]["time_axis"] = {"unit": "m", "granular_window": 3, "horizon": 6}
    doc["now"] = 6
    holder = {"domain_size": doc["domain"], "now": doc}.get(field, doc["domain"]["time_axis"])
    holder[field] = value
    with pytest.raises(ValidationError):
        FilterState.from_dict(json.loads(json.dumps(doc)))


def _wide_window_doc(cells: dict) -> dict:
    """A state at ``now`` = ``granular_window`` = ``MAX_WINDOW``, the widest
    window, whose granular steps are 1 to ``MAX_WINDOW``."""
    return {
        "now": MAX_WINDOW,
        "domain": {"partitioning_attributes": ["pa"], "domain_size": 4,
                   "time_axis": {"unit": "m", "granular_window": MAX_WINDOW, "horizon": 0}},
        "cells": {"r": {cell: {"blocks": [0], "curves": [_ROW]} for cell in cells}},
    }


def test_state_load_names_no_step_it_does_not_read(monkeypatch):
    """Loading checks each cell name against the granular window by its
    step, so a wide window costs no work on load: no cell, no name made,
    and at most one name per cell."""
    calls = []

    def counting_step_cell(step):
        calls.append(step)
        return step_cell(step)

    monkeypatch.setattr(decision, "step_cell", counting_step_cell)
    FilterState.from_dict(_wide_window_doc([]))
    assert calls == []
    cells = [CELL_STATIC, CELL_HIST, CELL_FUTURE, "t1", step_cell(MAX_WINDOW)]
    state = FilterState.from_dict(_wide_window_doc(cells))
    assert len(calls) <= len(cells)
    assert sorted(state._cells["r"]) == sorted(cells)


@pytest.mark.parametrize("cell", ["t0", "t100001", "t07", "t+7", "t-1", "t", "t\u0663", "T5", "t5 "])
def test_state_load_refuses_a_step_outside_the_window_or_not_named_as_itself(cell):
    """A step before the window or past the frontier is refused, and so is
    a name that reads as a step but is not that step's name (``t07``)."""
    with pytest.raises(ValidationError):
        FilterState.from_dict(_wide_window_doc([cell]))


def test_a_domain_too_large_to_index_fails_before_the_state_changes():
    state = FilterState.from_dict(
        {"now": 0, "domain": BlockDomain(("pa",), 10**15).to_dict(), "cells": {}}
    )
    point = DecisionPoint(build_poset([_rule("r", TruePredicate(), set(), 1.0)], _user()))
    point.state = state
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, gaussian_curve(0.01)),), (0, 5))
    with pytest.raises(ValidationError, match="too large"):
        point.process(req)
    assert state.to_dict()["cells"] == {} and state._cells == {}


def test_headroom_reports_consumption():
    point = _monthly_point()
    point.process(_time_request("q1", 6, eps=2.0))
    room = point.headroom()["monthly"]
    assert room["budget_epsilon"] == pytest.approx(3.0)
    assert room["consumed_epsilon"] == pytest.approx(2.0, abs=1e-6)
    assert room["headroom_epsilon"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("scale", [-1.0, float("nan")])
def test_headroom_refuses_a_negative_or_nan_scale(scale):
    point = _monthly_point()
    point.process(_time_request("q1", 6, eps=2.0))
    with pytest.raises(ValidationError):
        decision.headroom(point.state, point.index, scale)


# ---------------------------------------------------------------------------
# The state file codec against json.dumps / json.loads
# ---------------------------------------------------------------------------

_CODEC_DOMAIN = 8
# integral floats, the smallest subnormal, a huge value, and -0.0 beside 0.0
_codec_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 5e-324, 1e300, 0.1, 1e-05]),
    st.floats(0.0, 10.0),
)
_codec_rows = st.lists(_codec_values, min_size=N_ALPHA, max_size=N_ALPHA)
# rule ids that JSON escapes, or that end in "curves" like the key the decoder cuts at
_codec_rule_ids = st.sampled_from(["r", "r2", "curves", 'x"curves', "é", "a\\b"])


@st.composite
def _codec_states(draw):
    timed = draw(st.booleans())
    axis = TimeAxis("m", 2, 3) if timed else None
    state = FilterState(BlockDomain(("pa",), _CODEC_DOMAIN, axis))
    cells = [CELL_HIST, CELL_FUTURE, step_cell(2), step_cell(3)] if timed else [CELL_STATIC]
    pool = draw(st.lists(_codec_rows, min_size=1, max_size=3))  # few rows, so rows repeat
    for rid in draw(st.lists(_codec_rule_ids, max_size=3, unique=True)):
        for cell in draw(st.lists(st.sampled_from(cells), max_size=len(cells), unique=True)):
            blocks = draw(st.lists(st.integers(0, _CODEC_DOMAIN - 1), max_size=_CODEC_DOMAIN, unique=True))
            rows = [draw(st.one_of(st.sampled_from(pool), _codec_rows)) for _ in blocks]
            if blocks:
                place(state, rid, cell, rows, blocks)
    return state


def _integral_as_int(doc):
    """The document with every integral float of its curves written as an int."""
    for per_rule in doc["cells"].values():
        for payload in per_rule.values():
            payload["curves"] = [[int(v) if v.is_integer() else v for v in row] for row in payload["curves"]]
    return doc


def _duplicate_first_cell(doc):
    """``json.dumps(doc)`` with its first cell listed twice, another payload
    first; ``json.loads`` keeps the last."""
    text = json.dumps(doc)
    if not doc["cells"]:
        return text
    rid, per_rule = next(iter(doc["cells"].items()))
    head = f'"cells": {{{json.dumps(rid)}: {{'
    decoy = {"blocks": [0], "curves": [[1.0] * N_ALPHA]}
    return text.replace(head, f"{head}{json.dumps(next(iter(per_rule)))}: {json.dumps(decoy)}, ", 1)


def _loads_alike(text):
    """``from_json`` reads what ``from_dict(json.loads(...))`` reads, or
    refuses what it refuses."""
    try:
        expected = FilterState.from_dict(json.loads(text))
    except ValidationError:
        with pytest.raises(ValidationError):
            FilterState.from_json(text)
        return
    assert json.dumps(FilterState.from_json(text).to_dict()) == json.dumps(expected.to_dict())


@settings(max_examples=150, deadline=None)
@given(state=_codec_states())
def test_state_codec_matches_json(state):
    text = state.to_json()
    assert text == json.dumps(state.to_dict())
    doc = state.to_dict()
    for variant in (
        text,
        json.dumps(doc, indent=2),
        json.dumps(_integral_as_int(state.to_dict())),
        re.sub(r"(\d)e([-+]?\d)", r"\1E\2", text),
        _duplicate_first_cell(doc),
    ):
        _loads_alike(variant)
    assert FilterState.from_json(text).to_json() == text


@pytest.mark.parametrize("value", ["NaN", "1e400", "Infinity"])
def test_state_codec_refuses_a_non_finite_curve_on_both_paths(value):
    state = FilterState(BlockDomain(("pa",), 4))
    place(state, "r", CELL_STATIC, [_ROW, _ROW], [0, 2])
    text = state.to_json()
    first = json.dumps(_ROW[0])
    assert text.count(first) >= 2
    bad = text.replace(first, value, 1)
    with pytest.raises(ValidationError):
        FilterState.from_dict(json.loads(bad))
    with pytest.raises(ValidationError):
        FilterState.from_json(bad)


@pytest.mark.parametrize("value", ["1.5", True, False])
def test_state_load_refuses_a_curve_value_that_is_not_a_number(value):
    """numpy would read "1.5" as 1.5 and true as 1.0."""
    doc = _state_doc([0, 2], [_ROW, [value] + _ROW[1:]])
    with pytest.raises(ValidationError, match="JSON numbers"):
        FilterState.from_dict(doc)
    for text in (json.dumps(doc), json.dumps(doc, indent=2)):
        with pytest.raises(ValidationError, match="JSON numbers"):
            FilterState.from_json(text)


def _one_cell_text(curves='[[1.5, 2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]',
                   domain_extra="", cell_extra="", blocks="[1]", size=4):
    return (
        f'{{"now": 0, "domain": {{"partitioning_attributes": ["pa"], "domain_size": {size}{domain_extra}}}, '
        f'"cells": {{"r": {{{cell_extra}"static": {{"blocks": {blocks}, "curves": {curves}}}}}}}}}'
    )


_ANOTHER_ROW = '[[2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]]'


def _rows_text(*bodies, sep="], ["):
    """A cell whose block ``i`` holds the row written ``bodies[i]``."""
    return _one_cell_text(curves=f"[[{sep.join(bodies)}]]", blocks=json.dumps(list(range(len(bodies)))), size=16)


# row bodies: one a prefix of the next, and one that differs from the first mid-body
_BODY_A = ", ".join(["0.0"] * (N_ALPHA - 1) + ["1.5"])
_BODY_B = _BODY_A + "e-05"
_BODY_C = _BODY_A.replace("0.0", "0.5", 7)

# texts the decoder's walk reads itself
_WALKED = [
    # a run broken mid-body, after more repeats than a doubling step covers
    _rows_text(*[_BODY_A] * 5, _BODY_C, _BODY_C),
    _rows_text(*[_BODY_A] * 7, _BODY_C),
    # neighbouring bodies, one a prefix of the other, in both orders and runs
    _rows_text(_BODY_A, _BODY_B, _BODY_A),
    _rows_text(*[_BODY_B] * 3, *[_BODY_A] * 3, _BODY_B),
    # the text that opens a cell's curves, inside an escaped rule id
    _one_cell_text().replace('"r": ', json.dumps('x"curves": [[1.5') + ": "),
    _one_cell_text().replace('"r": ', json.dumps('"curves": [[') + ": "),
    # a cell that lists no blocks beside a cut cell, first and last
    _one_cell_text().replace('"cells": {', '"cells": {"r0": {"static": {"blocks": [], "curves": []}}, '),
    _one_cell_text().replace("}}}}", '}}, "r0": {"static": {"blocks": [], "curves": []}}}}'),
]

# texts it leaves to json.loads
_LEFT_TO_JSON = [
    # a body holding a lone "]": a number after a row closes
    _one_cell_text(curves=f"[[{_BODY_A}], 0.0]"),
    _one_cell_text(curves=f"[[{_BODY_A}], [{_BODY_A}], 0.0]", blocks="[0, 1, 2]"),
    # a body followed by "]," without the space, inside a run and at its end
    _rows_text(_BODY_A, _BODY_A, _BODY_A, sep="],["),
    _rows_text(_BODY_A, _BODY_A, _BODY_A).replace(f"{_BODY_A}], [{_BODY_A}]]", f"{_BODY_A}],[{_BODY_A}]]"),
    # a body holding a word, not only number characters
    _rows_text(_BODY_A, _BODY_A.replace("0.0", "NaN", 1)),
]


@pytest.mark.parametrize("text", [
    _one_cell_text(),
    # a "curves" array outside the cells: the domain's loader ignores it
    _one_cell_text(domain_extra=f', "curves": {_ANOTHER_ROW}'),
    # the same, with the cell's own curves spaced so that no cut finds them
    _one_cell_text(domain_extra=f', "curves": {_ANOTHER_ROW}').replace('"curves": [[1.5', '"curves" : [[1.5'),
    # a cell's curves listed twice: json.loads keeps the later, spaced and empty
    _one_cell_text(curves=_ANOTHER_ROW + ', "curves" : []'),
    # a cell whose curves no cut can take, beside a cut elsewhere
    _one_cell_text(curves=_ANOTHER_ROW.replace("2.0", "NaN", 1), domain_extra=f', "curves": {_ANOTHER_ROW}'),
    # a cell listed twice: json.loads keeps the later, spaced copy
    _one_cell_text(cell_extra=f'"static": {{"blocks": [1], "curves": {_ANOTHER_ROW}}}, ')
    .replace('"curves": [[1.5', '"curves" : [[1.5'),
    # one row of 14 values written flat: no row per block
    _one_cell_text(curves="[" + ", ".join(map(str, range(10, 24))) + "]"),
    _one_cell_text(curves="[[1.5, 2.5]]"),
    # three rows, the first two joined without a space: not one row per ", "
    _one_cell_text(curves=f"[{_ANOTHER_ROW[1:-1]},{_ANOTHER_ROW[1:-1]}, {_ANOTHER_ROW[1:-1]}]", blocks="[0, 1, 2]"),
    *_WALKED,
    *_LEFT_TO_JSON,
])
def test_state_codec_reads_a_text_as_json_loads_does(text):
    _loads_alike(text)


@pytest.mark.parametrize("text, walked", [(text, True) for text in _WALKED] + [(text, False) for text in _LEFT_TO_JSON])
def test_state_codec_walks_only_the_text_to_json_writes(text, walked):
    assert (decision._canonical_state_doc(text) is not None) == walked


_RUN_DOMAIN = 64


@st.composite
def _codec_run_states(draw):
    """States whose cells hold runs of consecutive blocks with one row each:
    runs of one block, long runs, and a run that ends the array."""
    state = FilterState(BlockDomain(("pa",), _RUN_DOMAIN))
    pool = draw(st.lists(_codec_rows, min_size=2, max_size=3))
    for rid in draw(st.lists(_codec_rule_ids, min_size=1, max_size=3, unique=True)):
        lengths = draw(st.lists(st.one_of(st.just(1), st.integers(1, 20)), min_size=1, max_size=6))
        start = draw(st.integers(0, _RUN_DOMAIN - min(sum(lengths), _RUN_DOMAIN)))
        rows = [row for n in lengths for row in [draw(st.sampled_from(pool))] * n][: _RUN_DOMAIN - start]
        place(state, rid, CELL_STATIC, rows, np.arange(start, start + len(rows)))
    return state


@settings(max_examples=100, deadline=None)
@given(state=_codec_run_states())
def test_state_codec_matches_json_on_runs_of_rows(state):
    text = state.to_json()
    assert text == json.dumps(state.to_dict())
    if "]]" in text:  # some cell holds a nonzero row: the walk, not json.loads, reads it
        assert decision._canonical_state_doc(text) is not None
    for variant in (text, re.sub(r"(\d)e([-+]?\d)", r"\1E\2", text), _duplicate_first_cell(state.to_dict())):
        _loads_alike(variant)
    assert FilterState.from_json(text).to_json() == text


def test_state_codec_of_an_empty_state():
    state = FilterState(BlockDomain(("pa",), 4, TimeAxis("m", 2, 1)))
    state.ensure("r", CELL_STATIC)  # a store without a charged block is left out
    assert state.to_json() == json.dumps(state.to_dict())
    assert FilterState.from_json(state.to_json()).to_dict() == state.to_dict()


# ---------------------------------------------------------------------------
# The per-block store against dense arrays
# ---------------------------------------------------------------------------

_STORE_DOMAIN = 24
_selections = st.one_of(
    st.just([]),
    st.just(list(range(_STORE_DOMAIN))),
    st.lists(st.integers(0, _STORE_DOMAIN - 1), max_size=2 * _STORE_DOMAIN),  # repeats
    # every k-th block: once classes are fragmented, a selection of many runs
    st.builds(lambda start, step: list(range(start, _STORE_DOMAIN, step)), st.integers(0, 3), st.integers(1, 3)),
)
_costs = st.one_of(
    st.just(np.zeros(N_ALPHA)),  # a charged block may still hold a zero row
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=N_ALPHA, max_size=N_ALPHA).map(np.array),
)
# rows to put on blocks one by one: few distinct, so some blocks get equal rows
_ROW_POOL = np.array([np.zeros(N_ALPHA), np.arange(N_ALPHA) / 7.0, np.full(N_ALPHA, 0.5)])
_store_ops = st.one_of(
    st.tuples(st.just("compose"), st.integers(0, 2), _selections, _costs),
    st.tuples(st.just("add"), st.integers(0, 2), _selections, _costs),
    st.tuples(st.just("build"), st.integers(0, 2), _selections,
              st.lists(st.integers(0, len(_ROW_POOL) - 1), min_size=_STORE_DOMAIN, max_size=_STORE_DOMAIN)),
    st.tuples(st.just("maximum"), st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("copy"), st.integers(0, 2), st.integers(0, 2)),
)


def _selection(blocks):
    """A selection normalised as a request's is: sorted, each block once."""
    return ReleaseRequest("q", (), blocks).pa_selection


def _round_trip_bytes(store) -> tuple[str, str]:
    state = FilterState(BlockDomain(("pa",), len(store.index)))
    state._cells = {"r": {CELL_STATIC: store}}
    first = json.dumps(state.to_dict())
    return first, json.dumps(FilterState.from_dict(json.loads(first)).to_dict())


def _dense_cells_doc(arr) -> dict:
    """The state's ``cells`` for one dense static array: its nonzero rows."""
    blocks = np.flatnonzero(arr.any(axis=1))
    return {"r": {CELL_STATIC: {"blocks": blocks.tolist(), "curves": arr[blocks].tolist()}}} if blocks.size else {}


def _assert_classes(store) -> None:
    """No class is empty, ``size`` counts each class's blocks (slot 0 those
    never charged), and a store holds at most a row per charged block plus
    the zero row."""
    held = store.held
    charged = np.count_nonzero(store.index)
    assert (store.index < held).all()
    assert (store.size[1:held] >= 1).all()
    assert store.size[1:held].sum() == charged
    assert held <= charged + 1
    assert store.size[:held].tolist() == np.bincount(store.index, minlength=held).tolist()


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_store_ops, max_size=30))
def test_block_rows_match_a_dense_oracle(ops):
    """Charges as the check composes them (gather, add, put back) and as a
    scope adds them, stores rebuilt whole from rows given block by block,
    merges and copies, interleaved."""
    stores = [BlockRows(_STORE_DOMAIN) for _ in range(3)]
    oracle = [np.zeros((_STORE_DOMAIN, N_ALPHA)) for _ in range(3)]
    for op in ops:
        kind, i = op[0], op[1]
        if kind == "compose":
            sel, cost = _selection(op[2]), op[3]
            classes, rows = stores[i].gather(sel)
            stores[i].put(sel, rows + cost, classes)
            oracle[i][sel] += cost
        elif kind == "add":
            sel, cost = _selection(op[2]), op[3]
            stores[i].add(sel, cost)
            oracle[i][sel] += cost
        elif kind == "build":
            sel = _selection(op[2])
            rows = _ROW_POOL[op[3][: len(sel)]]
            stores[i] = BlockRows.from_rows(_STORE_DOMAIN, sel, rows)
            oracle[i] = np.zeros((_STORE_DOMAIN, N_ALPHA))
            oracle[i][sel] = rows
            # blocks given rows with equal bytes share one class
            assert len(set(stores[i].index[sel].tolist())) == len(set(op[3][: len(sel)]))
        elif kind == "maximum":
            stores[i].maximum(stores[op[2]])
            np.maximum(oracle[i], oracle[op[2]], out=oracle[i])
        else:
            stores[i] = stores[op[2]].copy()
            oracle[i] = oracle[op[2]].copy()
        for store, arr in zip(stores, oracle):
            assert dense(store).tobytes() == arr.tobytes()
            _assert_classes(store)
            assert store.shape[0] <= len(store.rows) <= _STORE_DOMAIN + 1
            assert not store.rows[0].any() and not store.rows[store.held:].any()
            first, again = _round_trip_bytes(store)
            assert first == again
            assert json.loads(first)["cells"] == _dense_cells_doc(arr)


@pytest.mark.parametrize("runs", [1, 2, _FEW_RUNS, _FEW_RUNS + 1, 40])
@pytest.mark.parametrize("part", [slice(None), slice(3, -3)])
def test_block_rows_group_the_runs_of_a_selection(runs, part):
    """A selection that crosses few runs of one class is grouped in a loop,
    and one that crosses many by sorting them.  Three classes take turns
    along the domain, so a class recurs in several runs; the whole domain
    covers every class wholly, and a part of it splits the classes at its
    ends."""
    domain = 80
    store, oracle = BlockRows(domain), np.zeros((domain, N_ALPHA))
    segment = np.arange(domain) * runs // domain
    for turn in (1, 2):
        blocks = np.flatnonzero(segment % 3 == turn)
        store.add(blocks, np.full(N_ALPHA, float(turn)))
        oracle[blocks] += turn
    sel = np.arange(domain)[part]
    classes, rows = store.gather(sel)
    slots, counts, grouped = classes
    assert (grouped is None) == (len(np.unique(segment[part])) == 1)
    assert isinstance(grouped, list) == (1 < len(np.unique(segment[part])) <= _FEW_RUNS)
    assert sorted(zip(slots, counts)) == sorted(zip(*np.unique(store.index[sel], return_counts=True)))
    assert rows.tobytes() == store.rows[slots].tobytes()
    before, held = store.index.copy(), store.held
    store.put(sel, rows + 0.25, classes)
    oracle[sel] += 0.25
    assert dense(store).tobytes() == oracle.tobytes()
    _assert_classes(store)
    # a new class for each class covered in part, and for the uncharged blocks
    split = [s for s in slots if s == 0 or np.count_nonzero(before == s) > np.count_nonzero(before[sel] == s)]
    assert store.held == held + len(split)
    assert (store.index[sel] == before[sel]).all() == (not split)


def test_block_rows_held_stays_an_int_when_few_runs_split():
    """A charge grouped in the few-runs loop that splits classes counts the
    classes it makes as a Python int, not as a numpy scalar."""
    store = BlockRows(10)
    store.add(np.arange(6), np.full(N_ALPHA, 1.0))
    sel = np.arange(4, 8)  # the end of the charged class, then uncharged blocks
    classes, rows = store.gather(sel)
    assert isinstance(classes[2], list) and len(classes[0]) == 2
    store.put(sel, rows + 1.0, classes)
    assert store.held == 4
    assert type(store.held) is int


def test_block_rows_maximum_of_many_classes_matches_a_dense_oracle():
    """Two stores of 70,000 one-block classes: the key that pairs a block's
    two classes, 70,000 * 70,001 + 70,000 at most, passes 2**31."""
    domain = 70_000
    rng = np.random.default_rng(5)
    arrays = [rng.random((domain, N_ALPHA)) for _ in range(2)]
    stores = [BlockRows.from_rows(domain, np.arange(domain), arr) for arr in arrays]
    for store in stores:
        assert store.held == domain + 1
    stores[0].maximum(stores[1])
    assert dense(stores[0]).tobytes() == np.maximum(*arrays).tobytes()
    _assert_classes(stores[0])
    assert stores[0].index.dtype == np.int32


# an int16 block index holds slots 0 .. 2**15 - 1
_SLOTS16 = 2**15


def _near_the_int16_limit():
    """A store of 32,766 two-block classes beside the zero row, whose next
    new slot is the last one an int16 index holds, and its dense oracle.
    Blocks past the classes stay uncharged."""
    pairs = _SLOTS16 - 2
    domain = 2 * pairs + 64
    oracle = np.zeros((domain, N_ALPHA))
    blocks = np.arange(2 * pairs)
    oracle[blocks] = np.repeat(np.arange(1.0, pairs + 1), 2)[:, None] * np.linspace(0.5, 1.0, N_ALPHA)
    store = BlockRows.from_rows(domain, blocks, oracle[blocks])
    assert store.held == _SLOTS16 - 1
    return store, oracle


def _assert_index(store, oracle, widened: bool) -> None:
    """The store reads as its oracle, and its index is int16 until a slot
    past the int16 range has been used, int32 from then on; never intp."""
    assert dense(store).tobytes() == oracle.tobytes()
    _assert_classes(store)
    assert store.index.dtype == (np.int32 if widened else np.int16)


@pytest.mark.parametrize("grouping,selections", [
    # uncharged blocks: one class, split off twice
    (type(None), [np.arange(2 * _SLOTS16 + 4, 2 * _SLOTS16 + 14), np.arange(2 * _SLOTS16 + 14, 2 * _SLOTS16 + 24)]),
    (list, [np.array([0, 2, 4])]),  # half of each of three classes
    (tuple, [np.arange(0, 40, 2)]),  # half of each of twenty classes
])
def test_block_rows_index_widens_once_a_slot_passes_int16(grouping, selections):
    """A charge that moves blocks into new classes past slot 32,767, through
    ``put``'s one-run, few-runs and sorted paths alike."""
    store, oracle = _near_the_int16_limit()
    _assert_index(store, oracle, widened=False)
    for k, sel in enumerate(selections):
        classes, rows = store.gather(sel)
        assert isinstance(classes[2], grouping)
        rows += (k + 1) * 0.125
        store.put(sel, rows, classes)
        oracle[sel] += (k + 1) * 0.125
        _assert_index(store, oracle, widened=store.held > _SLOTS16)
    assert store.held > _SLOTS16


def test_block_rows_index_widens_when_a_store_is_built_block_by_block():
    """A store built from one row per block with twenty classes past the
    limit has an int32 index."""
    _, oracle = _near_the_int16_limit()
    fresh = np.arange(len(oracle) - 20, len(oracle))
    oracle[fresh] = np.arange(20.0)[:, None] + np.full(N_ALPHA, 0.25)
    blocks = np.flatnonzero(oracle.any(axis=1))
    store = BlockRows.from_rows(len(oracle), blocks, oracle[blocks])
    _assert_index(store, oracle, widened=True)
    assert store.held == _SLOTS16 + 19


def test_block_rows_index_widens_in_maximum_and_copy():
    """``maximum`` splits twenty classes past the limit; a copy keeps its
    original's index width, and widening a copy leaves the original alone."""
    store, oracle = _near_the_int16_limit()
    dup = store.copy()
    _assert_index(dup, oracle, widened=False)
    other_rows = np.zeros((len(oracle), N_ALPHA))
    other_rows[:40] = np.arange(1.0, 41.0)[:, None] * 1000.0
    other_rows[:40:2] = 0.0  # even blocks keep their row, odd ones take the other's
    other = BlockRows.from_rows(len(oracle), np.arange(len(oracle)), other_rows)
    store.maximum(other)
    merged = np.maximum(oracle, other_rows)
    _assert_index(store, merged, widened=True)
    _assert_index(dup, oracle, widened=False)
    again = store.copy()
    _assert_index(again, merged, widened=True)
    dup.add(np.arange(0, 40, 2), np.full(N_ALPHA, 0.5))
    oracle[0:40:2] += 0.5
    _assert_index(dup, oracle, widened=True)
    _assert_index(store, merged, widened=True)


def test_block_rows_index_width_survives_the_state_codec():
    """A state written from an int16 store and from a widened one loads,
    through ``from_json`` and ``from_dict`` alike, to the same rows, at the
    width its class count needs; the text does not depend on the width."""
    store, oracle = _near_the_int16_limit()
    for widen in (False, True):
        if widen:
            sel = np.arange(0, 40, 2)
            store.add(sel, np.full(N_ALPHA, 0.5))
            oracle[sel] += 0.5
        state = FilterState(BlockDomain(("pa",), len(oracle)))
        state._cells = {"r": {CELL_STATIC: store}}
        text = state.to_json()
        assert text == json.dumps(state.to_dict())
        assert json.loads(text)["cells"] == _dense_cells_doc(oracle)
        for loaded in (FilterState.from_json(text), FilterState.from_dict(json.loads(text))):
            _assert_index(loaded.array("r", CELL_STATIC), oracle, widened=widen)
            assert loaded.to_json() == text


@pytest.mark.parametrize("widen", [False, True])
def test_a_fold_keeps_the_rows_of_blocks_the_step_never_charged(tmp_path, widen):
    """A loaded ``hist`` store whose rows hold a -0.0 beside nonzero
    entries, on blocks the folded step never charged: through
    ``collapse_time`` and ``dpwarden advance`` their text stays byte for
    byte (``np.maximum(-0.0, 0.0)`` is 0.0), and every other block reads as
    dense ``np.maximum``.  The step covers whole classes of ``hist``, or
    splits twenty of them, taking the index past int16."""
    _, hist = _near_the_int16_limit()
    n = len(hist)
    # both blocks of every 300th class: the class count stays as it was
    kept = np.flatnonzero(hist.any(axis=1) & (np.arange(n) // 2 % 300 == 0))
    hist[kept, 0] = -0.0
    step = np.zeros_like(hist)
    if widen:
        step[np.arange(3, 120, 6)] = 100.0  # one block of each of twenty classes
    else:
        step[2:6] = 100.0  # two whole classes
    step[n - 10 :] = 7.0  # blocks hist never charged
    state = FilterState(BlockDomain(("pa",), n, TimeAxis("m", 1, 1)))
    for cell, arr in ((CELL_HIST, hist), (step_cell(1), step)):
        blocks = np.flatnonzero(arr.any(axis=1))
        place(state, "r", cell, arr[blocks], blocks)
    assert np.intersect1d(kept, np.flatnonzero(step.any(axis=1))).size == 0
    text = state.to_json()
    loaded = FilterState.from_json(text)
    loaded.collapse_time(2)
    path = tmp_path / "state.json"
    path.write_text(text)
    assert main(["advance", "--state", str(path), "--to", "2"]) == 0
    assert path.read_text() == loaded.to_json()
    folded = loaded.array("r", CELL_HIST)
    assert folded.index.dtype == (np.int32 if widen else np.int16)
    _assert_classes(folded)
    cell = json.loads(path.read_text())["cells"]["r"][CELL_HIST]
    held = dict(zip(cell["blocks"], cell["curves"]))
    assert json.dumps([held[b] for b in kept.tolist()]) == json.dumps(hist[kept].tolist())
    others = np.setdiff1d(np.arange(n), kept)
    # compared as bits, so -0.0 is not 0.0, and without a diff of megabytes on failure
    assert np.array_equal(dense(folded)[others].view(np.uint64), np.maximum(hist, step)[others].view(np.uint64))


def test_a_domain_past_an_int32_index_is_refused_before_allocating(monkeypatch):
    """The largest domain is 2**31 - 2 blocks: its class count, the zero row
    included, is the largest int32.  A larger one is refused before
    ``np.zeros`` is called; the largest one reaches it (which is stubbed
    here to fail as an exhausted memory would)."""
    sizes = []

    def no_memory(shape, *args, **kwargs):
        sizes.append(shape)
        raise MemoryError

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(ValidationError, match="too large to index"):
        BlockRows(2**31 - 1)
    assert sizes == []
    with pytest.raises(ValidationError, match="too large to index"):
        BlockRows(2**31 - 2)
    assert sizes == [2**31 - 2]


def _dense_headroom(state, poset, budget_scale):
    """``headroom`` computed as over dense arrays, one row per block."""
    out = {}
    for rule in poset.rules:
        budget = scale_budget(rule.budget, budget_scale)
        arrays = [dense(store) for store in state._cells.get(rule.rule_id, {}).values()]
        if isinstance(budget, ADP):
            consumed = max([0.0, *(float(rdp_epsilon(a, budget.delta).max()) for a in arrays if a.any())])
            out[rule.rule_id] = {
                "budget_epsilon": budget.epsilon,
                "consumed_epsilon": consumed,
                "headroom_epsilon": budget.epsilon - consumed,
            }
        else:
            curve = np.asarray(budget.curve)
            with np.errstate(divide="ignore", invalid="ignore"):
                fracs = [np.where(curve > 0, a / curve, np.where(a > 0, np.inf, 0.0)) for a in arrays]
            out[rule.rule_id] = {"utilization": max([0.0, *(float(f.min(axis=1).max()) for f in fracs)])}
    return out


def test_headroom_equals_a_dense_recompute():
    rng = np.random.default_rng(21)
    all_charged = 0
    for domain_size in (4, 64):
        for _ in range(12):
            rules, units = random_rule_set(rng)
            # every other rule gets an RDP budget instead of its ADP one
            rules = [
                dataclasses.replace(r, budget=RDP(gaussian_curve(float(rng.uniform(0.02, 0.3))).curve))
                if k % 2 else r
                for k, r in enumerate(rules)
            ]
            point = DecisionPoint(build_poset(rules, units), domain=BlockDomain(("pa",), domain_size))
            whole = ReleaseRequest("all", random_trace(rng, units, domain_size, 5)[0].mechanisms,
                                   range(domain_size))
            for req in [whole, *random_trace(rng, units, domain_size=domain_size, max_requests=40)]:
                point.process(req, budget_scale=0.5)
                for scale in (1.0, 0.5):
                    assert point.headroom(scale) == _dense_headroom(point.state, point.poset, scale)
            all_charged += any(
                store.index.all()
                for per_rule in point.state._cells.values() for store in per_rule.values()
            )
    assert all_charged > 0

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dpwarden.accounting import (
    calibrate_gaussian_rho,
    gaussian_curve,
    pure_curve,
    zero_curve,
)
from dpwarden.core import (
    ADP,
    AttrIntersects,
    BASE_ATOMS,
    BASE_ATTRS,
    HasLabel,
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
)
from dpwarden.decision import (
    BlockDomain,
    CELL_FUTURE,
    CELL_HIST,
    DecisionPoint,
    FilterState,
    TimeAxis,
    check_and_commit,
    check_per_release,
    match_rules,
    step_cell,
)
from dpwarden.errors import MissingCost, UnknownTimeStep, ValidationError
from dpwarden.poset import build_poset

sys.path.insert(0, str(Path(__file__).parent))
from _util import NaiveEngine, random_rule_set, random_trace, unit_layout  # noqa: E402


def _user():
    return UnitGraph([PrivacyUnit("user")])


def _mech(labels, curve, units=("user",)):
    return Mechanism(LabelSet(labels), {u: curve for u in units})


def _rule(rule_id, predicate, attrs_key, eps, unit="user"):
    return Rule(rule_id, predicate, unit, ADP(eps, 1e-7), Provenance("t", 0),
                OrderKey(BASE_ATTRS, frozenset(attrs_key), (), unit))


def test_per_release_no_rules_accepts():
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, gaussian_curve(0.01)),), (0,))
    assert check_per_release(req, []).accepted


def test_per_release_rejects_over_budget_mechanism():
    cost = gaussian_curve(calibrate_gaussian_rho(0.75, 1e-7))
    rule = Rule("cap", TruePredicate(), "user", ADP(0.5, 1e-7), Provenance("pr", 0))
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, cost),), (0,))
    decision = check_per_release(req, [rule])
    assert not decision.accepted
    assert decision.violations[0].rule_id == "cap"


def test_per_release_predicate_scoping():
    cost = gaussian_curve(calibrate_gaussian_rho(5.0, 1e-7))
    rule = Rule("std_cap", HasLabel("context", "standard"), "user", ADP(0.5, 1e-7),
                Provenance("pr", 0))
    req = ReleaseRequest("q", (_mech({"context": ["blackbox-ml"]}, cost),), (0,))
    assert check_per_release(req, [rule]).accepted


def test_per_release_missing_cost():
    rule = Rule("cap", TruePredicate(), "user-month", ADP(0.5, 1e-7), Provenance("pr", 0))
    req = ReleaseRequest("q", (_mech({"attr": ["a1"]}, gaussian_curve(0.01)),), (0,))
    with pytest.raises(MissingCost):
        check_per_release(req, [rule])


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
    state.ensure("r", step_cell(9))[:] = c1
    state.collapse_time(10)
    assert state.array("r", CELL_HIST) is None

    # absorbing a step into an empty interval copies the curve
    state2 = FilterState(domain)
    state2.ensure("r", step_cell(3))[:] = c1
    state2.collapse_time(10)
    assert np.array_equal(state2.array("r", CELL_HIST), c1)

    # absorbing two steps takes the pointwise maximum
    state3 = FilterState(domain)
    arr1 = state3.ensure("r", step_cell(3))
    arr1[:] = c1
    arr1[0, 0] = 99.0
    state3.ensure("r", step_cell(4))[:] = c2
    state3.collapse_time(11)
    merged = state3.array("r", CELL_HIST)
    assert merged[0, 0] == 99.0
    assert np.array_equal(merged[1], c2[1])



def test_release_over_all_time_charges_steps_that_open_later():
    point = _monthly_point(budget_eps=1.0, window=2, horizon=2)
    assert point.process(_time_request("all", None, eps=0.8)).accepted
    point.advance_time(3)
    assert not point.process(_time_request("q3", 3, eps=0.8)).accepted
    # a long jump opens only the window; the steps it skips reach hist
    point.advance_time(9)
    assert set(point.state._cells["monthly"]) == {CELL_HIST, step_cell(8), step_cell(9), CELL_FUTURE}
    for month in (5, 9):
        assert not point.process(_time_request(f"q{month}", month, eps=0.8)).accepted

def test_collapse_monotone_never_forgets():
    rng = np.random.default_rng(5)
    domain = BlockDomain(("pa",), 4, TimeAxis("m", 3, 6))
    state = FilterState(domain)
    for step in range(7):
        arr = state.ensure("r", step_cell(step))
        arr[:] = rng.uniform(0, 1, size=arr.shape)
    before = state.array("r", CELL_HIST)
    before = np.zeros((4, state.n_alpha)) if before is None else before.copy()
    state.collapse_time(9)
    after = state.array("r", CELL_HIST)
    assert (after >= before - 1e-15).all()
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
            got = match_rules(poset, req.mechanisms)
            for i, rule in enumerate(poset.rules):
                direct = frozenset(
                    m for m, mech in enumerate(req.mechanisms)
                    if rule.predicate.matches(mech.labels)
                )
                assert got[i] == direct


def test_matches_naive_single_block_engine():
    rng = np.random.default_rng(12)
    for _ in range(60):
        rules, units = random_rule_set(rng)
        poset = build_poset(rules, units)
        point = DecisionPoint(poset, domain=BlockDomain((), 1))
        naive = NaiveEngine(rules)
        for req in random_trace(rng, units, domain_size=1, max_requests=30):
            assert point.process(req).accepted == naive.process(req)


def test_reject_leaves_state_bit_identical_and_replayable():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rules, units = random_rule_set(rng)
        poset = build_poset(rules, units)
        point = DecisionPoint(poset, domain=BlockDomain(("pa",), 4))
        accepted = []
        for req in random_trace(rng, units, domain_size=4, max_requests=40):
            snapshot = point.state.copy()
            if point.process(req).accepted:
                accepted.append(req)
            else:
                assert point.state.now == snapshot.now
                assert point.state._cells.keys() == snapshot._cells.keys()
                for rid, per_rule in point.state._cells.items():
                    assert per_rule.keys() == snapshot._cells[rid].keys()
                    for cell, arr in per_rule.items():
                        assert np.array_equal(arr, snapshot._cells[rid][cell])
        replay = DecisionPoint(poset, domain=BlockDomain(("pa",), 4))
        for req in accepted:
            assert replay.process(req).accepted
        assert replay.state._cells.keys() == point.state._cells.keys()
        for rid, per_rule in replay.state._cells.items():
            for cell, arr in per_rule.items():
                assert np.array_equal(arr, point.state._cells[rid][cell])


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
    assert point.process(req, budget_scale=1.0).accepted


def test_state_serialization_round_trip():
    point = _monthly_point()
    point.process(_time_request("q1", 6))
    point.process(_time_request("q2", 5))
    payload = json.loads(json.dumps(point.state.to_dict()))
    restored = FilterState.from_dict(payload)
    assert restored.now == point.state.now
    for rid, per_rule in point.state._cells.items():
        for cell, arr in per_rule.items():
            if arr.any():
                assert np.allclose(restored.array(rid, cell), arr)
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
    arr = state.array("r", "static")
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
    ],
)
def test_state_load_fails_closed(blocks, curves):
    with pytest.raises(ValidationError):
        FilterState.from_dict(json.loads(json.dumps(_state_doc(blocks, curves))))


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
        lambda doc: doc.update(now=-1),
    ],
)
def test_state_load_rejects_missing_or_mistyped_fields(edit):
    doc = _state_doc([0], [_ROW])
    edit(doc)
    with pytest.raises(ValidationError):
        FilterState.from_dict(doc)


def test_headroom_reports_consumption():
    point = _monthly_point()
    point.process(_time_request("q1", 6, eps=2.0))
    room = point.headroom()["monthly"]
    assert room["budget_epsilon"] == pytest.approx(3.0)
    assert room["consumed_epsilon"] == pytest.approx(2.0, abs=1e-6)
    assert room["headroom_epsilon"] == pytest.approx(1.0, abs=1e-6)

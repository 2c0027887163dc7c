import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpwarden.core import (
    ADP,
    And,
    AttrIntersects,
    HasLabel,
    LabelSet,
    Not,
    Or,
    PrivacyUnit,
    PureDP,
    RDP,
    ReleaseRequest,
    Rule,
    TruePredicate,
    UnitGraph,
    ZCDP,
    budget_from_dict,
    budget_leq,
    budget_to_dict,
    eval_predicate,
    expand_block_range,
    predicate_from_dict,
    predicate_to_dict,
)
from dpwarden.errors import ValidationError, VariantMismatch
from dpwarden.accounting import gaussian_curve


def test_true_matches_everything():
    assert eval_predicate(TruePredicate(), LabelSet())
    assert eval_predicate(TruePredicate(), LabelSet({"attr": ["a1"]}))


def test_has_label_mismatch():
    labels = LabelSet({"context": ["standard"]})
    assert not eval_predicate(HasLabel("context", "blackbox-ml"), labels)
    assert eval_predicate(HasLabel("context", "standard"), labels)


def test_conjunction_over_attrs_and_context():
    labels = LabelSet({"attr": ["a2", "a9"], "context": ["standard"]})
    pred = And((AttrIntersects(frozenset({"a1", "a2"})), HasLabel("context", "standard")))
    assert eval_predicate(pred, labels)


def test_or_not_semantics():
    labels = LabelSet({"attr": ["a1"]})
    assert eval_predicate(Or((HasLabel("k", "v"), AttrIntersects(frozenset({"a1"})))), labels)
    assert not eval_predicate(Not(AttrIntersects(frozenset({"a1"}))), labels)


def test_label_charset_rejected():
    with pytest.raises(ValidationError):
        LabelSet({"bad key": ["v"]})
    with pytest.raises(ValidationError):
        LabelSet({"k": ["has space"]})


def test_budget_leq_examples():
    assert budget_leq(ADP(3, 1e-7), ADP(3, 1e-7))
    assert not budget_leq(ADP(5, 1e-7), ADP(3, 1e-7))
    assert budget_leq(gaussian_curve(0.015), gaussian_curve(0.02))


def test_budget_leq_cross_variant_is_error():
    with pytest.raises(VariantMismatch):
        budget_leq(PureDP(1.0), ADP(1.0, 1e-7))
    with pytest.raises(VariantMismatch):
        budget_leq(ZCDP(0.1), PureDP(0.1))


def test_budget_validation():
    with pytest.raises(ValidationError):
        ADP(-1.0, 1e-7)
    with pytest.raises(ValidationError):
        ADP(1.0, 1.0)
    with pytest.raises(ValidationError):
        RDP((0.1, -0.2))
    with pytest.raises(ValidationError):
        ZCDP(-0.1)


def test_budget_rejects_nan():
    nan = float("nan")
    for make in (
        lambda: PureDP(nan),
        lambda: ADP(nan, 1e-7),
        lambda: ADP(1.0, nan),
        lambda: RDP((0.1, nan)),
        lambda: ZCDP(nan),
    ):
        with pytest.raises(ValidationError):
            make()
    # JSON's NaN token reaches the constructors through the request format
    doc = json.loads(
        '{"request_id": "q", "pa_selection": [0], "mechanisms": [{"labels": {}, '
        '"cost_by_unit": {"user": {"kind": "rdp", "curve": [0.1, NaN]}}}]}'
    )
    with pytest.raises(ValidationError):
        ReleaseRequest.from_dict(doc)


_budget_pairs = st.sampled_from(["pure", "adp", "zcdp", "rdp"]).flatmap(
    lambda kind: st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False), min_size=3, max_size=3
    ).map(
        lambda vals: {
            "pure": (PureDP(vals[0]), PureDP(vals[1])),
            "adp": (ADP(vals[0], 0.5 * vals[2] / 100), ADP(vals[1], 0.5 * vals[2] / 100)),
            "zcdp": (ZCDP(vals[0]), ZCDP(vals[1])),
            "rdp": (RDP((vals[0], vals[1])), RDP((vals[1], vals[2]))),
        }[kind]
    )
)


@given(_budget_pairs)
def test_budget_leq_partial_order(pair):
    a, b = pair
    assert budget_leq(a, a) and budget_leq(b, b)
    if budget_leq(a, b) and budget_leq(b, a):
        assert a == b


@given(
    st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), min_size=3, max_size=3)
)
def test_budget_leq_transitive(vals):
    a, b, c = (PureDP(v) for v in sorted(vals))
    assert budget_leq(a, b) and budget_leq(b, c) and budget_leq(a, c)


_atoms = st.one_of(
    st.just(TruePredicate()),
    st.sampled_from(["k1", "k2"]).flatmap(
        lambda k: st.sampled_from(["v1", "v2", "v3"]).map(lambda v: HasLabel(k, v))
    ),
    st.sets(st.sampled_from(["a1", "a2", "a3"]), min_size=1).map(
        lambda s: AttrIntersects(frozenset(s))
    ),
)
_monotone_predicates = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda p: And(tuple(p))),
        st.lists(kids, min_size=1, max_size=3).map(lambda p: Or(tuple(p))),
    ),
    max_leaves=8,
)
_labels = st.dictionaries(
    st.sampled_from(["k1", "k2", "attr"]),
    st.sets(st.sampled_from(["v1", "v2", "v3", "a1", "a2", "a3"]), min_size=1, max_size=3),
    max_size=3,
).map(LabelSet)


@given(_monotone_predicates, _labels, _labels)
def test_not_free_predicates_monotone_under_label_addition(pred, base, extra):
    merged = {k: set(base.values(k)) for k in base.keys()}
    for k in extra.keys():
        merged.setdefault(k, set()).update(extra.values(k))
    grown = LabelSet(merged)
    if eval_predicate(pred, base):
        assert eval_predicate(pred, grown)


@given(_monotone_predicates)
def test_predicate_serialization_round_trip(pred):
    assert predicate_from_dict(predicate_to_dict(pred)) == pred


def test_budget_serialization_round_trip():
    for b in (PureDP(1.5), ADP(3, 1e-7), RDP((0.1, 0.2)), ZCDP(0.015)):
        assert budget_from_dict(budget_to_dict(b)) == b


def test_unit_graph_order_and_cycles():
    units = UnitGraph([
        PrivacyUnit("user"),
        PrivacyUnit("user-month", ord_above=frozenset({"user"})),
        PrivacyUnit("user-week", ord_above=frozenset({"user"})),
    ])
    assert units.leq("user-month", "user")
    assert units.leq("user-week", "user")
    assert not units.leq("user-week", "user-month")
    assert not units.leq("user-month", "user-week")
    assert units.greatest() == "user"

    with pytest.raises(ValidationError):
        UnitGraph([
            PrivacyUnit("a", ord_above=frozenset({"b"})),
            PrivacyUnit("b", ord_above=frozenset({"a"})),
        ])


def test_group_factor_one_implies_cover_order():
    # one user instance covers one user-month instance
    units = UnitGraph([
        PrivacyUnit("user", group_factor_to={"user-month": 1}),
        PrivacyUnit("user-month"),
    ])
    assert units.leq("user-month", "user")


def test_unit_graph_unknown_reference():
    with pytest.raises(ValidationError):
        UnitGraph([PrivacyUnit("a", ord_above=frozenset({"ghost"}))])


def test_block_range_wraparound():
    assert expand_block_range(6, 4, 8).tolist() == [6, 7, 0, 1]
    assert expand_block_range(0, 0, 8).tolist() == []


@given(st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=-5, max_value=40),
       st.integers(min_value=1, max_value=32))
def test_block_range_matches_reference(start, length, n):
    expected = sorted((start + k) % n for k in range(min(length, n)))
    assert sorted(expand_block_range(start, length, n).tolist()) == expected


_INTP_MAX = int(np.iinfo(np.intp).max)


@given(st.lists(st.one_of(st.integers(min_value=-3, max_value=60),
                          st.integers(min_value=-(2**66), max_value=2**66))))
def test_selection_normalised_to_sorted_unique_readonly_array(xs):
    if any(x < 0 or x > _INTP_MAX for x in xs):
        with pytest.raises(ValidationError):
            ReleaseRequest("q", (), xs)
        return
    request = ReleaseRequest("q", (), xs)
    sel = request.pa_selection
    assert sel.tolist() == sorted(set(xs))
    assert sel.dtype == np.intp
    assert not sel.flags.writeable
    round_trip = ReleaseRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert round_trip.pa_selection.tolist() == sel.tolist()


def test_selection_array_is_a_private_copy():
    blocks = np.array([3, 1, 2])
    request = ReleaseRequest("q", (), blocks)
    blocks[0] = 0
    assert request.pa_selection.tolist() == [1, 2, 3]


_CURVE = {"user": {"kind": "rdp", "curve": [0.1, 0.2]}}


@pytest.mark.parametrize(
    "fields",
    [
        {"pa_selection": [0, None]},
        {"pa_selection": [2, True]},
        {"pa_selection": [False]},
        {"pa_selection": ["x"]},
        {"pa_selection": [1.5]},
        {"pa_selection": [2**70]},
        {"pa_selection": [2**63]},
        {"pa_selection": [-1]},
        {"pa_selection": [[0, 1], [2, 3]]},
        {"pa_selection": [[0], 1]},
        {"pa_selection": "0"},
        {"pa_selection": None},
        {"pa_selection": {"start": 0}},
        {"pa_selection": {"length": 2}},
        {"pa_selection": {"start": "x", "length": 2}},
        {"utility": float("nan")},
        {"utility": "high"},
        {"utility": -1.0},
        {"time_step": "x"},
        {"time_step": 1.5},
        {"time_step": -1},
        {"time_step": [1]},
        {"mechanisms": 3},
    ],
)
def test_malformed_request_fails_closed(fields):
    doc = {"request_id": "q", "mechanisms": [{"cost_by_unit": _CURVE}], "pa_selection": [0]}
    doc.update(fields)
    with pytest.raises(ValidationError):
        ReleaseRequest.from_dict(doc, domain_size=4)
    with pytest.raises(ValidationError):
        ReleaseRequest.from_dict([doc], domain_size=4)


def test_rule_serialization_round_trip():
    from dpwarden.core import BASE_ATTRS, OrderKey, Provenance

    rule = Rule(
        "attr_risk.a1|context=standard",
        And((HasLabel("context", "standard"), AttrIntersects(frozenset({"a1"})))),
        "user",
        ADP(3.0, 1e-7),
        Provenance("attr_risk", 0, (("context", "standard"),)),
        OrderKey(BASE_ATTRS, frozenset({"a1"}), (0,), "user"),
    )
    assert Rule.from_dict(rule.to_dict()) == rule

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpwarden.core import (
    ADP,
    DEFAULT_ALPHA_ORDERS,
    And,
    AttrIntersects,
    HasLabel,
    LabelSet,
    Mechanism,
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
    OrderKey,
    predicate_to_dict,
)
from dpwarden.decision import BlockDomain, TimeAxis
from dpwarden.errors import ConfigError, ValidationError, VariantMismatch
from dpwarden.accounting import gaussian_curve
from dpwarden.workload import WorkloadConfig, request_cost_curve, run_scenario


def _padded(*head):
    """A curve over the alpha orders that starts with ``head``, zero after."""
    return tuple(head) + (0.0,) * (len(DEFAULT_ALPHA_ORDERS) - len(head))


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


def test_equal_label_sets_hash_equal():
    a = LabelSet({"attr": ["a1", "a2"], "context": ["standard"]})
    b = LabelSet({"context": ("standard",), "attr": {"a2", "a1"}, "empty": []})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, LabelSet({"attr": ["a1"]})}) == 2


@pytest.mark.parametrize("build", [
    lambda: LabelSet({"k\n": ["v"]}),
    lambda: LabelSet({"k": ["v\n"]}),
    lambda: HasLabel("k", "v\n"),
    lambda: AttrIntersects(frozenset({"a1\n"})),
    lambda: PrivacyUnit("user\n"),
])
def test_a_name_with_a_trailing_newline_is_refused(build):
    # `$` also matches before a final newline
    with pytest.raises(ValidationError):
        build()


def test_the_name_memo_takes_exact_strings_only():
    class LooksValid(str):
        def __eq__(self, other):
            return True

        def __hash__(self):
            return hash("v")

    HasLabel("k", "v")  # "v" is now remembered as valid
    with pytest.raises(ValidationError):
        HasLabel("k", LooksValid("has space"))


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
        RDP(_padded(0.1, -0.2))
    with pytest.raises(ValidationError):
        ZCDP(-0.1)


@pytest.mark.parametrize("length", [0, 1, len(DEFAULT_ALPHA_ORDERS) - 1, len(DEFAULT_ALPHA_ORDERS) + 1])
def test_rdp_rejects_curve_not_over_the_orders(length):
    with pytest.raises(ValidationError):
        RDP((0.1,) * length)
    with pytest.raises(ValidationError):
        budget_from_dict({"kind": "rdp", "curve": [0.1] * length})


def test_alpha_orders_are_a_valid_grid():
    orders = DEFAULT_ALPHA_ORDERS
    assert len(orders) > 0
    assert all(a > 1.0 for a in orders)
    assert all(a < b for a, b in zip(orders, orders[1:]))


def test_budget_rejects_nan():
    nan = float("nan")
    for make in (
        lambda: PureDP(nan),
        lambda: ADP(nan, 1e-7),
        lambda: ADP(1.0, nan),
        lambda: RDP(_padded(0.1, nan)),
        lambda: ZCDP(nan),
    ):
        with pytest.raises(ValidationError):
            make()
    # JSON's NaN token reaches the constructors through the request format
    curve = json.dumps(list(_padded(0.1, nan)))
    assert "NaN" in curve
    doc = json.loads(
        '{"request_id": "q", "pa_selection": [0], "mechanisms": [{"labels": {}, '
        '"cost_by_unit": {"user": {"kind": "rdp", "curve": %s}}}]}' % curve
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
            "rdp": (RDP(_padded(vals[0], vals[1])), RDP(_padded(vals[1], vals[2]))),
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
    for b in (PureDP(1.5), ADP(3, 1e-7), RDP(_padded(0.1, 0.2)), ZCDP(0.015)):
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


@pytest.mark.parametrize("factor", [1.9, True, "1"])
def test_group_factor_in_a_unit_document_must_be_an_integer(factor):
    """A factor read as 1 would add a cover edge, and so a pruning witness,
    that the document never declared."""
    doc = [{"name": "user", "group_factor_to": {"user-month": factor}}, {"name": "user-month"}]
    with pytest.raises(ValidationError, match="group factor user->user-month"):
        UnitGraph.from_dicts(doc)


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


@pytest.mark.parametrize("step", [True, 1.5, "1", np.float64(1.0), -1])
def test_request_time_step_is_a_count_in_process_too(step):
    """A step of 1.5 kept as 1.5 would address no granular cell and be
    charged to the historical interval."""
    with pytest.raises(ValidationError):
        ReleaseRequest("q", (), (0,), step)


@pytest.mark.parametrize("utility", [True, "0.5", float("inf"), float("nan")])
def test_request_utility_is_a_finite_number_in_process_too(utility):
    with pytest.raises(ValidationError):
        ReleaseRequest("q", (), (0,), None, utility)


def test_request_time_step_is_held_as_an_int():
    step = ReleaseRequest("q", (), (0,), np.int64(2)).time_step
    assert step == 2 and type(step) is int


_CURVE = {"user": {"kind": "rdp", "curve": list(_padded(0.1, 0.2))}}


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
        {"utility": "0.5"},
        {"utility": True},
        {"utility": "inf"},
        {"utility": float("inf")},
        {"utility": None},
        {"time_step": "x"},
        {"time_step": 1.5},
        {"time_step": -1},
        {"time_step": [1]},
        {"mechanisms": 3},
        {"time_step": True},
        {"pa_selection": {"start": True, "length": 2}},
        {"pa_selection": {"start": 0, "length": True}},
        {"pa_selection": {"start": 0, "length": -5}},
        {"pa_selection": {"start": -1, "length": 2}},
        {"pa_selection": {"start": 4, "length": 2}},
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


@pytest.mark.parametrize("doc", [
    {"kind": "adp", "epsilon": "3", "delta": "1e-7"},
    {"kind": "adp", "epsilon": float("inf"), "delta": 1e-7},
    {"kind": "adp", "epsilon": 3.0, "delta": True},
    {"kind": "pure_dp", "epsilon": True},
    {"kind": "rdp", "curve": [True] * len(DEFAULT_ALPHA_ORDERS)},
    {"kind": "rdp", "curve": ["0.1"] * len(DEFAULT_ALPHA_ORDERS)},
    {"kind": "zcdp", "rho": "inf"},
    {"kind": "zcdp", "rho": float("nan")},
])
def test_a_budget_document_reads_only_finite_numbers(doc):
    """``float()`` would read a string as its number, true as 1.0 and
    "inf" or 1e400 as an infinite budget that never binds."""
    with pytest.raises(ValidationError):
        budget_from_dict(doc)


@pytest.mark.parametrize("build", [
    lambda: LabelSet({"attr": {"age": 1}}),
    lambda: AttrIntersects({"age": 0}),
    lambda: predicate_from_dict({"op": "attr_intersects", "attrs": {"age": 0}}),
    lambda: PrivacyUnit("user", {"month": 1}),
    lambda: OrderKey.from_dict({"base": {"kind": "attrs", "attrs": {"a1": 0}}, "unit": "user"}),
])
def test_a_mapping_where_names_belong_is_refused(build):
    """A mapping would be read as its keys."""
    with pytest.raises(ValidationError):
        build()


def test_an_empty_attribute_set_is_kept():
    """A category with no member attributes compiles to one."""
    assert AttrIntersects(frozenset()).attrs == frozenset()
    assert predicate_from_dict({"op": "attr_intersects", "attrs": []}) == AttrIntersects(frozenset())


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: TimeAxis("month", 3, -1), ValidationError, "horizon", id="time-axis-negative-horizon"),
    pytest.param(lambda: BlockDomain(("pa",), 0), ValidationError, "domain size", id="domain-without-blocks"),
    pytest.param(lambda: UnitGraph([PrivacyUnit("user"), PrivacyUnit("user")]), ValidationError, "duplicate unit",
                 id="duplicate-unit"),
    pytest.param(lambda: PrivacyUnit("user", group_factor_to={"month": 0}), ValidationError, "group factor",
                 id="group-factor-below-1"),
    pytest.param(lambda: OrderKey("nope", (), (), "user"), ValidationError, "order-key kind",
                 id="unknown-order-key-kind"),
    pytest.param(lambda: Mechanism(LabelSet(), {"user": ADP(1.0, 1e-7)}), ValidationError, "RDP curve",
                 id="mechanism-cost-not-rdp"),
    pytest.param(lambda: run_scenario(WorkloadConfig(), mode="oracle"), ConfigError, "mode",
                 id="unknown-scenario-mode"),
    pytest.param(lambda: WorkloadConfig(requests_per_round=0), ConfigError, "request rate",
                 id="config-no-requests"),
    pytest.param(lambda: WorkloadConfig(total_epsilon=0.0), ConfigError, "total budget", id="config-no-budget"),
    pytest.param(lambda: WorkloadConfig(start_month=5, month_window=7), ConfigError, "start_month",
                 id="config-start-inside-window"),
    pytest.param(lambda: request_cost_curve("cauchy", 1.0, 1e-7), ConfigError, "family", id="unknown-cost-family"),
    pytest.param(lambda: expand_block_range(0, 2, None), ValidationError, "domain size",
                 id="block-range-without-domain"),
])
def test_each_refusal_raises_its_typed_error(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_request_round_trips_its_time_step():
    request = ReleaseRequest("q", (Mechanism(LabelSet({"attr": ["a1"]}), {"user": RDP(_padded(0.1))}),),
                             [3, 1], time_step=2, utility=0.5)
    doc = request.to_dict()
    assert doc["time_step"] == 2
    again = ReleaseRequest.from_dict(doc)
    assert again.to_dict() == doc and again.time_step == 2

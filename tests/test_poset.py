import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwarden.compiler import compile_policy_set, parse_policy_set
from dpwarden.core import (
    ADP,
    AttrIntersects,
    BASE_ATOMS,
    BASE_ATTRS,
    BASE_RANKS,
    BASE_TOP,
    HasLabel,
    OrderKey,
    PrivacyUnit,
    Provenance,
    Rule,
    TruePredicate,
    UnitGraph,
    ZCDP,
)
from dpwarden.errors import IncomparableKeys, ValidationError
from dpwarden.poset import (
    ComparisonStats,
    build_poset,
    prune,
    prune_with_report,
    rule_leq,
    to_dot,
)

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _util import hasse_fixture, random_rule_set, unit_layout  # noqa: E402


def _user():
    return UnitGraph([PrivacyUnit("user")])


def attr_rule(rule_id, attrs, eps, unit="user", ranks=()):
    return Rule(
        rule_id,
        AttrIntersects(frozenset(attrs)),
        unit,
        ADP(eps, 1e-7),
        Provenance("t", 0),
        OrderKey(BASE_ATTRS, frozenset(attrs), ranks, unit),
    )


def test_rule_leq_reflexive_and_subset():
    units = _user()
    r1 = attr_rule("r1", {"a1"}, 3.0)
    r2 = attr_rule("r2", {"a1", "a2", "a3"}, 5.0)
    assert rule_leq(r1, r1, units)
    assert rule_leq(r1, r2, units)
    assert not rule_leq(r2, r1, units)


def test_rule_leq_incomparable_units():
    units = UnitGraph([
        PrivacyUnit("user"),
        PrivacyUnit("user-week", ord_above=frozenset({"user"})),
        PrivacyUnit("user-month", ord_above=frozenset({"user"})),
    ])
    week = attr_rule("w", {"a1"}, 3.0, unit="user-week")
    month = attr_rule("m", {"a1"}, 3.0, unit="user-month")
    assert not rule_leq(week, month, units)
    assert not rule_leq(month, week, units)
    user = attr_rule("u", {"a1"}, 3.0, unit="user")
    assert rule_leq(week, user, units) and rule_leq(month, user, units)


def test_rule_leq_mixed_kinds_raise():
    units = _user()
    a = attr_rule("a", {"a1"}, 3.0)
    b = Rule("b", HasLabel("k", "v"), "user", ADP(3, 1e-7), Provenance("t", 0),
             OrderKey(BASE_ATOMS, frozenset({("k", "v")}), (), "user"))
    c = Rule("c", TruePredicate(), "user", ADP(3, 1e-7), Provenance("t", 0),
             OrderKey(BASE_RANKS, (1, 2), (), "user"))
    with pytest.raises(IncomparableKeys):
        rule_leq(a, b, units)
    with pytest.raises(IncomparableKeys):
        rule_leq(b, c, units)
    # everything compares against a top key
    top = Rule("t", TruePredicate(), "user", ADP(9, 1e-7), Provenance("t", 0),
               OrderKey("top", (), (), "user"))
    assert rule_leq(a, top, units) and rule_leq(b, top, units) and rule_leq(c, top, units)


def test_atom_conjunction_superset_is_smaller():
    units = _user()
    narrow = Rule("n", HasLabel("k", "v"), "user", ADP(3, 1e-7), Provenance("t", 0),
                  OrderKey(BASE_ATOMS, frozenset({("k", "v"), ("j", "w")}), (), "user"))
    wide = Rule("w", HasLabel("k", "v"), "user", ADP(3, 1e-7), Provenance("t", 0),
                OrderKey(BASE_ATOMS, frozenset({("k", "v")}), (), "user"))
    assert rule_leq(narrow, wide, units)
    assert not rule_leq(wide, narrow, units)


def test_hasse_fixture_covers():
    rules, units = hasse_fixture()
    poset = build_poset(rules, units)
    ids = [r.rule_id for r in poset.rules]

    def cover(rule_id):
        return {ids[j] for j in poset.lower_cover_indices(ids.index(rule_id))}

    assert cover("r1") == {"r2", "r3", "r4"}
    assert cover("r2") == {"r5", "r6"}
    assert cover("r3") == {"r6"}
    assert cover("r4") == {"r7"}
    assert cover("r6") == set()


def test_hasse_fixture_non_constraining():
    rules, units = hasse_fixture()
    active, records = prune_with_report(build_poset(rules, units))
    assert "r2" in {rec.rule_id for rec in records}
    assert "r6" not in {rec.rule_id for rec in records}
    assert "r6" in {r.rule_id for r in active.rules}


def test_singleton_rule_is_constraining():
    units = _user()
    active, records = prune_with_report(build_poset([attr_rule("only", {"a1"}, 3.0)], units))
    assert records == []
    assert [r.rule_id for r in active.rules] == ["only"]


def test_hasse_fixture_prunes_grey_rules():
    rules, units = hasse_fixture()
    active, records = prune_with_report(build_poset(rules, units))
    assert {r.rule_id for r in active.rules} == {"r1", "r4", "r6"}
    assert {rec.rule_id for rec in records} == {"r2", "r3", "r5", "r7"}
    for rec in records:
        assert rec.pruned_by in {"r1", "r4"}


def test_chain_with_identical_budgets_keeps_only_top():
    units = _user()
    chain = [
        attr_rule("bottom", {"a1"}, 5.0),
        attr_rule("middle", {"a1", "a2"}, 5.0),
        attr_rule("top", {"a1", "a2", "a3"}, 5.0),
    ]
    active = prune(build_poset(chain, units))
    assert [r.rule_id for r in active.rules] == ["top"]


def test_strictly_decreasing_chain_keeps_everything():
    units = _user()
    chain = [
        attr_rule("bottom", {"a1"}, 1.0),
        attr_rule("middle", {"a1", "a2"}, 2.0),
        attr_rule("top", {"a1", "a2", "a3"}, 3.0),
    ]
    active = prune(build_poset(chain, units))
    assert {r.rule_id for r in active.rules} == {"bottom", "middle", "top"}


def test_equal_scope_equal_budget_keeps_exactly_one():
    units = _user()
    twins = [attr_rule("first", {"a1"}, 2.0), attr_rule("second", {"a1"}, 2.0)]
    active = prune(build_poset(twins, units))
    assert [r.rule_id for r in active.rules] == ["first"]


def test_cross_variant_budgets_never_pruned():
    units = _user()
    rules = [
        attr_rule("small", {"a1"}, 2.0),
        Rule("big", AttrIntersects(frozenset({"a1", "a2"})), "user", ZCDP(0.001),
             Provenance("t", 0), OrderKey(BASE_ATTRS, frozenset({"a1", "a2"}), (), "user")),
    ]
    active = prune(build_poset(rules, units))
    assert {r.rule_id for r in active.rules} == {"small", "big"}


def test_cross_unit_domination_uses_declared_factor():
    units = UnitGraph([
        PrivacyUnit("user", group_factor_to={"user-month": 1}),
        PrivacyUnit("user-month", ord_above=frozenset({"user"})),
    ])
    month_rule = attr_rule("month", {"a1"}, 3.0, unit="user-month")
    user_rule = attr_rule("user", {"a1", "a2"}, 3.0, unit="user")
    active = prune(build_poset([month_rule, user_rule], units))
    assert {r.rule_id for r in active.rules} == {"user"}

    # without a declared conversion factor both rules must stay
    units_nofactor = UnitGraph([
        PrivacyUnit("user"),
        PrivacyUnit("user-month", ord_above=frozenset({"user"})),
    ])
    active = prune(build_poset([month_rule, user_rule], units_nofactor))
    assert {r.rule_id for r in active.rules} == {"month", "user"}


def test_prune_idempotent_on_random_posets():
    rng = np.random.default_rng(42)
    for _ in range(200):
        rules, units = random_rule_set(rng)
        once = prune(build_poset(rules, units))
        twice = prune(once)
        assert [r.rule_id for r in once.rules] == [r.rule_id for r in twice.rules]


def test_prune_never_removes_strictly_tighter_rules():
    rng = np.random.default_rng(43)
    for _ in range(200):
        rules, units = random_rule_set(rng)
        poset = build_poset(rules, units)
        active_ids = {r.rule_id for r in prune(poset).rules}
        for i, rule in enumerate(poset.rules):
            dominators = np.flatnonzero(poset.leq[i]).tolist()
            if not dominators:
                assert rule.rule_id in active_ids
                continue
            strictly_below_all = all(
                rule.budget.epsilon < poset.rules[j].budget.epsilon for j in dominators
            )
            if strictly_below_all:
                assert rule.rule_id in active_ids


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), twins=st.lists(st.integers(0, 11), min_size=1, max_size=3))
def test_lower_covers_are_the_maximal_strict_predecessors(seed, twins):
    rules, units = random_rule_set(np.random.default_rng(seed))
    # a rule's copy under another id is scope-equivalent to it: each lies
    # below the other, so neither is a strict predecessor of the other
    rules += [dataclasses.replace(rules[k % len(rules)], rule_id=f"twin{n}") for n, k in enumerate(twins)]
    poset = build_poset(rules, units)

    def below(a, b):
        try:
            return rule_leq(rules[a], rules[b], units) and not rule_leq(rules[b], rules[a], units)
        except IncomparableKeys:
            return False

    for i in range(len(rules)):
        strict = [j for j in range(len(rules)) if below(j, i)]
        want = tuple(j for j in strict if not any(below(j, k) for k in strict))
        assert poset.lower_cover_indices(i) == want


def test_comparison_count_within_decomposition_bound():
    cfg_doc = {
        "units": [{"name": "user"}],
        "attributes": [f"a{i}" for i in range(40)],
        "categories": [],
        "base_policies": [
            {
                "type": "custom",
                "name": "global",
                "unit": "user",
                "predicate": {"op": "true"},
                "budget": {"kind": "adp", "epsilon": 10, "delta": 1e-7},
            },
            {
                "type": "per_attribute",
                "name": "attrs",
                "unit": "user",
                "risk_budgets": {"low": {"kind": "adp", "epsilon": 20, "delta": 1e-7}},
                "attributes": {f"a{i}": "low" for i in range(40)},
            },
        ],
        "extension_policies": [
            {
                "name": "ctx",
                "extensions": [
                    {"name": "std", "predicate": {"op": "has_label", "key": "c", "value": "s"},
                     "budget_fn": {"kind": "identity"}, "rank": 0},
                    {"name": "all", "predicate": {"op": "true"},
                     "budget_fn": {"kind": "scale", "factor": 2.0}, "rank": 1},
                ],
            }
        ],
    }
    ps = parse_policy_set(cfg_doc)
    base = ps.base_rules
    final = compile_policy_set(ps)
    poset = build_poset(final, ps.unit_graph())
    n_base = len(base)
    ext_sizes = [len(ep.extensions) for ep in ps.extension_policies]
    bound = n_base**2 + sum(s**2 for s in ext_sizes)
    assert poset.stats.distinct_base_keys == n_base
    assert poset.stats.base_comparisons <= bound
    # far below the naive all-pairs predicate comparison count
    assert poset.stats.base_comparisons < len(final) * (len(final) - 1)


def test_dot_export_marks_pruned():
    rules, units = hasse_fixture()
    poset = build_poset(rules, units)
    _, records = prune_with_report(poset)
    dot = to_dot(poset, [rec.rule_id for rec in records])
    assert dot.startswith("digraph")
    assert dot.count("grey80") == 4
    assert "->" in dot


def _custom(name, epsilon):
    return {"type": "custom", "name": name, "unit": "user", "predicate": {"op": "true"},
            "budget": {"kind": "adp", "epsilon": epsilon, "delta": 1e-7}}


def _duplicate_from_policy_names():
    # a custom policy named like the rule a per-attribute policy generates
    return {
        "units": [{"name": "user"}],
        "attributes": ["a1"],
        "base_policies": [
            _custom("attrs.a1", 10.0),
            {"type": "per_attribute", "name": "attrs", "unit": "user",
             "risk_budgets": {"low": {"kind": "adp", "epsilon": 1.0, "delta": 1e-7}},
             "attributes": {"a1": "low"}},
        ],
    }, "attrs.a1"


def _duplicate_from_extension_names():
    ext = {"name": "x", "predicate": {"op": "true"}, "budget_fn": {"kind": "identity"}, "rank": 1}
    narrow = dict(ext, predicate={"op": "has_label", "key": "c", "value": "s"}, rank=0)
    return {
        "units": [{"name": "user"}],
        "base_policies": [_custom("global", 10.0)],
        "extension_policies": [{"name": "ctx", "extensions": [narrow, ext]}],
    }, "global|ctx=x"


@pytest.mark.parametrize("document", [_duplicate_from_policy_names, _duplicate_from_extension_names])
def test_build_poset_refuses_duplicate_rule_ids(document):
    # two rules under one id would share one accumulator in the filter state
    doc, rule_id = document()
    ps = parse_policy_set(doc)
    rules = compile_policy_set(ps)
    with pytest.raises(ValidationError, match=re.escape(f"duplicate rule id {rule_id!r}")):
        build_poset(rules, ps.unit_graph())


def _pairwise_relation(rules, units):
    """ups and stats by their pairwise definitions: rule_leq on every
    ordered pair, with incomparable keys read as False, and the distinct
    base-key pairs a != b whose rules pass the extension and unit tests."""

    def leq(ri, rj):
        try:
            return rule_leq(ri, rj, units)
        except IncomparableKeys:
            return False

    def base(r):
        return (r.order_key.base_kind, r.order_key.base_value)

    ups = [{j for j, rj in enumerate(rules) if j != i and leq(ri, rj)} for i, ri in enumerate(rules)]
    reached = {
        (base(ri), base(rj))
        for ri in rules
        for rj in rules
        if base(ri) != base(rj)
        and all(a <= b for a, b in zip(ri.order_key.ext_ranks, rj.order_key.ext_ranks))
        and units.leq(ri.unit, rj.unit)
    }
    return ups, ComparisonStats(len(reached), len({base(r) for r in rules}))


def _ups(leq):
    """Each row of an order matrix as the set of indices above it."""
    return [set(np.flatnonzero(row).tolist()) for row in leq]


def _assert_matches_pairwise(rules, units):
    poset = build_poset(rules, units)
    ups, stats = _pairwise_relation(rules, units)
    assert poset.rules == tuple(rules)
    assert poset.leq.dtype == bool and _ups(poset.leq) == ups
    assert poset.stats == stats
    # pruning restricts that relation to the active rules and compares nothing
    active = prune(poset)
    active_ups, active_stats = _pairwise_relation(list(active.rules), units)
    assert _ups(active.leq) == active_ups
    assert active.stats == ComparisonStats(0, active_stats.distinct_base_keys)


_KINDS = (BASE_TOP, BASE_ATTRS, BASE_ATOMS, BASE_RANKS)


@st.composite
def _keyed_rule_sets(draw):
    """Rules with keys of all four base kinds, mixed in one set, ``ranks``
    tuples of unequal lengths, one extension-rank arity per set and a unit
    layout from ``unit_layout``; the set may be empty."""
    units = unit_layout(np.random.default_rng(draw(st.integers(0, 2**16))))
    names = sorted(units.units)
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4, unique=True))
    arity = draw(st.integers(0, 2))
    small = st.integers(0, 2)
    values = {
        BASE_TOP: st.just(()),
        BASE_ATTRS: st.frozensets(st.sampled_from([f"a{i}" for i in range(5)]), max_size=4),
        BASE_ATOMS: st.frozensets(st.tuples(st.sampled_from("kl"), st.sampled_from("uvw")), max_size=3),
        BASE_RANKS: st.lists(small, min_size=0, max_size=3).map(tuple),
    }
    rules = []
    for i in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        unit = draw(st.sampled_from(names))
        key = OrderKey(kind, draw(values[kind]), tuple(draw(small) for _ in range(arity)), unit)
        budget = ADP(draw(st.sampled_from([1.0, 2.0])), 1e-7)
        rules.append(Rule(f"r{i}", TruePredicate(), unit, budget, Provenance("prop", i), key))
    return rules, units


@settings(max_examples=300, deadline=None)
@given(_keyed_rule_sets())
def test_build_poset_equals_the_pairwise_order(drawn):
    _assert_matches_pairwise(*drawn)


def test_build_poset_equals_the_pairwise_order_at_paper_scale():
    from dpwarden.workload import WorkloadConfig, build_policy_document, build_schema

    cfg = WorkloadConfig.paper_scale("s2", 10.0, 0)
    ps = parse_policy_set(build_policy_document(cfg, build_schema(cfg)))
    rules = compile_policy_set(ps)
    assert len(rules) == 181
    _assert_matches_pairwise(rules, ps.unit_graph())

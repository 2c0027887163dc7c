import json

import numpy as np
import pytest

from dpwarden.compiler import (
    Extension,
    ExtensionPolicy,
    Identity,
    MapTable,
    Scale,
    apply_extensions,
    compile_policy_set,
    generate_base_rules,
    parse_policy_set,
)
from dpwarden.core import (
    ADP,
    AttrIntersects,
    HasLabel,
    LabelSet,
    PureDP,
    RDP,
    TruePredicate,
    ZCDP,
    eval_predicate,
)
from dpwarden.errors import (
    BudgetFnDomain,
    ParseError,
    UnsupportedVariant,
    ValidationError,
)
from dpwarden.workload import S1_BUDGET_TABLE, WorkloadConfig, build_policy_document, build_schema


def adp(eps, delta=1e-7):
    return {"kind": "adp", "epsilon": eps, "delta": delta}


def minimal_doc():
    return {
        "units": [{"name": "user"}],
        "attributes": [],
        "categories": [],
        "base_policies": [
            {
                "type": "custom",
                "name": "global",
                "unit": "user",
                "predicate": {"op": "true"},
                "budget": adp(10.0),
            }
        ],
        "extension_policies": [],
    }


def context_extension_policy(name="context"):
    return {
        "name": name,
        "extensions": [
            {
                "name": "standard",
                "predicate": {"op": "has_label", "key": "context", "value": "standard"},
                "budget_fn": {"kind": "identity"},
                "rank": 0,
            },
            {
                "name": "total",
                "predicate": {"op": "true"},
                "budget_fn": {"kind": "map_table", "knots": [list(k) for k in S1_BUDGET_TABLE]},
                "rank": 1,
            },
        ],
    }


def test_parse_minimal_document():
    ps = parse_policy_set(json.dumps(minimal_doc()))
    rules = generate_base_rules(ps)
    assert len(rules) == 1
    assert rules[0].unit == "user"
    assert rules[0].budget == ADP(10.0, 1e-7)


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_policy_set("{not json")


def test_missing_match_all_extension_rejected():
    doc = minimal_doc()
    doc["extension_policies"] = [
        {
            "name": "context",
            "extensions": [
                {
                    "name": "standard",
                    "predicate": {"op": "has_label", "key": "context", "value": "standard"},
                    "budget_fn": {"kind": "identity"},
                    "rank": 0,
                }
            ],
        }
    ]
    with pytest.raises(ValidationError):
        parse_policy_set(doc)


def test_unknown_references_rejected():
    doc = minimal_doc()
    doc["base_policies"][0]["unit"] = "ghost"
    with pytest.raises(ValidationError):
        parse_policy_set(doc)

    doc = minimal_doc()
    doc["base_policies"].append(
        {
            "type": "per_attribute",
            "name": "attrs",
            "unit": "user",
            "risk_budgets": {"low": adp(20)},
            "attributes": {"ghost": "low"},
        }
    )
    with pytest.raises(ValidationError):
        parse_policy_set(doc)


def test_non_monotone_map_table_rejected():
    with pytest.raises(ValidationError):
        MapTable(((1.7, 3.0), (1.8, 2.0)))
    with pytest.raises(ValidationError):
        MapTable(((1.8, 3.0), (1.7, 5.0)))


def test_custom_predicate_needs_annotation():
    doc = minimal_doc()
    doc["base_policies"].append(
        {
            "type": "custom",
            "name": "weird",
            "unit": "user",
            "predicate": {"op": "not", "part": {"op": "has_label", "key": "k", "value": "v"}},
            "budget": adp(1.0),
        }
    )
    with pytest.raises(ValidationError):
        parse_policy_set(doc)
    doc["base_policies"][-1]["annotation"] = [1, 0]
    parse_policy_set(doc)


def test_s2_document_yields_181_intermediate_rules():
    cfg = WorkloadConfig(scenario="s2", total_epsilon=20.0, rng_seed=0)
    ps = parse_policy_set(build_policy_document(cfg, build_schema(cfg)))
    rules = generate_base_rules(ps)
    assert len(rules) == 1 + 150 + 10 * 3


def test_adding_two_extension_policy_doubles_to_362():
    cfg = WorkloadConfig(scenario="s2", total_epsilon=20.0, rng_seed=0)
    doc = build_policy_document(cfg, build_schema(cfg))
    doc["extension_policies"] = [context_extension_policy()]
    ps = parse_policy_set(doc)
    assert len(compile_policy_set(ps)) == 362


def test_per_attribute_budgets_by_risk():
    doc = minimal_doc()
    doc["attributes"] = ["a1", "a2", "a3"]
    doc["base_policies"].append(
        {
            "type": "per_attribute",
            "name": "attrs",
            "unit": "user",
            "risk_budgets": {"high": adp(3), "low": adp(20)},
            "attributes": {"a1": "high", "a2": "low", "a3": adp(4)},
        }
    )
    rules = {r.rule_id: r for r in generate_base_rules(parse_policy_set(doc))}
    assert rules["attrs.a1"].budget == ADP(3, 1e-7)
    assert rules["attrs.a2"].budget == ADP(20, 1e-7)
    assert rules["attrs.a3"].budget == ADP(4, 1e-7)
    assert rules["attrs.a1"].predicate == AttrIntersects(frozenset({"a1"}))


def test_category_levels_nest_and_scale():
    doc = minimal_doc()
    doc["attributes"] = ["a1", "a2", "a3"]
    doc["categories"] = ["c1"]
    doc["base_policies"].append(
        {
            "type": "category",
            "name": "cats",
            "unit": "user",
            "risk_budgets": {"high": adp(5)},
            "categories": {"c1": "high"},
            "membership": {
                "a1": {"c1": "member"},
                "a2": {"c1": "strong"},
                "a3": {"c1": "weak"},
            },
            "level_functions": {
                "strong": {"kind": "scale", "factor": 1.5},
                "weak": {"kind": "scale", "factor": 2.0},
            },
        }
    )
    rules = {r.rule_id: r for r in generate_base_rules(parse_policy_set(doc))}
    assert rules["cats.c1.member"].budget.epsilon == pytest.approx(5.0)
    assert rules["cats.c1.strong"].budget.epsilon == pytest.approx(7.5)
    assert rules["cats.c1.weak"].budget.epsilon == pytest.approx(10.0)
    assert rules["cats.c1.member"].predicate == AttrIntersects(frozenset({"a1"}))
    assert rules["cats.c1.strong"].predicate == AttrIntersects(frozenset({"a1", "a2"}))
    assert rules["cats.c1.weak"].predicate == AttrIntersects(frozenset({"a1", "a2", "a3"}))


def test_empty_policy_set_generates_no_rules():
    doc = minimal_doc()
    doc["base_policies"] = []
    assert generate_base_rules(parse_policy_set(doc)) == []


def test_extension_expansion_s1_budgets():
    doc = minimal_doc()
    doc["base_policies"][0]["budget"] = adp(1.7)
    doc["extension_policies"] = [context_extension_policy()]
    rules = {r.rule_id: r for r in compile_policy_set(parse_policy_set(doc))}
    assert len(rules) == 2
    standard = rules["global|context=standard"]
    total = rules["global|context=total"]
    assert standard.budget.epsilon == pytest.approx(1.7)
    assert total.budget.epsilon == pytest.approx(3.0)
    blackbox = LabelSet({"context": ["blackbox-ml"]})
    std = LabelSet({"context": ["standard"]})
    assert eval_predicate(total.predicate, blackbox) and eval_predicate(total.predicate, std)
    assert eval_predicate(standard.predicate, std)
    assert not eval_predicate(standard.predicate, blackbox)


def test_rule_count_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        doc = minimal_doc()
        n_attrs = int(rng.integers(0, 6))
        doc["attributes"] = [f"a{i}" for i in range(n_attrs)]
        if n_attrs:
            doc["base_policies"].append(
                {
                    "type": "per_attribute",
                    "name": "attrs",
                    "unit": "user",
                    "risk_budgets": {"low": adp(20)},
                    "attributes": {a: "low" for a in doc["attributes"]},
                }
            )
        sizes = []
        for p in range(int(rng.integers(0, 3))):
            n_ext = int(rng.integers(2, 5))
            sizes.append(n_ext)
            exts = [
                {
                    "name": "all",
                    "predicate": {"op": "true"},
                    "budget_fn": {"kind": "scale", "factor": 2.0},
                    "rank": n_ext - 1,
                }
            ]
            for k in range(n_ext - 1):
                exts.append(
                    {
                        "name": f"e{k}",
                        "predicate": {"op": "has_label", "key": f"dim{p}", "value": f"v{k}"},
                        "budget_fn": {"kind": "identity"},
                        "rank": k,
                    }
                )
            doc["extension_policies"].append({"name": f"p{p}", "extensions": exts})
        ps = parse_policy_set(doc)
        base = generate_base_rules(ps)
        final = compile_policy_set(ps)
        expect = len(base)
        for s in sizes:
            expect *= s
        assert len(final) == expect


def test_match_all_extension_preserves_coverage():
    rng = np.random.default_rng(3)
    doc = minimal_doc()
    doc["attributes"] = ["a1", "a2"]
    doc["base_policies"].append(
        {
            "type": "per_attribute",
            "name": "attrs",
            "unit": "user",
            "risk_budgets": {"low": adp(20)},
            "attributes": {"a1": "low", "a2": "low"},
        }
    )
    doc["extension_policies"] = [context_extension_policy("ctx1")]
    ps = parse_policy_set(doc)
    base = generate_base_rules(ps)
    final = compile_policy_set(ps)
    by_base = {}
    for r in final:
        by_base.setdefault((r.provenance.policy, r.provenance.index), []).append(r)
    for _ in range(200):
        labels = LabelSet(
            {
                "attr": list(rng.choice(["a1", "a2", "a3"], size=int(rng.integers(1, 3)), replace=False)),
                "context": [str(rng.choice(["standard", "blackbox-ml"]))],
            }
        )
        for b in base:
            if eval_predicate(b.predicate, labels):
                family = by_base[(b.provenance.policy, b.provenance.index)]
                assert any(eval_predicate(r.predicate, labels) for r in family)


def test_map_table_interpolation_and_clamping():
    table = MapTable(S1_BUDGET_TABLE)
    assert table.map_value(1.7) == 3.0
    assert table.map_value(2.5) == 20.0
    assert table.map_value(1.75) == pytest.approx(4.0)  # midway between 3 and 5
    assert table.map_value(0.5) == 3.0
    assert table.map_value(9.0) == 20.0
    strict = MapTable(S1_BUDGET_TABLE, clamp=False)
    with pytest.raises(BudgetFnDomain):
        strict.map_value(0.5)


def test_budget_fn_variants():
    assert Scale(1.5).apply(ADP(2, 1e-7)) == ADP(3, 1e-7)
    assert Scale(2.0).apply(ZCDP(0.1)) == ZCDP(0.2)
    assert Scale(3.0).apply(PureDP(1)) == PureDP(3)
    assert Scale(2.0).apply(RDP((0.5, 1.0))) == RDP((1.0, 2.0))
    for factor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError):
            Scale(factor)
    assert Identity().apply(ADP(2, 1e-7)) == ADP(2, 1e-7)
    with pytest.raises(UnsupportedVariant):
        from dpwarden.accounting import gaussian_curve

        MapTable(S1_BUDGET_TABLE).apply(gaussian_curve(0.1))


def test_extension_unit_scope_filters_budget_fn():
    base = generate_base_rules(
        parse_policy_set(
            {
                "units": [
                    {"name": "user", "group_factor_to": {"user-month": 1}},
                    {"name": "user-month", "above": ["user"]},
                ],
                "base_policies": [
                    {
                        "type": "custom",
                        "name": "g_user",
                        "unit": "user",
                        "predicate": {"op": "true"},
                        "budget": adp(2.0),
                    },
                    {
                        "type": "custom",
                        "name": "g_month",
                        "unit": "user-month",
                        "predicate": {"op": "true"},
                        "budget": adp(2.0),
                    },
                ],
            }
        )
    )
    policy = ExtensionPolicy(
        "ctx",
        (
            Extension("std", HasLabel("context", "standard"), Identity(), 0),
            Extension("all", TruePredicate(), Scale(2.0), 1, unit_scope=frozenset({"user"})),
        ),
    )
    out = {r.rule_id: r for r in apply_extensions(base, [policy])}
    assert out["g_user|ctx=all"].budget.epsilon == pytest.approx(4.0)
    # out-of-scope unit keeps its budget but still gets the refined predicate
    assert out["g_month|ctx=all"].budget.epsilon == pytest.approx(2.0)
    assert len(out) == 4


def test_extension_policy_order_independence():
    # commuting (all-Scale) budget functions: permuting the extension
    # policies must not change any accept/reject decision
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from _util import random_request

    from dpwarden.core import Mechanism, ReleaseRequest, UnitGraph, PrivacyUnit
    from dpwarden.decision import BlockDomain, DecisionPoint
    from dpwarden.poset import build_poset

    def ext_policy(name, key, factor):
        return {
            "name": name,
            "extensions": [
                {"name": "narrow", "predicate": {"op": "has_label", "key": key, "value": "v"},
                 "budget_fn": {"kind": "identity"}, "rank": 0},
                {"name": "all", "predicate": {"op": "true"},
                 "budget_fn": {"kind": "scale", "factor": factor}, "rank": 1},
            ],
        }

    doc = minimal_doc()
    doc["attributes"] = ["a1", "a2"]
    doc["base_policies"][0]["budget"] = adp(0.4)
    doc["base_policies"].append(
        {
            "type": "per_attribute",
            "name": "attrs",
            "unit": "user",
            "risk_budgets": {"low": adp(0.3)},
            "attributes": {"a1": "low", "a2": "low"},
        }
    )
    forward = dict(doc, extension_policies=[ext_policy("p1", "d1", 1.5), ext_policy("p2", "d2", 2.0)])
    reverse = dict(doc, extension_policies=[ext_policy("p2", "d2", 2.0), ext_policy("p1", "d1", 1.5)])

    rng = np.random.default_rng(9)
    from dpwarden.accounting import gaussian_curve

    requests = []
    for i in range(60):
        labels = {"attr": [str(rng.choice(["a1", "a2"]))]}
        for key in ("d1", "d2"):
            if rng.random() < 0.5:
                labels[key] = ["v"]
        cost = gaussian_curve(float(rng.uniform(0.001, 0.01)))
        requests.append(
            ReleaseRequest(f"q{i}", (Mechanism(LabelSet(labels), {"user": cost}),), (0,), None, 1.0)
        )

    decisions = []
    for variant in (forward, reverse):
        ps = parse_policy_set(variant)
        point = DecisionPoint(
            build_poset(compile_policy_set(ps), ps.unit_graph()), domain=BlockDomain((), 1)
        )
        decisions.append([point.process(q).accepted for q in requests])
    assert decisions[0] == decisions[1]
    assert True in decisions[0] and False in decisions[0]


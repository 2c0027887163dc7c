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
    budget_fn_from_dict,
    compile_policy_set,
    parse_policy_set,
)
from dpwarden.core import (
    ADP,
    DEFAULT_ALPHA_ORDERS,
    AttrIntersects,
    HasLabel,
    LabelSet,
    Provenance,
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
    rules = ps.base_rules
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
    rules = ps.base_rules
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
    rules = {r.rule_id: r for r in parse_policy_set(doc).base_rules}
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
    rules = {r.rule_id: r for r in parse_policy_set(doc).base_rules}
    assert rules["cats.c1.member"].budget.epsilon == pytest.approx(5.0)
    assert rules["cats.c1.strong"].budget.epsilon == pytest.approx(7.5)
    assert rules["cats.c1.weak"].budget.epsilon == pytest.approx(10.0)
    assert rules["cats.c1.member"].predicate == AttrIntersects(frozenset({"a1"}))
    assert rules["cats.c1.strong"].predicate == AttrIntersects(frozenset({"a1", "a2"}))
    assert rules["cats.c1.weak"].predicate == AttrIntersects(frozenset({"a1", "a2", "a3"}))


def test_rule_generation_errors_surface_at_parse():
    doc = minimal_doc()
    doc["attributes"], doc["categories"] = ["a1"], ["c1"]
    doc["base_policies"].append(
        {
            "type": "category",
            "name": "cats",
            "unit": "user",
            "risk_budgets": {
                "high": {"kind": "zcdp", "rho": 0.5},
                "rdp": {"kind": "rdp", "curve": [0.1] * len(DEFAULT_ALPHA_ORDERS)},
            },
            "categories": {"c1": "rdp"},
            "membership": {"a1": {"c1": "member"}},
            "level_functions": {"strong": {"kind": "map_table", "knots": [[1.0, 2.0], [3.0, 4.0]]}},
        }
    )
    with pytest.raises(UnsupportedVariant):
        parse_policy_set(doc)
    doc["base_policies"][-1]["categories"]["c1"] = "high"
    with pytest.raises(UnsupportedVariant):  # budget maps take ADP budgets only
        parse_policy_set(doc)
    doc["base_policies"][-1]["risk_budgets"]["high"] = adp(0.5)
    doc["base_policies"][-1]["level_functions"]["strong"]["clamp"] = False
    with pytest.raises(BudgetFnDomain):
        parse_policy_set(doc)


@pytest.mark.parametrize("budget", [{"kind": "zcdp", "rho": 1.0}, {"kind": "pure_dp", "epsilon": 1.0},
                                    {"kind": "adp", "epsilon": 1.0, "delta": 0.0}])
def test_a_rule_budget_no_filter_can_enforce_is_refused(budget):
    doc = minimal_doc()
    doc["base_policies"][0]["budget"] = budget
    with pytest.raises(ValidationError, match="rule 'global'"):
        parse_policy_set(doc)
    doc = minimal_doc()
    doc["per_release_policies"] = [{"name": "cap", "unit": "user", "predicate": {"op": "true"}, "budget": budget}]
    with pytest.raises(ValidationError, match="rule 'cap'"):
        parse_policy_set(doc)


def test_empty_policy_set_generates_no_rules():
    doc = minimal_doc()
    doc["base_policies"] = []
    assert parse_policy_set(doc).base_rules == ()


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
        base = ps.base_rules
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
    base = ps.base_rules
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
    for unenforceable in (ZCDP(0.1), PureDP(1)):  # no rule budget has these variants
        with pytest.raises(UnsupportedVariant):
            Scale(2.0).apply(unenforceable)
        with pytest.raises(UnsupportedVariant):
            MapTable(S1_BUDGET_TABLE).apply(unenforceable)
    pad = (0.0,) * (len(DEFAULT_ALPHA_ORDERS) - 2)
    assert Scale(2.0).apply(RDP((0.5, 1.0) + pad)) == RDP((1.0, 2.0) + pad)
    for factor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError):
            Scale(factor)
    assert Identity().apply(ADP(2, 1e-7)) == ADP(2, 1e-7)
    with pytest.raises(UnsupportedVariant):
        from dpwarden.accounting import gaussian_curve

        MapTable(S1_BUDGET_TABLE).apply(gaussian_curve(0.1))


def test_extension_unit_scope_filters_budget_fn():
    base = parse_policy_set(
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
    ).base_rules
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
    from dpwarden.core import Mechanism, ReleaseRequest
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



# sha256 of the compiled, pruned and pruning-record dicts (plus units and
# per-release rules) of each desk-scale scenario document at seed 0
COMPILED_DIGESTS = {
    ("s1", 3.0): "6c96e2f135d9c07e3c0ea63157d0f764fad7e0a60a537a8ed99aa85921aa3d44",
    ("s1", 20.0): "eb7e2e655ea52dbc571603fc75f7e4ae13767092bf743b0fa06a06fa5efd0c9f",
    ("s2", 3.0): "5061af70c59ba690f7bf4b0e5398ce91fe50aa954c9b63ad5e3d82d2a6cac6d6",
    ("s2", 20.0): "47db0fa54fba54206520e457e517ecb6d773b15a01b955208cb78b307f42ab9f",
    ("s3", 3.0): "ab7fd0eb4105e7b22e34f81e2d7534bb48d65b88959ccd09db42f8c40a23c689",
    ("s3", 20.0): "56b8d38b60addf5cf7c881f8e178ecb9de73207704e32330490676088c94ae57",
}


@pytest.mark.parametrize("scenario, epsilon", sorted(COMPILED_DIGESTS))
def test_compiled_output_of_the_scenario_documents_is_pinned(scenario, epsilon):
    import hashlib

    from dpwarden.poset import build_poset, prune_with_report

    cfg = WorkloadConfig.desk_scale(scenario, epsilon)
    ps = parse_policy_set(build_policy_document(cfg, build_schema(cfg)))
    units = ps.unit_graph()
    rules = compile_policy_set(ps)
    pruned, records = prune_with_report(build_poset(rules, units))
    payload = {
        "units": units.to_dicts(),
        "rules": [r.to_dict() for r in rules],
        "pruned": [r.to_dict() for r in pruned.rules],
        "records": [rec.to_dict() for rec in records],
        "per_release": [r.to_dict() for r in ps.per_release],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == COMPILED_DIGESTS[(scenario, epsilon)]


# sha256 of ``to_dot`` of the same documents: the whole rule order, its
# covers and the grey pruned rules, as ``dpwarden compile --dot`` writes it
DOT_DIGESTS = {
    ("s1", 3.0): "a630b7ef3dc21dca1125f49ea120617008914d8784aff95004c5a6788c3e42f3",
    ("s1", 20.0): "beb405b69d11f485c90e13e6f1b1ee6168e5dad7cce7c1f1ccf53e6ec23ee101",
    ("s2", 3.0): "791d959ec74e8730b0b61a81474430e994afbb39c4c2fb0a641696d2056d6ddd",
    ("s2", 20.0): "f85f151d2e75a3c915f3181fbaf12f6b9cf40befc3390f9d4734e6c9f2f7f35f",
    ("s3", 3.0): "d4e203402630953b767d3488391d2520f9257f27d8f6f60f5c94c83e7b279b70",
    ("s3", 20.0): "cd032aa7f8593389681ecbbe0cef3f16c394b5b481f270afc85f3b16b6e9ebbf",
}


@pytest.mark.parametrize("scenario, epsilon", sorted(DOT_DIGESTS))
def test_dot_of_the_scenario_documents_is_pinned(scenario, epsilon):
    import hashlib

    from dpwarden.poset import build_poset, prune_with_report, to_dot

    cfg = WorkloadConfig.desk_scale(scenario, epsilon)
    ps = parse_policy_set(build_policy_document(cfg, build_schema(cfg)))
    poset = build_poset(compile_policy_set(ps), ps.unit_graph())
    _, records = prune_with_report(poset)
    dot = to_dot(poset, [rec.rule_id for rec in records])
    assert hashlib.sha256(dot.encode()).hexdigest() == DOT_DIGESTS[(scenario, epsilon)]


@pytest.mark.parametrize("doc", [
    {"kind": "scale", "factor": "2"},
    {"kind": "scale", "factor": True},
    {"kind": "map_table", "knots": [[1.0, 2.0], ["2", 3.0]]},
    {"kind": "map_table", "knots": [[1.0, 2.0], [2.0, float("inf")]]},
])
def test_a_budget_function_document_reads_only_finite_numbers(doc):
    with pytest.raises(ValidationError):
        budget_fn_from_dict(doc)


def _attributes_as_a_mapping(doc):
    doc["attributes"] = {"a1": 0}


def _unit_above_as_a_mapping(doc):
    doc["units"] = [{"name": "user"}, {"name": "month", "above": {"user": 1}}]


def _unit_scope_as_a_mapping(doc):
    doc["extension_policies"] = [context_extension_policy()]
    doc["extension_policies"][0]["extensions"][0]["unit_scope"] = {"user": 1}


@pytest.mark.parametrize("edit", [_attributes_as_a_mapping, _unit_above_as_a_mapping, _unit_scope_as_a_mapping])
def test_a_policy_document_refuses_a_mapping_where_names_belong(edit):
    """A mapping would be read as its keys."""
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(ValidationError):
        parse_policy_set(doc)


@pytest.mark.parametrize("clamp", ["false", 0, 1, None, [False]])
def test_a_map_table_reads_clamp_only_as_a_json_bool(clamp):
    """``bool("false")`` is True, so a quoted false would clamp."""
    with pytest.raises(ValidationError):
        budget_fn_from_dict({"kind": "map_table", "knots": [[1, 2], [2, 3]], "clamp": clamp})
    assert not budget_fn_from_dict({"kind": "map_table", "knots": [[1, 2], [2, 3]], "clamp": False}).clamp


def _parse_with_annotation(value):
    doc = minimal_doc()
    doc["base_policies"].append({
        "type": "custom",
        "name": "weird",
        "unit": "user",
        "predicate": {"op": "not", "part": {"op": "has_label", "key": "k", "value": "v"}},
        "budget": adp(1.0),
        "annotation": [value, 0],
    })
    parse_policy_set(doc)


def _parse_with_rank(value):
    doc = minimal_doc()
    doc["extension_policies"] = [context_extension_policy()]
    doc["extension_policies"][0]["extensions"][0]["rank"] = value
    parse_policy_set(doc)


def _read_provenance_index(value):
    Provenance.from_dict({"policy": "p", "index": value})


@pytest.mark.parametrize("value", [1.9, True, "2"])
@pytest.mark.parametrize("read", [_parse_with_annotation, _parse_with_rank, _read_provenance_index])
def test_an_order_field_reads_only_an_integer(read, value):
    """``int()`` would read ``[1.9, true, "2"]`` as the order key ``(1, 1, 2)``."""
    with pytest.raises(ValidationError):
        read(value)
    read(2)

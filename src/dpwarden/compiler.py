"""Policy parsing and compilation into the final rule set.

Parsing turns each base policy (custom, per-attribute, category) straight
into its intermediate rules, with order keys and provenance, so a rule
generation error is a parse error.  Compilation expands each intermediate
rule by the extension policies into one rule per extension, conjoining
predicates and mapping budgets.  The final rule count is exactly
|base rules| * product of extension-policy sizes.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

from .accounting import check_enforceable, scale_budget
from .core import (
    ADP,
    And,
    AttrIntersects,
    BASE_ATOMS,
    BASE_ATTRS,
    BASE_RANKS,
    BASE_TOP,
    OrderKey,
    Predicate,
    PrivacyBudget,
    Provenance,
    Rule,
    TruePredicate,
    UnitGraph,
    budget_from_dict,
    conjunction_atoms,
    predicate_from_dict,
    read_count,
    read_list,
    read_real,
)
from .errors import BudgetFnDomain, ParseError, UnsupportedVariant, ValidationError, reading


class MembershipLevel(str, Enum):
    MEMBER = "member"
    STRONG = "strong"
    WEAK = "weak"


# ---------------------------------------------------------------------------
# Budget functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    def apply(self, budget: PrivacyBudget) -> PrivacyBudget:
        return budget


@dataclass(frozen=True)
class Scale:
    factor: float

    def __post_init__(self):
        object.__setattr__(self, "factor", float(self.factor))
        if not self.factor > 0:
            raise ValidationError("scale factor must be positive")

    def apply(self, budget: PrivacyBudget) -> PrivacyBudget:
        return scale_budget(budget, self.factor)


@dataclass(frozen=True)
class MapTable:
    """Piecewise-linear budget map over strictly increasing knots.

    Exact knots map directly, values between knots interpolate linearly, and
    values outside the range clamp to the nearest knot unless ``clamp`` is
    disabled, in which case they raise.
    """

    knots: tuple[tuple[float, float], ...]
    clamp: bool = True

    def __post_init__(self):
        knots = tuple((float(x), float(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", knots)
        if not knots:
            raise ValidationError("map table needs at least one knot")
        xs = [x for x, _ in knots]
        ys = [y for _, y in knots]
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValidationError("map-table knots must be strictly increasing in both coordinates")

    def map_value(self, x: float) -> float:
        xs = [k for k, _ in self.knots]
        ys = [v for _, v in self.knots]
        if x < xs[0] or x > xs[-1]:
            if not self.clamp:
                raise BudgetFnDomain(f"input {x} outside map-table range [{xs[0]}, {xs[-1]}]")
            return ys[0] if x < xs[0] else ys[-1]
        i = bisect.bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return ys[i]
        x0, y0 = self.knots[i - 1]
        x1, y1 = self.knots[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self) -> "MapTable":
        return MapTable(tuple((y, x) for x, y in self.knots), clamp=self.clamp)

    def apply(self, budget: PrivacyBudget) -> PrivacyBudget:
        if not isinstance(budget, ADP):
            raise UnsupportedVariant(f"budget maps are defined on ADP epsilon, not {type(budget).__name__}")
        return ADP(self.map_value(budget.epsilon), budget.delta)


BudgetFn = Union[Identity, Scale, MapTable]


def budget_fn_from_dict(d: Mapping) -> BudgetFn:
    kind = d.get("kind")
    if kind == "identity":
        return Identity()
    if kind == "scale":
        return Scale(read_real(d["factor"], "scale factor"))
    if kind == "map_table":
        knots = tuple((read_real(x, "map-table knot"), read_real(y, "map-table knot")) for x, y in d["knots"])
        clamp = d.get("clamp", True)
        if type(clamp) is not bool:  # bool("false") is True
            raise ValidationError(f"map-table clamp must be true or false, got {clamp!r}")
        return MapTable(knots, clamp)
    raise ValidationError(f"unknown budget function kind {kind!r}")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Extension:
    name: str
    predicate: Predicate
    budget_fn: BudgetFn
    rank: int
    unit_scope: frozenset[str] | None = None


@dataclass(frozen=True)
class ExtensionPolicy:
    name: str
    extensions: tuple[Extension, ...]

    def __post_init__(self):
        object.__setattr__(self, "extensions", tuple(self.extensions))
        total = [e for e in self.extensions if isinstance(e.predicate, TruePredicate)]
        if len(total) != 1:
            raise ValidationError(
                f"extension policy {self.name!r} must contain exactly one match-all extension, found {len(total)}"
            )


@dataclass(frozen=True)
class PolicySet:
    """A parsed policy document: the unit graph, the intermediate rules its
    base policies generate, and the policies applied on top of them."""

    units: UnitGraph
    base_rules: tuple[Rule, ...]
    extension_policies: tuple[ExtensionPolicy, ...]
    per_release: tuple[Rule, ...] = ()

    def unit_graph(self) -> UnitGraph:
        return self.units


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _attr_rule(rule_id: str, attrs: frozenset[str], unit: str, budget: PrivacyBudget,
               provenance: Provenance) -> Rule:
    return Rule(rule_id, AttrIntersects(attrs), unit, budget, provenance,
                OrderKey(BASE_ATTRS, attrs, (), unit))


def _parse_base_policy(d: Mapping, units: set[str], attributes: set[str], categories: set[str]) -> list[Rule]:
    """The intermediate rules, with order keys, that one base policy generates.

    ``custom``: one rule with the policy's own predicate and budget.
    Predicates outside the conjunctive HasLabel fragment (and other than the
    match-all predicate) need an integer-tuple ``annotation`` so the rule can
    take part in the partial order.  ``per_attribute``: one rule per
    attribute, with budgets assigned via risk levels or explicit overrides.
    ``category``: three nested rules per category, namely members, members
    plus strongly connected attributes, and all connected attributes.
    """
    kind = d["type"]
    name = d["name"]
    unit = d["unit"]
    if unit not in units:
        raise ValidationError(f"policy {name!r} references unknown unit {unit!r}")
    if kind == "custom":
        predicate = predicate_from_dict(d["predicate"])
        budget = budget_from_dict(d["budget"])
        annotation = tuple(read_count(x, "annotation") for x in d["annotation"]) if "annotation" in d else None
        if isinstance(predicate, TruePredicate):
            key = OrderKey(BASE_TOP, (), (), unit)
        elif annotation is not None:
            key = OrderKey(BASE_RANKS, annotation, (), unit)
        elif (atoms := conjunction_atoms(predicate)) is not None:
            key = OrderKey(BASE_ATOMS, atoms, (), unit)
        else:
            raise ValidationError(
                f"custom policy {name!r} has a predicate outside the conjunctive fragment "
                "and needs an integer-tuple annotation"
            )
        return [Rule(name, predicate, unit, budget, Provenance(name, 0), key)]

    rules: list[Rule] = []
    if kind == "per_attribute":
        risk_budgets = {r: budget_from_dict(b) for r, b in d["risk_budgets"].items()}
        for i, (attr, val) in enumerate(d["attributes"].items()):
            if attr not in attributes:
                raise ValidationError(f"policy {name!r} references unknown attribute {attr!r}")
            if isinstance(val, str):
                if val not in risk_budgets:
                    raise ValidationError(f"policy {name!r}: unknown risk level {val!r} for {attr!r}")
                budget = risk_budgets[val]
            else:
                budget = budget_from_dict(val)
            rules.append(_attr_rule(f"{name}.{attr}", frozenset({attr}), unit, budget, Provenance(name, i)))
        return rules
    if kind == "category":
        risk_budgets = {r: budget_from_dict(b) for r, b in d["risk_budgets"].items()}
        cats: dict[str, str] = {}
        for cat, risk in d["categories"].items():
            if cat not in categories:
                raise ValidationError(f"policy {name!r} references unknown category {cat!r}")
            if risk not in risk_budgets:
                raise ValidationError(f"policy {name!r}: unknown category risk {risk!r}")
            cats[cat] = risk
        attrs_at: dict[str, dict[MembershipLevel, set[str]]] = {
            cat: {level: set() for level in MembershipLevel} for cat in cats
        }
        for attr, by_cat in d.get("membership", {}).items():
            if attr not in attributes:
                raise ValidationError(f"policy {name!r} membership references unknown attribute {attr!r}")
            for cat, level in by_cat.items():
                if cat not in cats:
                    raise ValidationError(
                        f"policy {name!r}: attribute {attr!r} references undeclared category {cat!r}"
                    )
                attrs_at[cat][MembershipLevel(level)].add(attr)
        level_fns = d.get("level_functions", {})
        strong_fn = budget_fn_from_dict(level_fns["strong"]) if "strong" in level_fns else Identity()
        weak_fn = budget_fn_from_dict(level_fns["weak"]) if "weak" in level_fns else Identity()
        for cat, risk in cats.items():
            base_budget = risk_budgets[risk]
            member = frozenset(attrs_at[cat][MembershipLevel.MEMBER])
            strong = member | attrs_at[cat][MembershipLevel.STRONG]
            weak = strong | attrs_at[cat][MembershipLevel.WEAK]
            for level, attrs, budget in (
                ("member", member, base_budget),
                ("strong", strong, strong_fn.apply(base_budget)),
                ("weak", weak, weak_fn.apply(base_budget)),
            ):
                rules.append(
                    _attr_rule(f"{name}.{cat}.{level}", attrs, unit, budget, Provenance(name, len(rules)))
                )
        return rules
    raise ParseError(f"unknown base policy type {kind!r}")


def _parse_extension_policy(d: Mapping, units: set[str]) -> ExtensionPolicy:
    name = d["name"]
    exts = []
    for e in d["extensions"]:
        scope = e.get("unit_scope")
        if scope is not None:
            scope = frozenset(read_list(scope, "unit_scope"))
            unknown = scope - units
            if unknown:
                raise ValidationError(f"extension policy {name!r}: unknown units in scope {sorted(unknown)}")
        exts.append(
            Extension(
                e["name"],
                predicate_from_dict(e["predicate"]),
                budget_fn_from_dict(e.get("budget_fn", {"kind": "identity"})),
                read_count(e["rank"], "extension rank"),
                scope,
            )
        )
    return ExtensionPolicy(name, tuple(exts))


def parse_policy_set(document: Union[str, Mapping]) -> PolicySet:
    """Parse and validate a JSON policy document, generating the base rules.

    Top-level keys: ``units``, ``attributes``, ``categories``,
    ``base_policies``, ``extension_policies``, ``per_release_policies``.
    """
    with reading("policy document"):
        doc = json.loads(document) if isinstance(document, str) else document
        if not isinstance(doc, Mapping):
            raise ParseError("policy document must be a JSON object")

        units = UnitGraph.from_dicts(doc["units"])  # validates the declared order
        unit_names = set(units.units)
        attributes = tuple(read_list(doc.get("attributes", ()), "attributes"))
        categories = tuple(read_list(doc.get("categories", ()), "categories"))
        attr_set, cat_set = set(attributes), set(categories)
        if len(attr_set) != len(attributes):
            raise ValidationError("duplicate attribute names")
        if len(cat_set) != len(categories):
            raise ValidationError("duplicate category names")

        base: list[Rule] = []
        names = set()
        for p in doc.get("base_policies", ()):
            base += _parse_base_policy(p, unit_names, attr_set, cat_set)
            if p["name"] in names:
                raise ValidationError(f"duplicate policy name {p['name']!r}")
            names.add(p["name"])
        exts = tuple(_parse_extension_policy(p, unit_names) for p in doc.get("extension_policies", ()))

        per_release = []
        for i, p in enumerate(doc.get("per_release_policies", ())):
            name = p.get("name", f"per_release_{i}")
            unit = p["unit"]
            if unit not in unit_names:
                raise ValidationError(f"per-release policy {name!r} references unknown unit {unit!r}")
            per_release.append(
                Rule(
                    name,
                    predicate_from_dict(p["predicate"]),
                    unit,
                    budget_from_dict(p["budget"]),
                    Provenance(name, i),
                )
            )
        check_enforceable(base + per_release)
        return PolicySet(units, tuple(base), exts, tuple(per_release))


# ---------------------------------------------------------------------------
# Rule expansion
# ---------------------------------------------------------------------------

def apply_extensions(irules: Sequence[Rule], epolicies: Sequence[ExtensionPolicy]) -> list[Rule]:
    """Sequentially expand rules by each extension policy (Cartesian growth).

    Each current rule becomes one rule per extension: the extension predicate
    is conjoined and its budget function applied.  Extensions with a unit
    scope apply the identity to rules in other units but still refine the
    predicate, keeping the count identity exact.
    """
    rules = list(irules)
    for ep in epolicies:
        expanded: list[Rule] = []
        for r in rules:
            if r.order_key is None or r.provenance is None:
                raise ValidationError(f"rule {r.rule_id!r} lacks order key or provenance")
            for ext in ep.extensions:
                in_scope = ext.unit_scope is None or r.unit in ext.unit_scope
                fn = ext.budget_fn if in_scope else Identity()
                expanded.append(
                    Rule(
                        f"{r.rule_id}|{ep.name}={ext.name}",
                        And((ext.predicate, r.predicate)),
                        r.unit,
                        fn.apply(r.budget),
                        Provenance(
                            r.provenance.policy,
                            r.provenance.index,
                            r.provenance.extensions + ((ep.name, ext.name),),
                        ),
                        OrderKey(
                            r.order_key.base_kind,
                            r.order_key.base_value,
                            r.order_key.ext_ranks + (ext.rank,),
                            r.unit,
                        ),
                    )
                )
        rules = expanded
    return rules


def compile_policy_set(ps: PolicySet) -> list[Rule]:
    """Full compilation: base rules expanded by every extension policy."""
    return apply_extensions(ps.base_rules, ps.extension_policies)

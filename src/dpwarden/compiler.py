"""Policy parsing and compilation into the final rule set.

Base policies (custom, per-attribute, category) generate intermediate rules;
extension policies expand each intermediate rule into one rule per extension,
conjoining predicates and mapping budgets.  The final rule count is exactly
|base rules| * product of extension-policy sizes.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence, Union

from .accounting import scale_budget
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
    PrivacyUnit,
    Provenance,
    PureDP,
    Rule,
    TruePredicate,
    UnitGraph,
    ZCDP,
    budget_from_dict,
    conjunction_atoms,
    predicate_from_dict,
)
from .errors import BudgetFnDomain, ParseError, UnsupportedVariant, ValidationError, reading


class MembershipLevel(str, Enum):
    MEMBER = "member"
    STRONG = "strong"
    WEAK = "weak"


# ---------------------------------------------------------------------------
# Budget functions
# ---------------------------------------------------------------------------

def _map_epsilon(budget: PrivacyBudget, fn) -> PrivacyBudget:
    """Apply a scalar map to the headline parameter of a budget."""
    if isinstance(budget, PureDP):
        return PureDP(fn(budget.epsilon))
    if isinstance(budget, ADP):
        return ADP(fn(budget.epsilon), budget.delta)
    if isinstance(budget, ZCDP):
        return ZCDP(fn(budget.rho))
    raise UnsupportedVariant("budget maps are defined on epsilon/rho, not RDP curves")


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
        return _map_epsilon(budget, self.map_value)


BudgetFn = Union[Identity, Scale, MapTable]


def budget_fn_from_dict(d: Mapping) -> BudgetFn:
    kind = d.get("kind")
    if kind == "identity":
        return Identity()
    if kind == "scale":
        return Scale(d["factor"])
    if kind == "map_table":
        return MapTable(tuple(tuple(k) for k in d["knots"]), bool(d.get("clamp", True)))
    raise ValidationError(f"unknown budget function kind {kind!r}")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CustomPolicy:
    """Directly specified rule: predicate, unit, budget.

    Predicates outside the conjunctive HasLabel fragment (and other than the
    match-all predicate) need an integer-tuple ``annotation`` so the rule can
    participate in the partial order.
    """

    name: str
    predicate: Predicate
    unit: str
    budget: PrivacyBudget
    annotation: tuple[int, ...] | None = None


@dataclass(frozen=True)
class PerAttributePolicy:
    """One rule per attribute, with budgets assigned via risk levels or
    explicit per-attribute overrides."""

    name: str
    unit: str
    risk_budgets: Mapping[str, PrivacyBudget]
    assignments: Mapping[str, Union[str, PrivacyBudget]]


@dataclass(frozen=True)
class CategoryPolicy:
    """Three nested rules per category: members, members plus strongly
    connected attributes, and all connected attributes."""

    name: str
    unit: str
    risk_budgets: Mapping[str, PrivacyBudget]
    categories: Mapping[str, str]
    membership: Mapping[str, Mapping[str, MembershipLevel]]
    strong_fn: BudgetFn = field(default_factory=Identity)
    weak_fn: BudgetFn = field(default_factory=Identity)


BasePolicy = Union[CustomPolicy, PerAttributePolicy, CategoryPolicy]


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
    units: tuple[PrivacyUnit, ...]
    attributes: tuple[str, ...]
    categories: tuple[str, ...]
    base_policies: tuple[BasePolicy, ...]
    extension_policies: tuple[ExtensionPolicy, ...]
    per_release: tuple[Rule, ...] = ()

    def unit_graph(self) -> UnitGraph:
        return UnitGraph(self.units)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _parse_base_policy(d: Mapping, units: set[str], attributes: set[str], categories: set[str]) -> BasePolicy:
    kind = d["type"]
    name = d["name"]
    unit = d["unit"]
    if unit not in units:
        raise ValidationError(f"policy {name!r} references unknown unit {unit!r}")
    if kind == "custom":
        predicate = predicate_from_dict(d["predicate"])
        budget = budget_from_dict(d["budget"])
        annotation = tuple(int(x) for x in d["annotation"]) if "annotation" in d else None
        if (
            annotation is None
            and not isinstance(predicate, TruePredicate)
            and conjunction_atoms(predicate) is None
        ):
            raise ValidationError(
                f"custom policy {name!r} has a predicate outside the conjunctive fragment "
                "and needs an integer-tuple annotation"
            )
        return CustomPolicy(name, predicate, unit, budget, annotation)
    if kind == "per_attribute":
        risk_budgets = {r: budget_from_dict(b) for r, b in d["risk_budgets"].items()}
        assignments: dict[str, Union[str, PrivacyBudget]] = {}
        for attr, val in d["attributes"].items():
            if attr not in attributes:
                raise ValidationError(f"policy {name!r} references unknown attribute {attr!r}")
            if isinstance(val, str):
                if val not in risk_budgets:
                    raise ValidationError(f"policy {name!r}: unknown risk level {val!r} for {attr!r}")
                assignments[attr] = val
            else:
                assignments[attr] = budget_from_dict(val)
        return PerAttributePolicy(name, unit, risk_budgets, assignments)
    if kind == "category":
        risk_budgets = {r: budget_from_dict(b) for r, b in d["risk_budgets"].items()}
        cats: dict[str, str] = {}
        for cat, risk in d["categories"].items():
            if cat not in categories:
                raise ValidationError(f"policy {name!r} references unknown category {cat!r}")
            if risk not in risk_budgets:
                raise ValidationError(f"policy {name!r}: unknown category risk {risk!r}")
            cats[cat] = risk
        membership: dict[str, dict[str, MembershipLevel]] = {}
        for attr, by_cat in d.get("membership", {}).items():
            if attr not in attributes:
                raise ValidationError(f"policy {name!r} membership references unknown attribute {attr!r}")
            row = {}
            for cat, level in by_cat.items():
                if cat not in cats:
                    raise ValidationError(
                        f"policy {name!r}: attribute {attr!r} references undeclared category {cat!r}"
                    )
                row[cat] = MembershipLevel(level)
            membership[attr] = row
        level_fns = d.get("level_functions", {})
        strong_fn = budget_fn_from_dict(level_fns["strong"]) if "strong" in level_fns else Identity()
        weak_fn = budget_fn_from_dict(level_fns["weak"]) if "weak" in level_fns else Identity()
        return CategoryPolicy(name, unit, risk_budgets, cats, membership, strong_fn, weak_fn)
    raise ParseError(f"unknown base policy type {kind!r}")


def _parse_extension_policy(d: Mapping, units: set[str]) -> ExtensionPolicy:
    name = d["name"]
    exts = []
    for e in d["extensions"]:
        scope = e.get("unit_scope")
        if scope is not None:
            scope = frozenset(scope)
            unknown = scope - units
            if unknown:
                raise ValidationError(f"extension policy {name!r}: unknown units in scope {sorted(unknown)}")
        exts.append(
            Extension(
                e["name"],
                predicate_from_dict(e["predicate"]),
                budget_fn_from_dict(e.get("budget_fn", {"kind": "identity"})),
                int(e["rank"]),
                scope,
            )
        )
    return ExtensionPolicy(name, tuple(exts))


def parse_policy_set(document: Union[str, Mapping]) -> PolicySet:
    """Parse and validate a JSON policy document.

    Top-level keys: ``units``, ``attributes``, ``categories``,
    ``base_policies``, ``extension_policies``, ``per_release_policies``.
    """
    with reading("policy document"):
        doc = json.loads(document) if isinstance(document, str) else document
        if not isinstance(doc, Mapping):
            raise ParseError("policy document must be a JSON object")

        graph = UnitGraph.from_dicts(doc["units"])  # validates the declared order
        unit_names = set(graph.units)
        attributes = tuple(doc.get("attributes", ()))
        categories = tuple(doc.get("categories", ()))
        attr_set, cat_set = set(attributes), set(categories)
        if len(attr_set) != len(attributes):
            raise ValidationError("duplicate attribute names")
        if len(cat_set) != len(categories):
            raise ValidationError("duplicate category names")

        base = tuple(
            _parse_base_policy(p, unit_names, attr_set, cat_set)
            for p in doc.get("base_policies", ())
        )
        seen = set()
        for p in base:
            if p.name in seen:
                raise ValidationError(f"duplicate policy name {p.name!r}")
            seen.add(p.name)
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
        return PolicySet(tuple(graph.units.values()), attributes, categories, base, exts, tuple(per_release))


# ---------------------------------------------------------------------------
# Rule generation
# ---------------------------------------------------------------------------

def _custom_order_key(p: CustomPolicy) -> OrderKey:
    if isinstance(p.predicate, TruePredicate):
        return OrderKey(BASE_TOP, (), (), p.unit)
    if p.annotation is not None:
        return OrderKey(BASE_RANKS, p.annotation, (), p.unit)
    atoms = conjunction_atoms(p.predicate)
    if atoms is None:
        raise ValidationError(f"custom policy {p.name!r} needs an order annotation")
    return OrderKey(BASE_ATOMS, atoms, (), p.unit)


def generate_base_rules(ps: PolicySet) -> list[Rule]:
    """Expand base policies into intermediate rules with order keys."""
    rules: list[Rule] = []
    for pol in ps.base_policies:
        if isinstance(pol, CustomPolicy):
            rules.append(
                Rule(pol.name, pol.predicate, pol.unit, pol.budget,
                     Provenance(pol.name, 0), _custom_order_key(pol))
            )
        elif isinstance(pol, PerAttributePolicy):
            for i, (attr, val) in enumerate(pol.assignments.items()):
                budget = pol.risk_budgets[val] if isinstance(val, str) else val
                attrs = frozenset({attr})
                rules.append(
                    Rule(
                        f"{pol.name}.{attr}",
                        AttrIntersects(attrs),
                        pol.unit,
                        budget,
                        Provenance(pol.name, i),
                        OrderKey(BASE_ATTRS, attrs, (), pol.unit),
                    )
                )
        elif isinstance(pol, CategoryPolicy):
            index = 0
            for cat in pol.categories:
                base_budget = pol.risk_budgets[pol.categories[cat]]
                member = frozenset(
                    a for a, row in pol.membership.items() if row.get(cat) == MembershipLevel.MEMBER
                )
                strong = member | frozenset(
                    a for a, row in pol.membership.items() if row.get(cat) == MembershipLevel.STRONG
                )
                weak = strong | frozenset(
                    a for a, row in pol.membership.items() if row.get(cat) == MembershipLevel.WEAK
                )
                for level, attrs, budget in (
                    ("member", member, base_budget),
                    ("strong", strong, pol.strong_fn.apply(base_budget)),
                    ("weak", weak, pol.weak_fn.apply(base_budget)),
                ):
                    rules.append(
                        Rule(
                            f"{pol.name}.{cat}.{level}",
                            AttrIntersects(attrs),
                            pol.unit,
                            budget,
                            Provenance(pol.name, index),
                            OrderKey(BASE_ATTRS, attrs, (), pol.unit),
                        )
                    )
                    index += 1
        else:  # pragma: no cover - parse guarantees the union
            raise ValidationError(f"unknown base policy {pol!r}")
    return rules


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
    return apply_extensions(generate_base_rules(ps), ps.extension_policies)

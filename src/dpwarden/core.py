"""Shared domain model: budgets, privacy units, labels, predicates, rules, requests.

All types are immutable values with a canonical JSON form (``*_to_dict`` /
``*_from_dict``), so every other module's file format is built from the same
field names.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import ValidationError, VariantMismatch, reading

# Renyi orders used for every RDP curve in the system; ``RDP`` refuses a
# curve without one entry per order.
DEFAULT_ALPHA_ORDERS: tuple[float, ...] = (
    1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0, 1e6, 1e10,
)

ATTR_KEY = "attr"
CONTEXT_KEY = "context"

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")

# names already found valid, up to a bound: a workload repeats a few hundred
# names across every request it labels
_VALID_NAMES: set[str] = set()
_VALID_NAMES_MAX = 4096


def _check_name(value: str, what: str) -> str:
    # exact str only: a subclass could hash and compare like a valid name
    exact = type(value) is str
    if exact and value in _VALID_NAMES:
        return value
    # fullmatch: `$` would also match before a final newline
    if not isinstance(value, str) or not _NAME_RE.fullmatch(value):
        raise ValidationError(f"{what} must be a non-empty string over [A-Za-z0-9_.-], got {value!r}")
    if exact and len(_VALID_NAMES) < _VALID_NAMES_MAX:
        _VALID_NAMES.add(value)
    return value


def read_count(value, name: str) -> int:
    """An integer field of a document.  ``int()`` would also read 2048.9 as
    2048, true as 1 and "64" as 64."""
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def read_real(value, name: str) -> float:
    """A finite real field of a document.  ``float()`` would also read
    "0.5" as 0.5, true as 1 and "inf" as infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def read_list(value, name: str):
    """A list field of a document.  ``frozenset()`` would also read a
    string as its characters and a mapping as its keys."""
    if type(value) is list or type(value) is tuple:  # skips Mapping's ABC check, the common case
        return value
    if isinstance(value, (str, Mapping)):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Privacy budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureDP:
    """Pure epsilon-DP bound."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not self.epsilon >= 0:
            raise ValidationError("epsilon must be non-negative")


@dataclass(frozen=True)
class ADP:
    """Approximate (epsilon, delta)-DP bound with delta in [0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))
        if not self.epsilon >= 0:
            raise ValidationError("epsilon must be non-negative")
        if not 0.0 <= self.delta < 1.0:
            raise ValidationError("delta must lie in [0, 1)")


@dataclass(frozen=True)
class RDP:
    """Renyi-DP curve: one guarantee per global alpha order."""

    curve: tuple[float, ...]

    def __post_init__(self):
        curve = tuple(float(c) for c in self.curve)
        object.__setattr__(self, "curve", curve)
        if not all(c >= 0 for c in curve):
            raise ValidationError("RDP curve entries must be non-negative")
        if len(curve) != len(DEFAULT_ALPHA_ORDERS):
            raise ValidationError(
                f"RDP curve has {len(curve)} entries, not one per alpha order ({len(DEFAULT_ALPHA_ORDERS)})"
            )


@dataclass(frozen=True)
class ZCDP:
    """Zero-concentrated DP bound rho."""

    rho: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        if not self.rho >= 0:
            raise ValidationError("rho must be non-negative")


PrivacyBudget = Union[PureDP, ADP, RDP, ZCDP]


def budget_leq(b1: PrivacyBudget, b2: PrivacyBudget) -> bool:
    """Partial order on budgets of the same variant (smaller = stricter).

    Cross-variant comparison is an error; conversions are explicit operations
    in :mod:`dpwarden.accounting`.
    """
    if type(b1) is not type(b2):
        raise VariantMismatch(f"cannot compare {type(b1).__name__} with {type(b2).__name__}")
    if isinstance(b1, PureDP):
        return b1.epsilon <= b2.epsilon
    if isinstance(b1, ADP):
        return b1.epsilon <= b2.epsilon and b1.delta <= b2.delta
    if isinstance(b1, RDP):
        return all(a <= b for a, b in zip(b1.curve, b2.curve))
    return b1.rho <= b2.rho


def budget_to_dict(b: PrivacyBudget) -> dict:
    if isinstance(b, PureDP):
        return {"kind": "pure_dp", "epsilon": b.epsilon}
    if isinstance(b, ADP):
        return {"kind": "adp", "epsilon": b.epsilon, "delta": b.delta}
    if isinstance(b, RDP):
        return {"kind": "rdp", "curve": list(b.curve)}
    if isinstance(b, ZCDP):
        return {"kind": "zcdp", "rho": b.rho}
    raise ValidationError(f"not a budget: {b!r}")


def budget_from_dict(d: Mapping) -> PrivacyBudget:
    """A budget document.  Every number must be finite: the constructors
    take the infinite epsilons that conversions make on purpose."""
    kind = d.get("kind")
    if kind == "pure_dp":
        return PureDP(read_real(d["epsilon"], "epsilon"))
    if kind == "adp":
        return ADP(read_real(d["epsilon"], "epsilon"), read_real(d["delta"], "delta"))
    if kind == "rdp":
        return RDP(tuple(read_real(c, "RDP curve entry") for c in read_list(d["curve"], "RDP curve")))
    if kind == "zcdp":
        return ZCDP(read_real(d["rho"], "rho"))
    raise ValidationError(f"unknown budget kind {kind!r}")


# ---------------------------------------------------------------------------
# Privacy units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrivacyUnit:
    """A privacy unit and its admin-declared relations to other units.

    ``ord_above`` lists units known to cover this one (this unit <= other).
    ``group_factor_to[u] = k`` declares that one instance of unit ``u`` is
    covered by at most ``k`` instances of this unit, enabling group-privacy
    conversion of budgets/costs from this unit to ``u``.
    """

    name: str
    ord_above: frozenset[str] = frozenset()
    group_factor_to: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_name(self.name, "unit name")
        object.__setattr__(self, "ord_above", frozenset(read_list(self.ord_above, f"units above {self.name!r}")))
        factors = {}
        for tgt, k in self.group_factor_to.items():
            _check_name(tgt, "unit name")
            factors[tgt] = k = read_count(k, f"group factor {self.name}->{tgt}")
            if k < 1:
                raise ValidationError(f"group factor {self.name}->{tgt} must be a positive integer")
        object.__setattr__(self, "group_factor_to", factors)


class UnitGraph:
    """Validated collection of privacy units with the declared partial order.

    The order is closed reflexively and transitively.  A declared group
    factor of 1 from ``u`` to ``t`` means a single instance of ``u`` covers a
    ``t`` instance, so ``t <= u`` is implied and added to the closure.
    """

    def __init__(self, units: Iterable[PrivacyUnit]):
        self.units: dict[str, PrivacyUnit] = {}
        for u in units:
            if u.name in self.units:
                raise ValidationError(f"duplicate unit {u.name!r}")
            self.units[u.name] = u
        edges: set[tuple[str, str]] = set()
        for u in self.units.values():
            for above in u.ord_above:
                if above not in self.units:
                    raise ValidationError(f"unit {u.name!r} declared below unknown unit {above!r}")
                edges.add((u.name, above))
            for tgt, k in u.group_factor_to.items():
                if tgt not in self.units:
                    raise ValidationError(f"unit {u.name!r} has factor to unknown unit {tgt!r}")
                if k == 1:
                    edges.add((tgt, u.name))
        # transitive closure over a handful of units
        closure = set(edges)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        for a, b in closure:
            if a != b and (b, a) in closure:
                raise ValidationError(f"cycle in unit order between {a!r} and {b!r}")
        self._closure = closure

    def __contains__(self, name: str) -> bool:
        return name in self.units

    def leq(self, a: str, b: str) -> bool:
        """True iff unit ``b`` covers unit ``a`` in the declared order."""
        if a not in self.units or b not in self.units:
            raise ValidationError(f"unknown unit in comparison: {a!r} vs {b!r}")
        return a == b or (a, b) in self._closure

    def to_dicts(self) -> list[dict]:
        return [
            {
                "name": u.name,
                "above": sorted(u.ord_above),
                "group_factor_to": dict(sorted(u.group_factor_to.items())),
            }
            for u in self.units.values()
        ]

    @classmethod
    def from_dicts(cls, dicts: Iterable[Mapping]) -> "UnitGraph":
        return cls(
            PrivacyUnit(
                d["name"],
                d.get("above", ()),
                d.get("group_factor_to", {}),
            )
            for d in dicts
        )


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

class LabelSet:
    """Immutable multimap from label keys to sets of label values.

    Attributes a mechanism reads live under the reserved key ``attr``;
    deployment context under ``context``.  Arbitrary custom keys are allowed.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Iterable[str]] | None = None):
        data: dict[str, frozenset[str]] = {}
        for key, values in (entries or {}).items():
            _check_name(key, "label key")
            vs = frozenset(read_list(values, f"label {key!r}"))
            for v in vs:
                _check_name(v, f"label value for {key!r}")
            if vs:
                data[key] = vs
        self._entries = data

    def values(self, key: str) -> frozenset[str]:
        return self._entries.get(key, frozenset())

    def has(self, key: str, value: str) -> bool:
        return value in self._entries.get(key, frozenset())

    @property
    def attrs(self) -> frozenset[str]:
        return self.values(ATTR_KEY)

    def keys(self):
        return self._entries.keys()

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self._entries == other._entries

    def __hash__(self) -> int:
        # on demand: requests build label sets that nothing hashes
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={sorted(v)}" for k, v in sorted(self._entries.items()))
        return f"LabelSet({inner})"

    def to_dict(self) -> dict:
        return {k: sorted(v) for k, v in sorted(self._entries.items())}


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruePredicate:
    """Matches every mechanism."""

    def matches(self, labels: LabelSet) -> bool:
        return True


@dataclass(frozen=True)
class HasLabel:
    key: str
    value: str

    def __post_init__(self):
        _check_name(self.key, "label key")
        _check_name(self.value, "label value")

    def matches(self, labels: LabelSet) -> bool:
        return labels.has(self.key, self.value)


@dataclass(frozen=True)
class AttrIntersects:
    """True iff the mechanism reads at least one attribute from the set."""

    attrs: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "attrs", frozenset(read_list(self.attrs, "attrs")))
        for a in self.attrs:
            _check_name(a, "attribute name")

    def matches(self, labels: LabelSet) -> bool:
        return bool(labels.attrs & self.attrs)


@dataclass(frozen=True)
class And:
    parts: tuple["Predicate", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def matches(self, labels: LabelSet) -> bool:
        return all(p.matches(labels) for p in self.parts)


@dataclass(frozen=True)
class Or:
    parts: tuple["Predicate", ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def matches(self, labels: LabelSet) -> bool:
        return any(p.matches(labels) for p in self.parts)


@dataclass(frozen=True)
class Not:
    part: "Predicate"

    def matches(self, labels: LabelSet) -> bool:
        return not self.part.matches(labels)


Predicate = Union[TruePredicate, HasLabel, AttrIntersects, And, Or, Not]


def eval_predicate(p: Predicate, labels: LabelSet) -> bool:
    """Total, deterministic evaluation of a predicate over a label set."""
    return p.matches(labels)


def conjunction_atoms(p: Predicate) -> frozenset[tuple[str, str]] | None:
    """Flatten a pure conjunction of HasLabel atoms into (key, value) pairs.

    Returns None for anything outside that fragment; those predicates need an
    explicit admin annotation to participate in the rule order.
    """
    if isinstance(p, TruePredicate):
        return frozenset()
    if isinstance(p, HasLabel):
        return frozenset({(p.key, p.value)})
    if isinstance(p, And):
        out: set[tuple[str, str]] = set()
        for part in p.parts:
            sub = conjunction_atoms(part)
            if sub is None:
                return None
            out |= sub
        return frozenset(out)
    return None


def predicate_to_dict(p: Predicate) -> dict:
    if isinstance(p, TruePredicate):
        return {"op": "true"}
    if isinstance(p, HasLabel):
        return {"op": "has_label", "key": p.key, "value": p.value}
    if isinstance(p, AttrIntersects):
        return {"op": "attr_intersects", "attrs": sorted(p.attrs)}
    if isinstance(p, And):
        return {"op": "and", "parts": [predicate_to_dict(x) for x in p.parts]}
    if isinstance(p, Or):
        return {"op": "or", "parts": [predicate_to_dict(x) for x in p.parts]}
    if isinstance(p, Not):
        return {"op": "not", "part": predicate_to_dict(p.part)}
    raise ValidationError(f"not a predicate: {p!r}")


def predicate_from_dict(d: Mapping) -> Predicate:
    op = d.get("op")
    if op == "true":
        return TruePredicate()
    if op == "has_label":
        return HasLabel(d["key"], d["value"])
    if op == "attr_intersects":
        return AttrIntersects(d["attrs"])
    if op == "and":
        return And(tuple(predicate_from_dict(x) for x in d["parts"]))
    if op == "or":
        return Or(tuple(predicate_from_dict(x) for x in d["parts"]))
    if op == "not":
        return Not(predicate_from_dict(d["part"]))
    raise ValidationError(f"unknown predicate op {op!r}")


# ---------------------------------------------------------------------------
# Rule order keys
# ---------------------------------------------------------------------------

BASE_TOP = "top"        # global-scope predicate
BASE_ATTRS = "attrs"    # attribute-set scope (per-attribute / category rules)
BASE_RANKS = "ranks"    # admin integer-tuple annotation
BASE_ATOMS = "atoms"    # conjunction of HasLabel atoms


@dataclass(frozen=True)
class OrderKey:
    """Decomposed ordering key: base-scope part, one rank per extension policy,
    and the privacy unit."""

    base_kind: str
    base_value: frozenset | tuple
    ext_ranks: tuple[int, ...]
    unit: str

    def __post_init__(self):
        if self.base_kind not in (BASE_TOP, BASE_ATTRS, BASE_RANKS, BASE_ATOMS):
            raise ValidationError(f"unknown order-key kind {self.base_kind!r}")
        if self.base_kind in (BASE_ATTRS, BASE_ATOMS):
            object.__setattr__(self, "base_value", frozenset(self.base_value))
        elif self.base_kind == BASE_RANKS:
            object.__setattr__(self, "base_value", tuple(int(x) for x in self.base_value))
        else:
            object.__setattr__(self, "base_value", ())
        object.__setattr__(self, "ext_ranks", tuple(int(x) for x in self.ext_ranks))

    def to_dict(self) -> dict:
        if self.base_kind == BASE_ATTRS:
            base = {"kind": self.base_kind, "attrs": sorted(self.base_value)}
        elif self.base_kind == BASE_ATOMS:
            base = {"kind": self.base_kind, "atoms": sorted(list(x) for x in self.base_value)}
        elif self.base_kind == BASE_RANKS:
            base = {"kind": self.base_kind, "ranks": list(self.base_value)}
        else:
            base = {"kind": self.base_kind}
        return {"base": base, "ext_ranks": list(self.ext_ranks), "unit": self.unit}

    @classmethod
    def from_dict(cls, d: Mapping) -> "OrderKey":
        base = d["base"]
        kind = base["kind"]
        if kind == BASE_ATTRS:
            value: frozenset | tuple = frozenset(read_list(base["attrs"], "order-key attrs"))
        elif kind == BASE_ATOMS:
            value = frozenset(tuple(x) for x in read_list(base["atoms"], "order-key atoms"))
        elif kind == BASE_RANKS:
            value = tuple(base["ranks"])
        else:
            value = ()
        return cls(kind, value, tuple(d.get("ext_ranks", ())), d["unit"])


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """Generation path of a rule: base policy, rule index within it, and the
    extension chosen from each extension policy."""

    policy: str
    index: int
    extensions: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "index": self.index,
            "extensions": [list(x) for x in self.extensions],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Provenance":
        index = read_count(d["index"], "provenance index")
        return cls(d["policy"], index, tuple((a, b) for a, b in d.get("extensions", ())))


@dataclass(frozen=True)
class Rule:
    """An enforceable guarantee: predicate scope, privacy unit, budget."""

    rule_id: str
    predicate: Predicate
    unit: str
    budget: PrivacyBudget
    provenance: Provenance | None = None
    order_key: OrderKey | None = None

    def __post_init__(self):
        # both key the filter state and the per-unit costs
        if not isinstance(self.rule_id, str):
            raise ValidationError(f"rule id must be a string, got {self.rule_id!r}")
        _check_name(self.unit, "unit name")

    def to_dict(self) -> dict:
        d = {
            "id": self.rule_id,
            "predicate": predicate_to_dict(self.predicate),
            "unit": self.unit,
            "budget": budget_to_dict(self.budget),
        }
        if self.provenance is not None:
            d["provenance"] = self.provenance.to_dict()
        if self.order_key is not None:
            d["order_key"] = self.order_key.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "Rule":
        return cls(
            d["id"],
            predicate_from_dict(d["predicate"]),
            d["unit"],
            budget_from_dict(d["budget"]),
            Provenance.from_dict(d["provenance"]) if "provenance" in d else None,
            OrderKey.from_dict(d["order_key"]) if "order_key" in d else None,
        )


def check_unique_ids(rules: Iterable[Rule]) -> None:
    """Refuse two rules under one id.  Rule ids key the filter state: two
    rules under one id would share an accumulator, each charged for the
    other's releases."""
    ids: set[str] = set()
    for rule in rules:
        if rule.rule_id in ids:
            raise ValidationError(f"duplicate rule id {rule.rule_id!r}")
        ids.add(rule.rule_id)


# ---------------------------------------------------------------------------
# Release requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mechanism:
    """A labeled DP mechanism with its privacy cost per tracked unit.

    Enforcement composes costs as RDP curves, so every cost entry must be an
    RDP curve over the global alpha orders.
    """

    labels: LabelSet
    cost_by_unit: Mapping[str, RDP]

    def __post_init__(self):
        costs = dict(self.cost_by_unit)
        for unit, cost in costs.items():
            _check_name(unit, "unit name")
            if not isinstance(cost, RDP):
                raise ValidationError(f"cost for unit {unit!r} must be an RDP curve")
        object.__setattr__(self, "cost_by_unit", costs)

    def to_dict(self) -> dict:
        return {
            "labels": self.labels.to_dict(),
            "cost_by_unit": {u: budget_to_dict(c) for u, c in sorted(self.cost_by_unit.items())},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Mechanism":
        return cls(
            LabelSet(d.get("labels", {})),
            {u: budget_from_dict(c) for u, c in d.get("cost_by_unit", {}).items()},
        )


@dataclass(frozen=True, eq=False)
class ReleaseRequest:
    """One release: mechanisms plus the block/time selection and a utility.

    ``pa_selection`` takes any flat sequence of block indices and holds them
    as a sorted, duplicate-free, read-only ``np.intp`` array.
    """

    request_id: str
    mechanisms: tuple[Mechanism, ...]
    pa_selection: np.ndarray | Sequence[int] = ()
    time_step: int | None = None
    utility: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        try:
            sel = np.asarray(self.pa_selection)
        except ValueError:  # ragged nesting
            sel = None
        if (
            sel is None or sel.ndim != 1 or (sel.size and sel.dtype.kind not in "iu")
            # numpy reads a bool among ints as 0 or 1
            or (sel is not self.pa_selection and any(isinstance(b, bool) for b in self.pa_selection))
        ):
            raise ValidationError(
                f"request {self.request_id!r}: block selection must be a flat sequence of integers"
            )
        # cast before sorting: a uint64 index beyond the intp range wraps negative
        sel = np.sort(sel.astype(np.intp, copy=False))
        if sel.size and sel[0] < 0:
            raise ValidationError(
                f"request {self.request_id!r}: block indices must lie in [0, {np.iinfo(np.intp).max}]"
            )
        keep = np.ones(sel.size, dtype=bool)
        np.not_equal(sel[1:], sel[:-1], out=keep[1:])
        sel = sel[keep]
        sel.flags.writeable = False
        object.__setattr__(self, "pa_selection", sel)
        if self.time_step is not None:
            object.__setattr__(self, "time_step", read_count(self.time_step, "time step"))
            if self.time_step < 0:
                raise ValidationError("time step must be >= 0")
        object.__setattr__(self, "utility", read_real(self.utility, "utility"))
        if self.utility < 0:
            raise ValidationError("utility must be non-negative")

    def to_dict(self) -> dict:
        d = {
            "request_id": self.request_id,
            "mechanisms": [m.to_dict() for m in self.mechanisms],
            "pa_selection": self.pa_selection.tolist(),
            "utility": self.utility,
        }
        if self.time_step is not None:
            d["time_step"] = self.time_step
        return d

    @classmethod
    def from_dict(cls, d: Mapping, domain_size: int | None = None) -> "ReleaseRequest":
        if not isinstance(d, Mapping):
            raise ValidationError("a release request must be a JSON object")
        with reading("release request"):
            sel = d.get("pa_selection", [])
            if isinstance(sel, Mapping):
                start = read_count(sel["start"], "interval start")
                length = read_count(sel["length"], "interval length")
                if length < 0:
                    raise ValidationError(f"interval length must be >= 0, got {length}")
                if domain_size is not None and not 0 <= start < domain_size:
                    raise ValidationError(f"interval start must lie in [0, {domain_size}), got {start}")
                sel = expand_block_range(start, length, domain_size)
            return cls(
                d["request_id"],
                tuple(Mechanism.from_dict(m) for m in d.get("mechanisms", ())),
                sel,
                d.get("time_step"),
                d.get("utility", 0.0),
            )


def expand_block_range(start: int, length: int, domain_size: int | None) -> np.ndarray:
    """Block indices of a consecutive interval, wrapping around the domain
    edge, in interval order (``ReleaseRequest`` sorts them)."""
    if domain_size is None:
        raise ValidationError("interval selections need a known domain size")
    return (start % domain_size + np.arange(min(length, domain_size))) % domain_size

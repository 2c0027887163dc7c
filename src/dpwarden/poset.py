"""Partial order over rules, cover computation, and non-constraining-rule
pruning.

Rules compare through their decomposed order keys: base-scope part (attribute
sets by subset, admin integer tuples componentwise, conjunctive-atom sets by
superset), one rank per extension policy, and the declared unit order.  The
decomposition lets poset construction compare only distinct values: the
order among distinct base keys, among distinct extension-rank tuples and
among distinct units is computed once each (attribute and atom sets as
packed bitsets, a block of rows at a time), and the rule order is gathered
from the three boolean matrices.  The Python work grows with the distinct
values, the numpy work with n^2 rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .accounting import convert_unit
from .core import (
    BASE_ATOMS,
    BASE_ATTRS,
    BASE_RANKS,
    BASE_TOP,
    OrderKey,
    PrivacyBudget,
    Rule,
    TruePredicate,
    UnitGraph,
    budget_leq,
    budget_to_dict,
    check_unique_ids,
    conjunction_atoms,
)
from .errors import IncomparableKeys, NoConversionPath, UnsupportedVariant, ValidationError, VariantMismatch


def _base_leq(kind1: str, val1, kind2: str, val2) -> bool:
    if kind2 == BASE_TOP:
        return True
    if kind1 == BASE_TOP:
        return False
    if kind1 != kind2:
        raise IncomparableKeys(f"cannot order base keys of kinds {kind1!r} and {kind2!r}")
    if kind1 == BASE_ATTRS:
        return val1 <= val2
    if kind1 == BASE_ATOMS:
        # more atoms conjoined = narrower scope
        return val1 >= val2
    if len(val1) != len(val2):
        raise IncomparableKeys("annotation tuples of different lengths")
    return all(a <= b for a, b in zip(val1, val2))


def rule_leq(r1: Rule, r2: Rule, units: UnitGraph) -> bool:
    """True iff r1's scope is contained in r2's and r1's unit is covered by
    r2's.  Raises IncomparableKeys on mixed key kinds."""
    k1, k2 = r1.order_key, r2.order_key
    if k1 is None or k2 is None:
        raise IncomparableKeys("both rules need order keys")
    if len(k1.ext_ranks) != len(k2.ext_ranks):
        raise IncomparableKeys("rules from different compilations (extension rank arity differs)")
    return (
        _base_leq(k1.base_kind, k1.base_value, k2.base_kind, k2.base_value)
        and all(a <= b for a, b in zip(k1.ext_ranks, k2.ext_ranks))
        and units.leq(k1.unit, k2.unit)
    )


@dataclass
class ComparisonStats:
    """Instrumentation: the distinct base-key pairs a != b that some rule
    pair passing the extension and unit tests compares (0 for a poset
    restricted from another), and the distinct base keys."""

    base_comparisons: int = 0
    distinct_base_keys: int = 0


class RulePoset:
    """Indexed rule set with its precomputed order relation; a compile-time
    structure for pruning and DOT export."""

    def __init__(self, rules: Sequence[Rule], units: UnitGraph, leq: np.ndarray,
                 stats: ComparisonStats):
        self.rules = tuple(rules)
        self.units = units
        self.leq = leq  # leq[i, j]: i != j and rule_i <= rule_j
        self.stats = stats

    def lower_cover_indices(self, i: int) -> tuple[int, ...]:
        """Maximal strict predecessors of rule i, ascending."""
        leq = self.leq
        strict = np.flatnonzero(leq[:, i] & ~leq[i])
        among = leq[np.ix_(strict, strict)]
        # drop j if some other k of them lies strictly above it
        return tuple(strict[~(among & ~among.T).any(axis=1)].tolist())


_BLOCK_BYTES = 1 << 20


def _tuple_order(tuples: Sequence[tuple[int, ...]]) -> np.ndarray:
    """``m[a, b]``: ``tuples[a] <= tuples[b]`` componentwise; the tuples are
    of one length."""
    m = np.ones((len(tuples), len(tuples)), dtype=bool)
    if tuples:
        for column in np.array(tuples).T:
            m &= column[:, None] <= column
    return m


def _subset_order(sets: Sequence[frozenset]) -> np.ndarray:
    """``m[a, b]``: ``sets[a] <= sets[b]``, through packed membership bits
    compared a block of rows at a time."""
    bit: dict = {}
    member = []
    for values in sets:
        member.append([bit.setdefault(v, len(bit)) for v in values])
    # 64 members to a word
    bits = np.zeros((len(sets), -(-len(bit) // 64) * 64), dtype=bool)
    for row, cols in enumerate(member):
        bits[row, cols] = True
    bits = np.packbits(bits, axis=1).view(np.uint64)
    outside = ~bits
    m = np.empty((len(sets), len(sets)), dtype=bool)
    # a block of rows at a time, each against every set: about 1 MB of temporary
    step = max(1, _BLOCK_BYTES // max(1, bits.nbytes))
    for top in range(0, len(sets), step):
        rows = bits[top : top + step, None, :] & outside
        np.logical_not(rows.any(axis=2), out=m[top : top + step])
    return m


def _base_order(base_keys: Sequence[tuple[str, object]]) -> np.ndarray:
    """``m[a, b]``: ``_base_leq`` of distinct base keys a and b, with
    incomparable keys read as False."""
    kinds = [kind for kind, _ in base_keys]
    m = np.zeros((len(base_keys), len(base_keys)), dtype=bool)
    m[:, [k == BASE_TOP for k in kinds]] = True
    groups: dict[tuple, list[int]] = {}
    for a, (kind, value) in enumerate(base_keys):
        if kind != BASE_TOP:
            groups.setdefault((kind, len(value) if kind == BASE_RANKS else 0), []).append(a)
    for (kind, _), ids in groups.items():
        values = [base_keys[a][1] for a in ids]
        if kind == BASE_ATTRS:
            block = _subset_order(values)
        elif kind == BASE_ATOMS:
            # more atoms conjoined = narrower scope
            block = _subset_order(values).T
        else:
            block = _tuple_order(values)
        m[np.ix_(ids, ids)] = block
    return m


def _distinct(values: Iterable) -> tuple[list, np.ndarray]:
    """The distinct ``values`` in first-seen order, and each value's id."""
    ids: dict = {}
    which = [ids.setdefault(v, len(ids)) for v in values]
    return list(ids), np.array(which, dtype=np.intp)


def build_poset(rules: Sequence[Rule], units: UnitGraph) -> RulePoset:
    """Compute the order relation as an n x n boolean matrix.

    Each distinct base key, extension-rank tuple and unit is compared once
    with every other (``ComparisonStats.base_comparisons`` counts the
    distinct base-key pairs a != b whose rules pass the extension and unit
    tests), and rule i <= rule j is read from the three orders at the ids of
    the two rules' values.  Equals ``rule_leq`` on every pair i != j, with
    incomparable keys read as False; the diagonal is False.
    """
    check_unique_ids(rules)
    keys: list[OrderKey] = []
    for r in rules:
        if r.order_key is None:
            raise ValidationError(f"rule {r.rule_id!r} has no order key")
        if r.order_key.unit not in units:
            raise ValidationError(f"rule {r.rule_id!r} uses undeclared unit {r.order_key.unit!r}")
        keys.append(r.order_key)
    arities = {len(k.ext_ranks) for k in keys}
    if len(arities) > 1:
        raise ValidationError("rules compiled with different extension-policy counts")

    base_keys, base = _distinct((k.base_kind, k.base_value) for k in keys)
    ext_ranks, ext = _distinct(k.ext_ranks for k in keys)
    unit_names, unit = _distinct(k.unit for k in keys)
    unit_order = np.array(
        [[units.leq(a, b) for b in unit_names] for a in unit_names], dtype=bool
    ).reshape(len(unit_names), len(unit_names))
    # rule pairs i != j that pass the extension and unit tests
    passing = _tuple_order(ext_ranks)[ext[:, None], ext] & unit_order[unit[:, None], unit]
    np.fill_diagonal(passing, False)
    reached = np.zeros((len(base_keys), len(base_keys)), dtype=bool)
    i, j = passing.nonzero()
    reached[base[i], base[j]] = True
    np.fill_diagonal(reached, False)
    stats = ComparisonStats(int(np.count_nonzero(reached)), len(base_keys))
    return RulePoset(rules, units, passing & _base_order(base_keys)[base[:, None], base], stats)


def _scope_covered(ri: Rule, rj: Rule) -> bool:
    """Whether rule j's scope is known to contain rule i's.  An annotation
    key is an admin's claim, so a pair that uses one counts only when the
    predicates show the implication: j is ``true``, or j's conjoined atoms
    are a subset of i's."""
    if BASE_RANKS not in (ri.order_key.base_kind, rj.order_key.base_kind):
        return True
    if isinstance(rj.predicate, TruePredicate):
        return True
    atoms_i, atoms_j = conjunction_atoms(ri.predicate), conjunction_atoms(rj.predicate)
    return atoms_i is not None and atoms_j is not None and atoms_j <= atoms_i


def _dominating_budget(poset: RulePoset, i: int, j: int) -> PrivacyBudget | None:
    """Budget of rule j expressed in rule i's unit, if rule j covers rule i's
    scope and its budget is at most rule i's (making rule i non-constraining);
    else None."""
    ri, rj = poset.rules[i], poset.rules[j]
    if not _scope_covered(ri, rj):
        return None
    units = poset.units.units
    try:
        budget = convert_unit(rj.budget, units[rj.unit], units[ri.unit])
    except (NoConversionPath, UnsupportedVariant):
        return None
    try:
        if not budget_leq(budget, ri.budget):
            return None
        if poset.leq[j, i]:
            # scope-equivalent pair: with equal budgets only the earlier rule
            # survives, so the later one may not act as a witness
            if budget_leq(ri.budget, rj.budget) and j > i:
                return None
    except VariantMismatch:
        return None
    return budget


@dataclass(frozen=True)
class PruneRecord:
    rule_id: str
    pruned_by: str
    implied_budget: PrivacyBudget

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "pruned_by": self.pruned_by,
            "implied_budget": budget_to_dict(self.implied_budget),
        }


def prune_with_report(poset: RulePoset) -> tuple[RulePoset, list[PruneRecord]]:
    """Deactivate every non-constraining rule, with a witness per pruned rule.

    Walking the relation transitively once is equivalent to the recursive
    descent from the greatest element with implied-budget propagation: a rule
    is deactivated exactly when some rule above it, whose scope is shown to
    cover it, carries an equal-or-stricter budget (expressed in the rule's
    own unit), and witnesses are never deactivated without a surviving
    dominator of their own.
    """
    records: list[PruneRecord] = []
    active: list[int] = []
    for i in range(len(poset.rules)):
        witness: tuple[int, PrivacyBudget] | None = None
        for j in np.flatnonzero(poset.leq[i]).tolist():
            implied = _dominating_budget(poset, i, j)
            if implied is not None:
                witness = (j, implied)
                break
        if witness is None:
            active.append(i)
        else:
            j, implied = witness
            records.append(PruneRecord(poset.rules[i].rule_id, poset.rules[j].rule_id, implied))
    # the active rules' relation is the parent's restricted to them: no comparison
    rules = [poset.rules[i] for i in active]
    distinct = len({(r.order_key.base_kind, r.order_key.base_value) for r in rules})
    return RulePoset(rules, poset.units, poset.leq[np.ix_(active, active)], ComparisonStats(0, distinct)), records


def prune(poset: RulePoset) -> RulePoset:
    """The poset restricted to constraining (active) rules."""
    sub, _ = prune_with_report(poset)
    return sub


def to_dot(poset: RulePoset, pruned_ids: Iterable[str] = ()) -> str:
    """Cover graph in DOT format; pruned rules render grey."""
    pruned = set(pruned_ids)
    lines = ["digraph rules {", "  rankdir=TB;", "  node [shape=box];"]
    for i, r in enumerate(poset.rules):
        label = f"{r.rule_id}\\n{budget_to_dict(r.budget)}"
        style = ' style=filled fillcolor="grey80"' if r.rule_id in pruned else ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for i in range(len(poset.rules)):
        for j in poset.lower_cover_indices(i):
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)

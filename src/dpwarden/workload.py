"""Desk-scale workload simulator for the three risk scenarios.

Scenario ``s1`` (context) relaxes budgets for black-box ML releases via an
extension policy; ``s2`` (scope) tracks 150 per-attribute and 10 category
budgets; ``s3`` (time units) adds a user-month budget next to the global
user budget.  Each scenario runs either against the compiled policy rules
(``dpolicy`` mode) or against a single global user-level filter
(``baseline`` mode), allocating greedily by utility under gradual budget
unlocking.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .accounting import calibrate_gaussian_rho, gaussian_curve, pure_curve, rdp_epsilon
from .compiler import MapTable, MembershipLevel, compile_policy_set, parse_policy_set
from .core import (
    ADP,
    AttrIntersects,
    BASE_TOP,
    HasLabel,
    LabelSet,
    Mechanism,
    OrderKey,
    Predicate,
    Provenance,
    RDP,
    ReleaseRequest,
    Rule,
    TruePredicate,
    expand_block_range,
)
from .decision import BlockDomain, BlockRows, DecisionPoint, RuleIndex, TimeAxis
from .errors import ConfigError, reading
from .poset import build_poset, prune

SCENARIOS = ("s1", "s2", "s3")

# Budget relaxation for black-box ML contexts: standard bound -> total bound.
S1_BUDGET_TABLE: tuple[tuple[float, float], ...] = (
    (1.7, 3.0), (1.8, 5.0), (1.9, 7.0), (2.0, 10.0), (2.3, 15.0), (2.5, 20.0),
)

DEFAULT_MECHANISMS: dict[str, dict] = {
    "gaussian": {"levels": [0.05, 0.2, 0.75], "pa_beta": [1.0, 10.0], "family": "gaussian", "ml": False},
    "laplace": {"levels": [0.01, 0.1, 0.25], "pa_beta": [1.0, 10.0], "family": "pure", "ml": False},
    "svt": {"levels": [0.01, 0.1, 0.25], "pa_beta": [1.0, 0.5], "family": "pure", "ml": False},
    "rand_resp": {"levels": [0.01, 0.1, 0.25], "pa_beta": [1.0, 0.5], "family": "pure", "ml": False},
    "dpsgd": {"levels": [0.05, 0.2, 0.75], "pa_beta": [2.0, 2.0], "family": "gaussian", "ml": True},
    "pate": {"levels": [0.05, 0.2, 0.75], "pa_beta": [2.0, 2.0], "family": "gaussian", "ml": True},
}


@dataclass
class WorkloadConfig:
    """Simulator knobs; defaults reproduce the desk-scale setup."""

    scenario: str = "s2"
    total_epsilon: float = 10.0
    rounds: int = 10
    requests_per_round: float = 50.0
    unlock_rounds: int = 6
    pa_domain_size: int = 2048
    pa_range_unit: int = 100
    delta_budget: float = 1e-7
    delta_request: float = 1e-9
    utility_alpha: float = 1.0
    utility_beta: float = 2.0
    n_attributes: int = 150
    n_categories: int = 10
    attr_zipf_exponent: float = 1.0
    cat_zipf_exponent: float = 0.1
    attr_continue_prob: float = 0.75
    cat_continue_prob: float = 0.6
    blackbox_rate: float = 0.8
    time_request_fraction: float = 0.5
    month_budget_epsilon: float = 3.0
    month_window: int = 7
    rounds_per_month: int = 8
    start_month: int = 6
    current_month_prob: float = 1.0 / 3.0
    rng_seed: int = 0
    mechanisms: dict = field(default_factory=lambda: {k: dict(v) for k, v in DEFAULT_MECHANISMS.items()})

    def __post_init__(self):
        # every field by its annotation; a wrong type raises TypeError, which
        # ``from_dict`` reports as a malformed document
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (type(value) is bool or not isinstance(value, int)):
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_number(value):
                raise TypeError(f"{f.name} must be a number, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for name, value in (
            ("rounds", self.rounds),
            ("unlock_rounds", self.unlock_rounds),
            ("pa_domain_size", self.pa_domain_size),
            ("pa_range_unit", self.pa_range_unit),
            ("n_attributes", self.n_attributes),
            ("n_categories", self.n_categories),
            ("rounds_per_month", self.rounds_per_month),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be positive")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")
        if self.month_window < 2:
            raise ConfigError("month_window must be >= 2")
        # utility raises the selection share and the level to these powers; both can be 0
        if self.utility_alpha < 0 or self.utility_beta < 0:
            raise ConfigError("utility exponents must be non-negative")
        if self.requests_per_round <= 0 or self.total_epsilon <= 0:
            raise ConfigError("request rate and total budget must be positive")
        for name, p in (
            ("attr_continue_prob", self.attr_continue_prob),
            ("cat_continue_prob", self.cat_continue_prob),
            ("blackbox_rate", self.blackbox_rate),
            ("time_request_fraction", self.time_request_fraction),
            ("current_month_prob", self.current_month_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.start_month < self.month_window - 1:
            raise ConfigError("start_month must cover the selection window")
        if not isinstance(self.mechanisms, Mapping) or not self.mechanisms:
            raise ConfigError("mechanisms must be a non-empty mapping of mechanism specs")
        for name, spec in self.mechanisms.items():
            if not _well_formed_mechanism(spec):
                raise ConfigError(
                    f"mechanism {name!r} needs family 'gaussian' or 'pure', a non-empty list of "
                    f"non-negative levels, two positive pa_beta values and a boolean ml"
                )
            for level in spec["levels"]:
                try:  # a request's utility scales with level ** utility_beta
                    float(level) ** self.utility_beta
                except OverflowError:
                    raise ConfigError(
                        f"mechanism {name!r}: level {level!r} ** utility_beta overflows a float"
                    ) from None

    @classmethod
    def desk_scale(cls, scenario: str, total_epsilon: float, rng_seed: int = 0) -> "WorkloadConfig":
        """Desk-scale preset: 2,048 blocks, 50 requests/round, 10 rounds.

        Block selections are widened (pa_range_unit) to keep per-block
        composition depth in the regime where a single global budget starts
        to concentrate risk, compensating for the ~20x smaller request
        volume.
        """
        return cls(
            scenario=scenario,
            total_epsilon=total_epsilon,
            pa_range_unit=2400,
            rng_seed=rng_seed,
        )

    @classmethod
    def paper_scale(cls, scenario: str, total_epsilon: float, rng_seed: int = 0) -> "WorkloadConfig":
        """Published-evaluation dimensions; slow, for reference runs only."""
        return cls(
            scenario=scenario,
            total_epsilon=total_epsilon,
            rounds=20,
            requests_per_round=504.0,
            unlock_rounds=12,
            pa_domain_size=204_800,
            rounds_per_month=4,
            rng_seed=rng_seed,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "WorkloadConfig":
        with reading("workload config"):
            unknown = set(d) - set(cls.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            return cls(**d)


def _is_number(value) -> bool:
    return type(value) is not bool and isinstance(value, (int, float))


def _well_formed_mechanism(spec) -> bool:
    """A mechanism spec as ``generate_workload`` reads it."""
    return (
        isinstance(spec, Mapping)
        and spec.get("family") in ("gaussian", "pure")
        and isinstance(spec.get("levels"), (list, tuple)) and len(spec["levels"]) > 0
        and all(_is_number(x) and 0 <= x < math.inf for x in spec["levels"])
        and isinstance(spec.get("pa_beta"), (list, tuple)) and len(spec["pa_beta"]) == 2
        and all(_is_number(x) and 0 < x < math.inf for x in spec["pa_beta"])
        and isinstance(spec.get("ml", False), bool)
    )


def s1_standard_epsilon(total_epsilon: float) -> float:
    """Standard-context bound implied by a total budget under the relaxation
    table (inverse map, interpolating between knots)."""
    return MapTable(S1_BUDGET_TABLE).inverse().map_value(total_epsilon)


# ---------------------------------------------------------------------------
# Schema: attributes, categories, membership
# ---------------------------------------------------------------------------

@dataclass
class WorkloadSchema:
    attributes: tuple[str, ...]
    attr_probs: np.ndarray
    attr_risk: dict[str, str]
    categories: tuple[str, ...]
    cat_probs: np.ndarray
    category_risk: dict[str, str]
    membership: dict[str, dict[str, MembershipLevel]]
    # the sampler's first CDF of ``attr_probs``, made once per schema
    attr_cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.attr_cdf = _cdf(self.attr_probs)

    def high_risk_attributes(self) -> list[str]:
        return [a for a in self.attributes if self.attr_risk[a] == "high"]

    def category_attrs(self, cat: str, levels: Iterable[MembershipLevel]) -> frozenset[str]:
        wanted = set(levels)
        return frozenset(a for a, row in self.membership.items() if row.get(cat) in wanted)

    def connected_categories(self, attrs: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for a in attrs:
            out.update(self.membership.get(a, {}))
        return frozenset(out)


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice`` builds from ``probs``: the cumulative
    sum divided by its last entry."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def sample_without_replacement(
    rng: np.random.Generator, probs: np.ndarray, size: int, cdf: np.ndarray | None = None
) -> list[int]:
    """``rng.choice(len(probs), size, replace=False, p=probs)`` draw for draw:
    the same doubles consumed and the same indices returned.

    numpy validates ``probs`` and rebuilds its CDF on every call.  Here the
    first CDF is ``cdf``, made once per probability vector (``_cdf``), and
    numpy's loop runs as it does there: draw the missing count, zero the
    weights already found, renormalise, search each draw, and keep the first
    occurrence of each index in draw order.
    """
    if cdf is None:
        cdf = _cdf(probs)
    found: list[int] = []
    while len(found) < size:
        x = rng.random(size - len(found))
        if found:
            rest = probs.copy()
            rest[found] = 0.0
            if not rest.any():
                raise ValueError(f"fewer positive weights than {size} draws")
            cdf = _cdf(rest)
        # dict.fromkeys keeps first occurrences in order, like numpy's
        # unique(return_index=True) followed by a sort of those indices
        found += dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
    return found


def _stop_count(rng: np.random.Generator, continue_prob: float) -> int:
    """Trials until the first stop, inclusive; mean 1/(1 - continue_prob)."""
    k = 1
    while rng.random() < continue_prob:
        k += 1
    return k


def sample_attribute_set(rng: np.random.Generator, cfg: WorkloadConfig, schema: WorkloadSchema) -> list[str]:
    """k+1 distinct attributes, k geometric over the continuation probability,
    drawn without replacement by selection probability."""
    count = min(_stop_count(rng, cfg.attr_continue_prob) + 1, cfg.n_attributes)
    idx = sample_without_replacement(rng, schema.attr_probs, count, schema.attr_cdf)
    return [schema.attributes[i] for i in idx]


def sample_category_assignment(
    rng: np.random.Generator, cfg: WorkloadConfig, probs: np.ndarray, cdf: np.ndarray | None = None
) -> dict[int, MembershipLevel]:
    """Category associations for one attribute: the first draw is a member,
    later draws alternate strong/weak connections.  ``cdf`` is ``_cdf(probs)``
    when the caller keeps it."""
    count = min(_stop_count(rng, cfg.cat_continue_prob) + 1, cfg.n_categories)
    idx = sample_without_replacement(rng, probs, count, cdf)
    out: dict[int, MembershipLevel] = {}
    for pos, cat in enumerate(idx):
        if pos == 0:
            out[cat] = MembershipLevel.MEMBER
        elif pos % 2 == 1:
            out[cat] = MembershipLevel.STRONG
        else:
            out[cat] = MembershipLevel.WEAK
    return out


def build_schema(cfg: WorkloadConfig) -> WorkloadSchema:
    rng = np.random.default_rng([cfg.rng_seed, 11])
    attributes = tuple(f"a{i:03d}" for i in range(1, cfg.n_attributes + 1))
    attr_probs = _zipf_probs(cfg.n_attributes, cfg.attr_zipf_exponent)
    # risk levels spread evenly across the selection-probability ranks:
    # within each run of ten ranks, eight low, one medium, one high
    attr_risk = {}
    for i, a in enumerate(attributes):
        pos = i % 10
        attr_risk[a] = "medium" if pos == 8 else "high" if pos == 9 else "low"
    categories = tuple(f"c{i:02d}" for i in range(1, cfg.n_categories + 1))
    cat_probs = _zipf_probs(cfg.n_categories, cfg.cat_zipf_exponent)
    cat_cdf = _cdf(cat_probs)  # once for every attribute's assignment
    n_high = 1
    n_medium = min(4, max(cfg.n_categories - n_high, 0))
    category_risk = {}
    for i, c in enumerate(categories):
        category_risk[c] = "high" if i < n_high else "medium" if i < n_high + n_medium else "low"
    membership = {
        a: {categories[ci]: lvl for ci, lvl in sample_category_assignment(rng, cfg, cat_probs, cat_cdf).items()}
        for a in attributes
    }
    return WorkloadSchema(attributes, attr_probs, attr_risk, categories, cat_probs, category_risk, membership)


# ---------------------------------------------------------------------------
# Policy documents per scenario
# ---------------------------------------------------------------------------

def _adp(eps: float, delta: float) -> dict:
    return {"kind": "adp", "epsilon": eps, "delta": delta}


def build_policy_document(cfg: WorkloadConfig, schema: WorkloadSchema) -> dict:
    """Scenario policy set as a plain JSON-able document."""
    delta = cfg.delta_budget
    units = [{"name": "user", "above": [], "group_factor_to": {}}]
    base: list[dict] = [
        {
            "type": "custom",
            "name": "global",
            "unit": "user",
            "predicate": {"op": "true"},
            "budget": _adp(cfg.total_epsilon, delta),
        }
    ]
    extensions: list[dict] = []
    doc: dict = {"attributes": [], "categories": []}

    if cfg.scenario == "s1":
        base[0]["budget"] = _adp(s1_standard_epsilon(cfg.total_epsilon), delta)
        extensions.append(
            {
                "name": "context",
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
        )
    elif cfg.scenario == "s2":
        doc["attributes"] = list(schema.attributes)
        doc["categories"] = list(schema.categories)
        base.append(
            {
                "type": "per_attribute",
                "name": "attr_risk",
                "unit": "user",
                "risk_budgets": {
                    "low": _adp(20.0, delta),
                    "medium": _adp(9.0, delta),
                    "high": _adp(3.0, delta),
                },
                "attributes": {a: schema.attr_risk[a] for a in schema.attributes},
            }
        )
        base.append(
            {
                "type": "category",
                "name": "cat_risk",
                "unit": "user",
                "risk_budgets": {
                    "high": _adp(5.0, delta),
                    "medium": _adp(10.0, delta),
                    "low": _adp(12.0, delta),
                },
                "categories": dict(schema.category_risk),
                "membership": {
                    a: {c: lvl.value for c, lvl in row.items()}
                    for a, row in schema.membership.items()
                    if row
                },
                "level_functions": {
                    "strong": {"kind": "scale", "factor": 1.5},
                    "weak": {"kind": "scale", "factor": 2.0},
                },
            }
        )
    else:  # s3
        units = [
            {"name": "user", "above": [], "group_factor_to": {"user-month": 1}},
            {"name": "user-month", "above": ["user"], "group_factor_to": {}},
        ]
        base.append(
            {
                "type": "custom",
                "name": "monthly",
                "unit": "user-month",
                "predicate": {"op": "has_label", "key": "data", "value": "time"},
                "budget": _adp(cfg.month_budget_epsilon, delta),
            }
        )

    doc.update({"units": units, "base_policies": base, "extension_policies": extensions,
                "per_release_policies": []})
    return doc


# ---------------------------------------------------------------------------
# Request generation
# ---------------------------------------------------------------------------

def request_cost_curve(family: str, epsilon: float, delta: float) -> RDP:
    """RDP curve for one mechanism invocation at a stated epsilon level.

    Gaussian-family mechanisms get a rho*alpha curve calibrated so the curve
    converts back to the stated epsilon at the request delta; pure-DP
    mechanisms get a constant curve.
    """
    if family == "gaussian":
        return gaussian_curve(calibrate_gaussian_rho(epsilon, delta))
    if family == "pure":
        return pure_curve(epsilon)
    raise ConfigError(f"unknown mechanism family {family!r}")


def month_of_round(cfg: WorkloadConfig, round_no: int) -> int:
    return cfg.start_month + (round_no - 1) // cfg.rounds_per_month


def sample_month(rng: np.random.Generator, cfg: WorkloadConfig, current: int) -> int:
    """Current month with elevated probability, else uniform over the six
    preceding months."""
    if rng.random() < cfg.current_month_prob:
        return current
    back = int(rng.integers(1, cfg.month_window))
    return max(0, current - back)


def tracked_months(cfg: WorkloadConfig) -> list[int]:
    last = month_of_round(cfg, cfg.rounds)
    return list(range(max(0, cfg.start_month - cfg.month_window + 1), last + 1))


def generate_workload(cfg: WorkloadConfig, schema: WorkloadSchema | None = None) -> Iterator[list[ReleaseRequest]]:
    """Per-round request batches, deterministic in the configured seed: a
    generator that draws each round's batch only when it is asked for, so a
    caller that drops a batch before asking for the next holds one round at
    a time."""
    return _rounds(cfg, schema or build_schema(cfg))


def _rounds(cfg: WorkloadConfig, schema: WorkloadSchema) -> Iterator[list[ReleaseRequest]]:
    """``generate_workload``'s batches, drawn round by round from one rng:
    the same draws, in the same order, as drawing every round up front."""
    rng = np.random.default_rng([cfg.rng_seed, 23])
    mech_names = sorted(cfg.mechanisms)
    # one cost curve per (mechanism, level), shared by its requests
    curves: dict[tuple[str, float], RDP] = {}
    for r in range(1, cfg.rounds + 1):
        current = month_of_round(cfg, r)
        batch: list[ReleaseRequest] = []
        n = int(rng.poisson(cfg.requests_per_round))
        for j in range(n):
            name = mech_names[int(rng.integers(len(mech_names)))]
            spec = cfg.mechanisms[name]
            epsilon = float(spec["levels"][int(rng.integers(len(spec["levels"])))])
            a, b = spec["pa_beta"]
            length = int(rng.beta(a, b) * cfg.pa_range_unit)
            start = int(rng.integers(cfg.pa_domain_size))
            sel = expand_block_range(start, length, cfg.pa_domain_size)

            attrs = sample_attribute_set(rng, cfg, schema)
            labels: dict[str, list[str]] = {
                "attr": attrs,
                "mech": [name],
                "cat": sorted(schema.connected_categories(attrs)),
            }
            if cfg.scenario == "s1" and spec.get("ml") and rng.random() < cfg.blackbox_rate:
                labels["context"] = ["blackbox-ml"]
            else:
                labels["context"] = ["standard"]

            time_step = None
            if cfg.scenario == "s3":
                if rng.random() < cfg.time_request_fraction:
                    labels["data"] = ["time"]
                    time_step = sample_month(rng, cfg, current)
                else:
                    labels["data"] = ["static"]

            curve = curves.get((name, epsilon))
            if curve is None:
                curve = curves[name, epsilon] = request_cost_curve(spec["family"], epsilon, cfg.delta_request)
            cost = {"user": curve}
            if cfg.scenario == "s3":
                cost["user-month"] = curve
            utility = float(
                rng.beta(0.25, 0.25)
                * epsilon ** cfg.utility_beta
                * (len(sel) / cfg.pa_domain_size) ** cfg.utility_alpha
            )
            batch.append(
                ReleaseRequest(
                    f"r{r:02d}-{j:03d}",
                    (Mechanism(LabelSet(labels), cost),),
                    sel,
                    time_step,
                    utility,
                )
            )
        yield batch


# ---------------------------------------------------------------------------
# Scenario runs and reports
# ---------------------------------------------------------------------------

@dataclass
class ScopeCost:
    cumulative_epsilon: float
    bound: float | None
    violation: bool


@dataclass
class RoundReport:
    round: int
    utility: float
    cumulative_utility: float
    scopes: dict[str, ScopeCost]


@dataclass
class ScenarioResult:
    config: WorkloadConfig
    mode: str
    reports: list[RoundReport]

    @property
    def total_utility(self) -> float:
        return self.reports[-1].cumulative_utility if self.reports else 0.0

    def final_scopes(self) -> dict[str, ScopeCost]:
        return self.reports[-1].scopes if self.reports else {}

    def violation_count(self) -> int:
        return sum(1 for rep in self.reports for sc in rep.scopes.values() if sc.violation)

    def summary(self) -> dict:
        return {
            "scenario": self.config.scenario,
            "mode": self.mode,
            "total_epsilon": self.config.total_epsilon,
            "rng_seed": self.config.rng_seed,
            "rounds": len(self.reports),
            "total_utility": self.total_utility,
            "violation_rounds": self.violation_count(),
            "final": {
                name: {
                    "cumulative_epsilon": sc.cumulative_epsilon,
                    "bound": sc.bound,
                    "violation": sc.violation,
                }
                for name, sc in sorted(self.final_scopes().items())
            },
        }


class _Scope:
    """Post-hoc per-scope accounting: a monitor-only filter whose ``_acc`` is
    a ``BlockRows`` store, one RDP row per class of blocks charged alike.
    ``share`` sets it: a scope that an active rule enforces reads that rule's
    store, which only the commit charges; any other gets a store of its own,
    charged through ``add``.

    A report takes the max epsilon over the held class rows.  The zero row of
    the uncharged blocks is among them, and moves no max, as a charged row's
    epsilon is never below it.
    """

    def __init__(self, name: str, predicate: Predicate, unit: str, bound: float | None,
                 cfg: WorkloadConfig, month: int | None = None):
        self.name = name
        self.predicate = predicate
        self.unit = unit
        self.bound = bound
        self.month = month
        self.delta = cfg.delta_budget
        self._acc: BlockRows | None = None  # set by ``share``

    def share(self, point: DecisionPoint) -> bool:
        """Read the store of the rule of ``point`` enforcing this scope, if
        any; else build the scope's own, over ``point``'s domain.  True if
        the scope shares a rule's store."""
        store = None if self.month is not None else point.ledger(self.predicate, self.unit)
        self._acc = BlockRows(point.state.domain.domain_size) if store is None else store
        return store is not None

    def add(self, request: ReleaseRequest, matched: frozenset[int]) -> None:
        """Charge the request's selection with the summed cost of the
        mechanisms that match the scope's predicate, whose indices
        ``matched`` holds: summed first, then added once, as the commit does."""
        if self.month is not None and request.time_step != self.month:
            return
        if request.pa_selection.size == 0:
            return
        costs = []
        for m in sorted(matched):
            cost = request.mechanisms[m].cost_by_unit.get(self.unit)
            if cost is not None:
                costs.append(cost.curve)
        if costs:
            total = np.array(costs[0])
            for curve in costs[1:]:
                total += curve
            self._acc.add(request.pa_selection, total)

    def report(self) -> ScopeCost:
        rows = self._acc.held_rows()
        eps = float(rdp_epsilon(rows, self.delta).max()) if len(rows) > 1 else 0.0
        violation = self.bound is not None and eps > self.bound + 1e-9
        return ScopeCost(eps, self.bound, violation)


def _build_scopes(cfg: WorkloadConfig, schema: WorkloadSchema) -> list[_Scope]:
    scopes: list[_Scope] = []
    if cfg.scenario == "s1":
        scopes.append(_Scope("combined", TruePredicate(), "user", cfg.total_epsilon, cfg))
        scopes.append(
            _Scope("standard", HasLabel("context", "standard"), "user",
                   s1_standard_epsilon(cfg.total_epsilon), cfg)
        )
    elif cfg.scenario == "s2":
        scopes.append(_Scope("global", TruePredicate(), "user", cfg.total_epsilon, cfg))
        high_cats = [c for c, r in schema.category_risk.items() if r == "high"]
        for cat in high_cats:
            member = schema.category_attrs(cat, [MembershipLevel.MEMBER])
            strong = member | schema.category_attrs(cat, [MembershipLevel.STRONG])
            weak = strong | schema.category_attrs(cat, [MembershipLevel.WEAK])
            scopes.append(_Scope(f"cat.{cat}.member", AttrIntersects(member), "user", 5.0, cfg))
            scopes.append(_Scope(f"cat.{cat}.strong", AttrIntersects(strong), "user", 7.5, cfg))
            scopes.append(_Scope(f"cat.{cat}.weak", AttrIntersects(weak), "user", 10.0, cfg))
        for attr in schema.high_risk_attributes():
            scopes.append(_Scope(f"attr.{attr}", AttrIntersects(frozenset({attr})), "user", 3.0, cfg))
    else:
        scopes.append(_Scope("global", TruePredicate(), "user", cfg.total_epsilon, cfg))
        for m in tracked_months(cfg):
            scopes.append(
                _Scope(f"month.{m:02d}", HasLabel("data", "time"), "user-month",
                       cfg.month_budget_epsilon, cfg, month=m)
            )
    return scopes


def _baseline_rules(cfg: WorkloadConfig) -> list[Rule]:
    return [
        Rule(
            "global_filter",
            TruePredicate(),
            "user",
            ADP(cfg.total_epsilon, cfg.delta_budget),
            Provenance("global_filter", 0),
            OrderKey(BASE_TOP, (), (), "user"),
        )
    ]


def run_scenario(cfg: WorkloadConfig, mode: str = "dpolicy") -> ScenarioResult:
    """Simulate one scenario end to end and report per-round scope costs;
    only the scopes that keep their own store are charged after acceptance."""
    if mode not in ("dpolicy", "baseline"):
        raise ConfigError(f"mode must be 'dpolicy' or 'baseline', got {mode!r}")
    schema = build_schema(cfg)
    policy = parse_policy_set(build_policy_document(cfg, schema))
    units = policy.unit_graph()
    if mode == "dpolicy":
        poset = prune(build_poset(compile_policy_set(policy), units))
    else:
        poset = build_poset(_baseline_rules(cfg), units)

    time_axis = (
        TimeAxis("user-month", cfg.month_window, cfg.start_month)
        if cfg.scenario == "s3"
        else None
    )
    domain = BlockDomain(("pa",), cfg.pa_domain_size, time_axis)
    point = DecisionPoint(poset, policy.per_release, domain)
    scopes = _build_scopes(cfg, schema)
    own = [scope for scope in scopes if not scope.share(point)]
    scope_index = RuleIndex(own)

    reports: list[RoundReport] = []
    cumulative_utility = 0.0
    # each round's batch is held only while it is offered, so a round is
    # dropped before the next is drawn.  The rounds come from ``_rounds``, not
    # through ``generate_workload``: a wrapper of that name which reads the
    # batches it returns, as perfbench's tracer counts them, would drain them
    rounds = _rounds(cfg, schema)
    for round_no in range(1, cfg.rounds + 1):
        if time_axis is not None:
            month = month_of_round(cfg, round_no)
            if month > point.state.now:
                point.advance_time(month)
        unlocked = min(1.0, round_no / cfg.unlock_rounds)
        round_utility = _offer_round(point, next(rounds), unlocked, own, scope_index)
        cumulative_utility += round_utility
        reports.append(
            RoundReport(
                round_no,
                round_utility,
                cumulative_utility,
                {s.name: s.report() for s in scopes},
            )
        )
    return ScenarioResult(cfg, mode, reports)


def _offer_round(point: DecisionPoint, batch: list[ReleaseRequest], unlocked: float,
                 own: list[_Scope], scope_index: RuleIndex) -> float:
    """Offer a round's requests by descending utility, charge the scopes
    that keep their own store with each accepted one, and return the
    utility accepted."""
    utility = 0.0
    for request in sorted(batch, key=lambda q: -q.utility):
        decision = point.process(request, budget_scale=unlocked)
        if decision.accepted:
            utility += request.utility
            for scope, matched in zip(own, scope_index.match(request.mechanisms)):
                if matched:
                    scope.add(request, matched)
    return utility


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("round", "scope", "cumulative_epsilon", "bound", "violation", "round_utility")


def emit_report(result: ScenarioResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write rounds.csv (one row per round per scope) and summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "rounds.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in result.reports:
            for name in sorted(rep.scopes):
                sc = rep.scopes[name]
                writer.writerow(
                    [
                        rep.round,
                        name,
                        f"{sc.cumulative_epsilon:.9f}",
                        "" if sc.bound is None else f"{sc.bound:.9f}",
                        int(sc.violation),
                        f"{rep.utility:.9f}",
                    ]
                )
    summary_path = out / "summary.json"
    summary = result.summary()
    summary["config"] = result.config.to_dict()
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    return csv_path, summary_path

"""Policy-driven differential-privacy budget compiler and enforcement engine."""

from .core import (
    ADP,
    DEFAULT_ALPHA_ORDERS,
    And,
    AttrIntersects,
    HasLabel,
    LabelSet,
    Mechanism,
    Not,
    Or,
    OrderKey,
    PrivacyUnit,
    Provenance,
    PureDP,
    RDP,
    ReleaseRequest,
    Rule,
    TruePredicate,
    UnitGraph,
    ZCDP,
    budget_leq,
    eval_predicate,
)
from .accounting import (
    calibrate_gaussian_rho,
    compose_rdp,
    convert_unit,
    epsilon_for_auxiliary_unit,
    filter_check,
    gaussian_sigma,
    group_privacy,
    rdp_to_adp,
    zcdp_to_adp,
)
from .compiler import (
    apply_extensions,
    compile_policy_set,
    parse_policy_set,
)
from .decision import (
    BlockDomain,
    Decision,
    DecisionPoint,
    FilterState,
    RuleIndex,
    TimeAxis,
    check_and_commit,
    check_per_release,
)
from .poset import (
    RulePoset,
    build_poset,
    prune,
    prune_with_report,
    rule_leq,
)
from .workload import WorkloadConfig, emit_report, generate_workload, run_scenario

__version__ = "0.1.0"

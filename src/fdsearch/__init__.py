"""Finite-domain constraint solver with pluggable black-box search
heuristics (activity-, impact- and weighted-degree-based) and a benchmark
harness."""

from .domain import (
    ChangeOutcome,
    DomainStore,
    FiniteDomain,
    Trail,
    VarId,
)
from .engine import DECISION, Engine, PropagationResult
from .propagators import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    LinearEq,
    LinearLeq,
    Propagator,
)
from .model import Model, ModelError
from .heuristics import (
    HeuristicConfig,
    ProbeAccumulator,
    t_critical,
)
from .search import (
    RestartPolicy,
    SearchStats,
    Status,
    probe_activities,
    solve,
)
from .benchmarks import (
    KnapsackInstance,
    build_knapsack_cop,
    build_knapsack_csp,
    build_magic_square,
    check_knapsack_cop,
    check_knapsack_csp,
    check_magic_square,
    load_bundled_instance,
    magic_constant,
    parse_knapsack_file,
    parse_knapsack_text,
)

__version__ = "0.1.0"

__all__ = [
    "AllDifferent",
    "BinaryKnapsackAtmost",
    "BinaryLess",
    "ChangeOutcome",
    "DECISION",
    "DomainStore",
    "Engine",
    "FiniteDomain",
    "HeuristicConfig",
    "KnapsackInstance",
    "LinearEq",
    "LinearLeq",
    "Model",
    "ModelError",
    "ProbeAccumulator",
    "PropagationResult",
    "Propagator",
    "RestartPolicy",
    "SearchStats",
    "Status",
    "Trail",
    "VarId",
    "build_knapsack_cop",
    "build_knapsack_csp",
    "build_magic_square",
    "check_knapsack_cop",
    "check_knapsack_csp",
    "check_magic_square",
    "load_bundled_instance",
    "magic_constant",
    "parse_knapsack_file",
    "parse_knapsack_text",
    "probe_activities",
    "solve",
    "t_critical",
]

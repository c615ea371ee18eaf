"""Finite-domain constraint solver with pluggable black-box search
heuristics (activity-, impact- and weighted-degree-based) and a benchmark
harness."""

from .domain import ChangeOutcome, DomainStore, FiniteDomain
from .engine import Engine
from .propagators import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    LinearEq,
    LinearLeq,
    Propagator,
)
from .model import Model, ModelError
from .heuristics import HeuristicConfig
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
    parse_knapsack_file,
)

__version__ = "0.1.0"

__all__ = [
    "AllDifferent",
    "BinaryKnapsackAtmost",
    "BinaryLess",
    "ChangeOutcome",
    "DomainStore",
    "Engine",
    "FiniteDomain",
    "HeuristicConfig",
    "KnapsackInstance",
    "LinearEq",
    "LinearLeq",
    "Model",
    "ModelError",
    "Propagator",
    "RestartPolicy",
    "SearchStats",
    "Status",
    "build_knapsack_cop",
    "build_knapsack_csp",
    "build_magic_square",
    "check_knapsack_cop",
    "check_knapsack_csp",
    "check_magic_square",
    "load_bundled_instance",
    "parse_knapsack_file",
    "probe_activities",
    "solve",
]

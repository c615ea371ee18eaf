"""The package's public names.  Adding or removing one is a deliberate
edit of this list; the engine, trail and probe internals are imported
from ``fdsearch.engine``, ``fdsearch.domain`` and ``fdsearch.heuristics``."""

import fdsearch

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(fdsearch.__all__) == PUBLIC
    for name in fdsearch.__all__:
        assert getattr(fdsearch, name) is not None, name


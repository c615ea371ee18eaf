"""Every search tree pinned for the benchmark still grows the same.

Re-solves each (heuristic, solve seed) entry of ``perfbench/pins.json``
with the benchmark's model, restart and failure cap, and compares
(status, choice points, failures, restarts, probes, objective).  A change
that moves one of these trees changes search behaviour, so it is not a
pure speed-up.
"""

import sys
from pathlib import Path

import pytest

import fdsearch
import fdsearch.bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS, load_pins, pinned_trees, tree_of  # noqa: E402

PINS = load_pins()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_trees_reproduce(name):
    w = WORKLOADS[name]
    pins = pinned_trees(w, PINS)
    assert len(pins) == len(w.heuristics) * w.pool, "every pool entry is pinned"
    model = fdsearch.bench.build_benchmark(w.selector)
    restart = fdsearch.bench.parse_restart(w.restart)
    drifted = []
    for key, pinned in pins.items():
        heuristic, seed = key.split(":")
        stats = fdsearch.solve(
            model, heuristic, restart=restart, seed=int(seed), max_failures=w.cap
        )
        tree = tree_of(stats)
        if tree != pinned:
            drifted.append(f"{key}: {tree} != pinned {pinned}")
    assert not drifted, "\n".join(drifted)

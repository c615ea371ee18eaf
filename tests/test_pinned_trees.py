"""Every search tree pinned for the benchmark still grows the same.

Re-solves each (heuristic, solve seed) entry of ``perfbench/pins.json``
with the benchmark's model, restart and failure cap, and compares
(status, choice points, failures, restarts, probes, objective).  A change
that moves one of these trees changes search behaviour, so it is not a
pure speed-up.  Every row call with a stored state is checked on the way
for the advice the rows trust (``oracles.advice_checked``).
"""

import sys
from pathlib import Path

import pytest

import fdsearch
import fdsearch.bench
from fdsearch.propagators import _Linear
from oracles import advice_checked

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from revs import PinnedPool  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  on the path that revs puts perfbench on


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_trees_reproduce(name):
    w = WORKLOADS[name]
    pool = PinnedPool(fdsearch, w)
    assert len(pool.pins) == len(w.heuristics) * w.pool, "every pool entry is pinned"
    drifted, checked = [], [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Linear, "propagate", advice_checked(checked))
        for key in pool.pins:
            heuristic, seed = key.split(":")
            _, drift = pool.solve(heuristic, int(seed))
            if drift:
                drifted.append(drift)
    assert not drifted, "\n".join(drifted)
    assert checked[0], "no row call took the state path"

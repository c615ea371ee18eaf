#!/usr/bin/env python3
"""Time two revisions of the solver against each other in one process.

    python3 tools/ab.py REV_A REV_B --workload msq [--passes 6]
    python3 tools/ab.py HEAD HEAD --workload knap-csp --passes 1   # A/A smoke run

REV_A and REV_B are REVs as ``tools/revs.py`` defines them.  Both are
imported into this interpreter as packages of their own, and REV_A once
more as an A/A control; each builds the workload's model with its own
builders.

A pass runs every pool solve of the ``perfbench`` workload (all solve
seeds of every heuristic) as two jobs, the pair (A, B) and the control
pair (A, A'), in an order shuffled per pass (by ``random.Random(0)``, so
every run takes the same orders).  A job times its two sides back to
back, A first on even jobs and B first on odd ones (ABBA), each after a
``gc.collect()``.  Every solve's tree is checked against
``perfbench/pins.json``; the tool exits 1 at the first that differs.

The pass ratio is B's summed solve time over A's in that pass, so below 1
means B is faster.  Printed per pair: the median pass ratio and its
quartiles, the passes where B was faster, and the ratio of the summed
per-solve minima.  A control whose ratios stray from 1 shows how far
apart two identical sides read on this host; read a difference of the
main pair only beside it.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from revs import PinnedPool, load, source
from workloads import WORKLOADS  # on the path that revs puts perfbench on


def summary(times_a: list[dict], times_b: list[dict]) -> dict:
    """Pass ratios and summed minima of per-pass ``{solve: seconds}`` maps."""
    ratios = [sum(b.values()) / sum(a.values()) for a, b in zip(times_a, times_b)]
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    min_a = sum(min(t[s] for t in times_a) for s in times_a[0])
    min_b = sum(min(t[s] for t in times_b) for s in times_b[0])
    return {
        "pass_ratio_median": round(statistics.median(ratios), 4),
        "pass_ratio_iqr": [round(quartiles[0], 4), round(quartiles[2], 4)],
        "b_faster_passes": sum(r < 1 for r in ratios),
        "passes": len(ratios),
        "summed_min_a_s": round(min_a, 4),
        "summed_min_b_s": round(min_b, 4),
        "summed_min_ratio": round(min_b / min_a, 4),
        "pass_ratios": [round(r, 4) for r in ratios],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, default=6)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    w = WORKLOADS[args.workload]
    solves = [(h, s) for h in w.heuristics for s in range(w.pool)]
    with tempfile.TemporaryDirectory() as tmp:
        revs = {"a": args.rev_a, "b": args.rev_b, "c": args.rev_a}
        sides = {key: PinnedPool(load(source(rev, Path(tmp) / key), f"ab_{key}"), w)
                 for key, rev in revs.items()}
        rng = random.Random(0)
        times = {pair: ([], []) for pair in ("ab", "ac")}  # per pair: per pass, per side
        for _ in range(args.passes):
            jobs = [(pair, spec) for pair in times for spec in solves]
            rng.shuffle(jobs)
            for pair in times:
                for per_side in times[pair]:
                    per_side.append({})
            for j, (pair, spec) in enumerate(jobs):
                order = (0, 1) if j % 2 == 0 else (1, 0)
                for i in order:
                    gc.collect()
                    t0 = time.perf_counter()
                    _, drift = sides[pair[i]].solve(*spec)
                    times[pair][i][-1][spec] = time.perf_counter() - t0
                    if drift:
                        print(f"{revs[pair[i]]} {drift}", file=sys.stderr)
                        return 1
    result = {
        "workload": w.name, "rev_a": args.rev_a, "rev_b": args.rev_b,
        "solves_per_pass": len(solves), "python": "%d.%d" % sys.version_info[:2],
        "main": summary(*times["ab"]), "control": summary(*times["ac"]),
    }
    for pair in ("main", "control"):
        s = result[pair]
        print(f"{pair}: pass ratio {s['pass_ratio_median']} (IQR {s['pass_ratio_iqr'][0]}"
              f"-{s['pass_ratio_iqr'][1]}), B faster in {s['b_faster_passes']} of {s['passes']}"
              f" passes, summed minima {s['summed_min_a_s']} -> {s['summed_min_b_s']} s"
              f" ({s['summed_min_ratio']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

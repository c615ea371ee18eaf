#!/usr/bin/env python3
"""Time two revisions of the solver against each other in one process.

    python3 tools/ab.py REV_A REV_B --workload msq [--passes 6]
    python3 tools/ab.py HEAD HEAD --workload knap-csp --passes 1   # A/A smoke run

Each of REV_A and REV_B is a git revision, whose ``src/fdsearch`` is taken
with ``git archive`` (no checkout, no change to ``.git``), or a directory
holding an ``fdsearch`` package.  Both are imported into this interpreter
as packages of their own, with a third copy of REV_A as an A/A control,
and each builds the workload's model with its own builders.

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
import importlib
import importlib.util
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, load_pins, pinned_trees, tree_of  # noqa: E402


def extract(rev: str, into: Path) -> None:
    """The ``fdsearch`` package of ``rev`` (a directory or a git revision)
    copied to the new directory ``into``."""
    if Path(rev).is_dir():
        shutil.copytree(Path(rev) / "fdsearch", into,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/fdsearch"],
        capture_output=True, check=True,
    ).stdout
    unpacked = into.parent / f"{into.name}_archive"
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(unpacked, filter="data")
        else:
            archive.extractall(unpacked)
    (unpacked / "src" / "fdsearch").rename(into)


def load(package_dir: Path):
    """Import ``package_dir`` as a package named after the directory."""
    name = package_dir.name
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.bench")
    return package


class Side:
    """One imported revision with its model of the workload."""

    def __init__(self, fd, w):
        self.fd = fd
        self.model = fd.bench.build_benchmark(w.selector)
        self.restart = fd.bench.parse_restart(w.restart)

    def time_solve(self, w, heuristic: str, seed: int):
        gc.collect()
        t0 = time.perf_counter()
        stats = self.fd.solve(self.model, heuristic, restart=self.restart, seed=seed,
                              max_failures=w.cap)
        return time.perf_counter() - t0, tree_of(stats)


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
    pins = pinned_trees(w, load_pins())
    solves = [(h, s) for h in w.heuristics for s in range(w.pool)]
    with tempfile.TemporaryDirectory() as tmp:
        revs = {"a": args.rev_a, "b": args.rev_b, "c": args.rev_a}
        sides = {}
        for key, rev in revs.items():
            package_dir = Path(tmp) / f"ab_{key}"
            extract(rev, package_dir)
            sides[key] = Side(load(package_dir), w)
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
                    seconds, tree = sides[pair[i]].time_solve(w, *spec)
                    pinned = pins.get("%s:%d" % spec)
                    if pinned is not None and tree != pinned:
                        print(f"{revs[pair[i]]} {spec[0]}:{spec[1]}: tree {tree} != pinned {pinned}",
                              file=sys.stderr)
                        return 1
                    times[pair][i][-1][spec] = seconds
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

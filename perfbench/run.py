#!/usr/bin/env python3
"""Fixed-tree benchmark of the fdsearch solver.

    python3 perfbench/run.py --workload msq --seed 0 --seconds 36 --trace 0

Run it from the repository root.  One process runs single-threaded solves in
a closed loop: each solve starts when the previous one has ended.  A pass
runs every solve the workload seed drew once; passes repeat until
``--seconds`` is spent (at least two untraced passes).  Every solve is
checked (independent solution checkers, pinned trees, the same tree in
every pass), and a failed check or an exception counts the solve as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (two traced at most), reports the per-layer
metrics derived from the spans of the traced passes plus the tracing
overhead, and writes the spans to ``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
SETUP_PER_PASS = 2
MIN_UNTRACED_PASSES = 2
MAX_TRACED_PASSES = 2

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS, draw_solves, load_pins, make_checker, pinned_trees, tree_of  # noqa: E402

PROPAGATOR_KINDS = (
    "linear_eq", "linear_leq", "alldifferent",
    "binary_less", "binary_knapsack_atmost", "objective_bound",
)
HEURISTICS = ("abs", "ibs", "wdeg")
SEARCH_COUNTS = ("choice_points", "failures", "restarts", "probes")


class ProgramMissing(Exception):
    pass


def load_fdsearch():
    """Import fdsearch from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "fdsearch" / "__init__.py").is_file():
        raise ProgramMissing(f"no fdsearch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdsearch
    import fdsearch.bench

    if Path(fdsearch.__file__).resolve().parent != SRC / "fdsearch":
        raise ProgramMissing(f"imported fdsearch from {fdsearch.__file__}")
    return fdsearch


def measure_setup(selectors: list[str]) -> float:
    """One cold set-up time, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *selectors],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[0])


class SolveRecord:
    """What the passes saw of one (heuristic, solve seed) pair."""

    def __init__(self):
        self.tree = None  # tree of the first completed solve
        self.times: dict[bool, list[float]] = {False: [], True: []}  # traced? -> s


class Runner:
    """Runs the passes of one workload and checks every solve."""

    def __init__(self, fd, workload, solves, pins, solve=None, recorder=None):
        self.fd = fd
        self.w = workload
        self.solves = solves
        self.pins = pinned_trees(workload, pins)
        self.check = make_checker(fd, workload)
        self.restart = fd.bench.parse_restart(workload.restart)
        self.solve = solve or fd.solve
        self.rec = recorder
        build = fd.bench.build_benchmark
        if recorder is not None:
            build = recorder.wrap(build, "benchmarks.build")
        self.model = build(workload.selector)
        self.records = {spec: SolveRecord() for spec in solves}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes: list[bool] = []  # traced? per pass
        self.pass_of_solve: list[int] = []  # recorder solve id -> pass index
        self.pass_counters: dict[int, dict[str, int]] = {}
        self.pass_seconds: dict[bool, list[float]] = {False: [], True: []}

    def run(self, seconds: float, before_pass=None) -> None:
        """Passes until ``seconds`` is spent.  With a recorder, untraced and
        traced passes alternate and at most ``MAX_TRACED_PASSES`` are traced,
        which bounds the memory the spans take."""
        deadline = time.perf_counter() + seconds
        trace = self.rec is not None
        times = self.pass_seconds
        while True:
            if before_pass is not None:
                before_pass()
            traced = trace and len(self.passes) % 2 == 1
            t0 = time.perf_counter()
            self.run_pass(traced)
            times[traced].append(time.perf_counter() - t0)
            if trace:
                if len(times[True]) == MAX_TRACED_PASSES:
                    break
                if not times[True]:
                    continue
            elif len(times[False]) < MIN_UNTRACED_PASSES:
                continue
            next_traced = trace and not traced
            expected = (times[next_traced] or [2 * times[False][-1]])[-1]
            if time.perf_counter() + expected > deadline:
                break

    def run_pass(self, traced: bool) -> None:
        index = len(self.passes)
        self.passes.append(traced)
        solve = self.solve
        uninstall = None
        if traced:
            for cell in self.rec.counters.values():
                cell[0] = 0
            solve = self.rec.wrap(solve, "search.solve")
            uninstall = spans.install(self.fd, self.rec)
        try:
            for spec in self.solves:
                if traced:
                    self.rec.solve_id = len(self.pass_of_solve)
                    self.pass_of_solve.append(index)
                self.run_solve(solve, spec, traced)
        finally:
            if uninstall is not None:
                uninstall()
                self.rec.solve_id = -1
                self.pass_counters[index] = {k: v[0] for k, v in self.rec.counters.items()}

    def run_solve(self, solve, spec, traced: bool) -> None:
        heuristic, seed = spec
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            stats = solve(
                self.model, heuristic, restart=self.restart, seed=seed,
                max_failures=self.w.cap,
            )
        except Exception as exc:  # a crashing solve is a failed solve, not a crashed run
            self.fail(spec, f"raised {exc!r}")
            return
        elapsed = time.perf_counter() - t0
        tree = tree_of(stats)
        record = self.records[spec]
        problems = self.check(stats)
        key = f"{heuristic}:{seed}"
        pinned = self.pins.get(key)
        if pinned is not None and tree != pinned:
            problems.append(f"tree {tree} != pinned {pinned}")
        if record.tree is None:
            record.tree = tree
        elif tree != record.tree:
            problems.append(f"tree {tree} != {record.tree} of an earlier pass")
        if problems:
            self.fail(spec, "; ".join(problems))
            return
        record.times[traced].append(elapsed)

    def fail(self, spec, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{self.w.name} {spec[0]}:{spec[1]}: {why}")

    # -- results --

    def best_times(self, traced: bool) -> dict:
        """Each solve's fastest time: interference on a shared machine only
        ever adds time, so the minimum over passes is the steadiest figure."""
        return {
            spec: min(r.times[traced]) for spec, r in self.records.items() if r.times[traced]
        }

    def tree_digest(self) -> str:
        trees = [[h, s, self.records[(h, s)].tree] for h, s in sorted(self.records)]
        return hashlib.sha256(json.dumps(trees).encode()).hexdigest()[:16]

    def search_counts(self) -> dict[str, int]:
        """Search counters summed over one pass (every pass has the same trees)."""
        totals = dict.fromkeys(SEARCH_COUNTS, 0)
        for h in HEURISTICS:
            totals[f"{h}.probes"] = 0
        for (h, _), r in self.records.items():
            if r.tree is None:
                continue
            for name in SEARCH_COUNTS:
                totals[name] += getattr(r.tree, name)
            totals[f"{h}.probes"] += r.tree.probes
        return totals

    def end_to_end(self, setup_samples: list[float]) -> dict:
        best = self.best_times(False)
        cps = sum(self.records[spec].tree.choice_points for spec in best)
        total = sum(best.values())
        return {
            "nodes_per_s": (cps / total if total else 0.0, "1/s"),
            "solve_s.p50": (statistics.median(best.values()) if best else 0.0, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "max_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        rec = self.rec
        traced_passes = [i for i, t in enumerate(self.passes) if t]
        pass_of_solve = self.pass_of_solve
        groups = spans.summarize(
            rec.names, rec.arrays(), lambda sid: pass_of_solve[sid] if sid >= 0 else -1
        )
        search = self.search_counts()
        per_pass = [
            layer_values(groups.get(i, {}), self.pass_counters[i], search)
            for i in traced_passes
        ]
        metrics = {
            name: (statistics.median(p[name][0] for p in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        builds = groups.get(-1, {}).get("benchmarks.build")
        metrics["benchmarks.build_s"] = (builds.total_s / builds.calls if builds else 0.0, "s")
        plain, traced = self.best_times(False), self.best_times(True)
        both = [spec for spec in plain if spec in traced]
        plain_s = sum(plain[s] for s in both)
        traced_s = sum(traced[s] for s in both)
        metrics["trace.overhead_s"] = (
            (statistics.median(traced[s] for s in both) - statistics.median(plain[s] for s in both))
            if both else 0.0, "s")
        metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1 if plain_s else 0.0, "ratio")
        return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


ABSENT = spans.Totals()


def layer_values(by_name: dict, counters: dict[str, int], search: dict[str, int]) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    m = {}

    def get(name):
        return by_name.get(name, ABSENT)

    prop_calls = 0
    for kind in PROPAGATOR_KINDS:
        t = get(f"propagators.{kind}")
        prop_calls += t.calls
        m[f"propagators.{kind}.calls"] = (t.calls, "count")
        m[f"propagators.{kind}.self_s"] = (t.self_s, "s")
        m[f"propagators.{kind}.prune_ratio"] = (_ratio(t.pruned, t.calls), "ratio")
        m[f"propagators.{kind}.fail_ratio"] = (_ratio(t.failed, t.calls), "ratio")
    e = get("engine.propagate")
    m["engine.fixpoints"] = (e.calls, "count")
    m["engine.self_s"] = (e.self_s, "s")
    m["engine.props_per_fixpoint"] = (_ratio(prop_calls, e.calls), "ratio")
    m["engine.fail_ratio"] = (_ratio(e.failed, e.calls), "ratio")
    restore, log_size = get("domain.restore_to"), get("domain.search_space_log_size")
    m["domain.push_level.calls"] = (counters.get("domain.push_level.calls", 0), "count")
    m["domain.restore_to.calls"] = (restore.calls, "count")
    m["domain.restore_to.self_s"] = (restore.self_s, "s")
    m["domain.trail_entries_restored"] = (counters.get("domain.trail_entries_restored", 0), "count")
    m["domain.search_space_log_size.calls"] = (log_size.calls, "count")
    m["domain.search_space_log_size.self_s"] = (log_size.self_s, "s")
    shrink_ops = counters.get("domain.shrink_ops", 0)
    m["domain.shrink_ops"] = (shrink_ops, "count")
    m["domain.shrink_ratio"] = (_ratio(counters.get("domain.shrunk", 0), shrink_ops), "ratio")
    branches = 0
    for h in HEURISTICS:
        fixpoint = get(f"heuristics.{h}.on_search_fixpoint")
        branches += fixpoint.calls
        m[f"heuristics.{h}.init_s"] = (get(f"heuristics.{h}.initialize").total_s, "s")
        m[f"heuristics.{h}.select_variable.calls"] = (
            get(f"heuristics.{h}.select_variable").calls, "count")
        m[f"heuristics.{h}.select_variable.self_s"] = (
            get(f"heuristics.{h}.select_variable").self_s, "s")
        m[f"heuristics.{h}.select_value.self_s"] = (get(f"heuristics.{h}.select_value").self_s, "s")
        m[f"heuristics.{h}.on_search_fixpoint.self_s"] = (fixpoint.self_s, "s")
        m[f"heuristics.{h}.probes"] = (search[f"{h}.probes"], "count")
    for name in SEARCH_COUNTS:
        m[f"search.{name}"] = (search[name], "count")
    m["search.fail_ratio"] = (_ratio(search["failures"], branches), "ratio")
    m["search.self_s"] = (get("search.solve").self_s, "s")
    return m


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"  # e.g. a checkout without .git


def environment() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdsearch").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (
        f"machine={platform.machine()} nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} git_sha={git_sha()} "
        f"src_sha256={digest.hexdigest()[:16]}"
    )


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        fd = load_fdsearch()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_samples: list[float] = []

    def sample_setup() -> None:
        # spread over the run, so that one busy stretch of a shared machine
        # does not set the median
        for _ in range(min(SETUP_PER_PASS, SETUP_SAMPLES - len(setup_samples))):
            setup_samples.append(measure_setup([w.selector]))

    solves = draw_solves(w, args.seed)
    rec = spans.Recorder() if args.trace else None
    runner = Runner(fd, w, solves, load_pins(), recorder=rec)
    runner.run(args.seconds, None if args.trace else sample_setup)
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        sample_setup()

    print(f"perfbench workload={w.name} seed={args.seed} trace={args.trace} "
          f"cap={w.cap} restart={w.restart} solves/pass={len(solves)} "
          f"passes={len(runner.passes)} (traced {sum(runner.passes)})")
    print(f"env {environment()}")
    print(f"tree_digest {runner.tree_digest()} over {len(solves)} solves "
          f"({len(runner.pins)} pinned trees apply)")
    for line in runner.problems[:20]:
        print(f"FAILED {line}")
    print(f"error_rate {_ratio(runner.failed, runner.attempted):.4f} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    if args.trace:
        metrics = runner.per_layer()
        path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.bin"
        rec.write(path, {"workload": w.name, "seed": args.seed,
                         "solves": solves, "passes": runner.passes,
                         "pass_of_solve": runner.pass_of_solve})
        absent = [n for n, (v, _) in metrics.items() if v == 0]
        print(f"spans {len(rec)} written to {path.relative_to(ROOT)}")
        print(f"absent (0 on this workload): {' '.join(absent)}")
    else:
        metrics = runner.end_to_end(setup_samples)
        n = len(runner.best_times(False))
        print(f"solve_s.p50 is over n={n} solves, each its fastest of "
              f"{len(runner.pass_seconds[False])} passes")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

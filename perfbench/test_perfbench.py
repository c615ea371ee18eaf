"""Self-tests of the benchmark harness (not part of the repository's suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, Workload, draw_solves, load_pins, make_checker, tree_of

fd = run.load_fdsearch()

# small versions of the three workloads: same models and heuristics, less work
SMALL = {
    "msq": Workload("msq", "msq:5", ("abs", "ibs", "wdeg"), "geo:1.1", 200, 3, 2, ""),
    "knap-cop": Workload("knap-cop", "knap-cop:1-2", ("abs", "ibs", "wdeg"), "nr", 40, 2, 2, ""),
    "knap-csp": Workload("knap-csp", "knap-csp:1-3", ("abs", "wdeg"), "nr", 40, 2, 2, ""),
}


def plain_trees(w):
    model = fd.bench.build_benchmark(w.selector)
    restart = fd.bench.parse_restart(w.restart)
    return {
        spec: tree_of(fd.solve(model, spec[0], restart=restart, seed=spec[1], max_failures=w.cap))
        for spec in draw_solves(w, 0)
    }


def traced_runner(w, **kwargs):
    runner = run.Runner(fd, w, draw_solves(w, 0), {}, recorder=spans.Recorder(), **kwargs)
    runner.run_pass(False)
    runner.run_pass(True)
    return runner


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_change_trees(name):
    w = SMALL[name]
    runner = traced_runner(w)
    assert runner.failed == 0, runner.problems
    assert {spec: r.tree for spec, r in runner.records.items()} == plain_trees(w)
    assert all(r.times[True] and r.times[False] for r in runner.records.values())
    # the wrappers are gone again
    assert not hasattr(fd.engine.Engine.propagate, "__wrapped__")
    assert "propagate" not in fd.propagators.LinearEq.__dict__
    assert "initialize" not in fd.heuristics.WeightedDegreeSearch.__dict__


def test_spans_nest_and_round_trip(tmp_path):
    runner = traced_runner(SMALL["msq"])
    rec = runner.rec
    n = len(rec)
    assert n > 0
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            assert p < i and rec.start[p] <= rec.start[i] <= rec.end[i] <= rec.end[p]
            assert rec.solve[p] == rec.solve[i]
    groups = spans.summarize(rec.names, rec.arrays(), lambda sid: 0 if sid >= 0 else None)
    solve = groups[0]["search.solve"]
    assert solve.calls == len(runner.solves)
    assert sum(t.self_s for t in groups[0].values()) == pytest.approx(solve.total_s)
    path = tmp_path / "spans.bin"
    rec.write(path, {"workload": "msq"})
    header, arrays = spans.read_spans(path)
    assert header["names"] == rec.names and header["count"] == n
    assert arrays == rec.arrays()


def test_wrong_pin_counts_as_failed():
    w = SMALL["knap-cop"]
    trees = {f"{h}:{s}": list(t) for (h, s), t in plain_trees(w).items()}
    pins = {w.name: {"cap": w.cap, "restart": w.restart, "trees": trees}}
    good = run.Runner(fd, w, draw_solves(w, 0), pins)
    good.run_pass(False)
    assert (good.attempted, good.failed) == (len(trees), 0)
    key = sorted(trees)[0]
    trees[key] = trees[key][:1] + [trees[key][1] + 1] + trees[key][2:]
    bad = run.Runner(fd, w, draw_solves(w, 0), pins)
    bad.run_pass(False)
    assert bad.failed == 1 and "pinned" in bad.problems[0]


def corrupting_solve(stats_edit):
    def solve(*args, **kwargs):
        stats = fd.solve(*args, **kwargs)
        stats_edit(stats)
        return stats
    return solve


def test_invalid_solution_counts_as_failed():
    w = SMALL["msq"]
    runner = run.Runner(fd, w, draw_solves(w, 0), {})
    runner.run_pass(False)
    solved = sum(r.tree[0] == "solution" for r in runner.records.values())
    assert runner.failed == 0 and solved > 0

    def swap_cells(stats):
        if stats.best_assignment is not None:
            a = stats.best_assignment
            a[0], a[1] = a[1], a[0]

    bad = run.Runner(fd, w, draw_solves(w, 0), {}, solve=corrupting_solve(swap_cells))
    bad.run_pass(False)
    assert bad.failed == solved
    assert "independent checker" in bad.problems[0]


def test_wrong_optimum_counts_as_failed():
    w = replace(SMALL["knap-cop"], cap=10**6)
    runner = run.Runner(fd, w, [("wdeg", 0)], {})
    runner.run_pass(False)
    assert runner.failed == 0 and runner.records[("wdeg", 0)].tree[0] == "optimal"
    check = make_checker(fd, w)
    stats = fd.solve(runner.model, "wdeg", seed=0)
    stats.best_objective -= 1
    assert check(stats)


def test_exception_counts_as_failed_and_run_goes_on():
    w = SMALL["knap-csp"]
    solves = draw_solves(w, 0)

    def flaky(model, heuristic, **kwargs):
        if (heuristic, kwargs["seed"]) == solves[0]:
            raise RuntimeError("boom")
        return fd.solve(model, heuristic, **kwargs)

    runner = run.Runner(fd, w, solves, {}, solve=flaky)
    runner.run_pass(False)
    assert (runner.attempted, runner.failed) == (len(solves), 1)
    assert "boom" in runner.problems[0]
    assert len(runner.best_times(False)) == len(solves) - 1


def test_default_seed_matches_pins():
    pins = load_pins()
    for w in WORKLOADS.values():
        first_per_heuristic = {}
        for spec in draw_solves(w, 0):
            first_per_heuristic.setdefault(spec[0], spec)
        runner = run.Runner(fd, w, list(first_per_heuristic.values()), pins)
        assert len(runner.pins) == len(w.heuristics) * w.pool
        runner.run_pass(False)
        assert runner.failed == 0, runner.problems


def test_draw_is_seeded_and_within_pool():
    w = WORKLOADS["msq"]
    assert draw_solves(w, 3) == draw_solves(w, 3)
    assert draw_solves(w, 3) != draw_solves(w, 4)
    solves = draw_solves(w, 3)
    for h in w.heuristics:
        seeds = [s for g, s in solves if g == h]
        assert len(set(seeds)) == w.draw and all(0 <= s < w.pool for s in seeds)


def test_metric_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runner = traced_runner(SMALL["knap-cop"])
    e2e = runner.end_to_end([0.1, 0.2, 0.3])
    layer = runner.per_layer()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (k, u) for k, (_, u) in layer.items()]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_cli_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "msq", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
    assert not Path(tmp_path / ".perfbench_out").exists()

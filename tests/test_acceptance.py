"""Acceptance gate: every release criterion, one test per criterion,
printed as one [PASS]/[FAIL] line each (run with ``pytest -v -s``).

The benchmark-reproduction criteria are qualitative desk-scale versions of
the published experiments: 10 runs, 60 s timeout, trend assertions only.
"""

import functools
import math
import random
import statistics
import time

import numpy as np
import pytest

from fdsearch import (
    HeuristicConfig,
    Model,
    Status,
    build_knapsack_cop,
    load_bundled_instance,
    solve,
)
from fdsearch.bench import RunConfig, run_experiment, sweep, write_csv
from fdsearch.engine import Engine, PropagationResult
from fdsearch.heuristics import (
    ActivitySearch,
    ImpactSearch,
    ProbeAccumulator,
    WeightedDegreeSearch,
    t_critical,
)
from fdsearch.benchmarks import build_magic_square

from oracles import (
    exact_filter,
    generate_and_test,
    random_csp,
    random_propagator_instance,
    reference_filter,
)

HEURISTICS = ("abs", "ibs", "wdeg")


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {desc}")
                raise
            print(f"\n[PASS] criterion {num}: {desc}")
        return wrapper
    return deco


@criterion(1, "all-solutions search equals generate-and-test on 200 random CSPs")
def test_criterion_1_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for i in range(200):
        model = random_csp(rng)
        expected = generate_and_test(model)
        for heuristic in HEURISTICS:
            stats = solve(model, heuristic, seed=i, all_solutions=True)
            assert set(stats.all_solutions) == expected, (
                f"model {i}, {heuristic}: solution sets differ"
            )
    assert time.perf_counter() - t0 < 60.0


@criterion(2, "propagator fixpoints sound and exact at declared consistency level")
def test_criterion_2_propagator_oracle_equivalence():
    t0 = time.perf_counter()
    kinds = (
        "linear_eq", "linear_leq", "alldifferent",
        "binary_knapsack_atmost", "binary_less",
    )
    rng = random.Random(2002)
    for kind in kinds:
        for _ in range(500):
            model, domains = random_propagator_instance(rng, kind)
            store = model.new_store()
            engine = Engine(model.num_vars, model.propagators)
            res = engine.propagate(store)
            prop = model.propagators[0]
            expected = reference_filter(prop, domains)
            if expected is None:
                assert not res.ok
                continue
            assert res.ok
            got = [set(d.values()) for d in store.domains]
            assert got == expected
            exact = exact_filter(prop, domains)
            for x in range(model.num_vars):
                assert got[x] <= domains[x]
                if exact is not None:
                    assert exact[x] <= got[x]
    assert time.perf_counter() - t0 < 60.0


@criterion(3, "heuristic formulas reproduce the hand-derived values to 1e-9")
def test_criterion_3_formula_unit_suite():
    t0 = time.perf_counter()
    rng = random.Random(0)

    # impact of one propagation step: S shrinks from 16 to 2
    assert 1.0 - math.exp(math.log(2) - math.log(16)) == pytest.approx(0.875, abs=1e-9)
    # failed assignments have impact exactly 1
    m = Model()
    x = m.add_var(1, 4)
    y = m.add_var(1, 4)
    ibs = ImpactSearch(m, HeuristicConfig(kind="ibs"), rng)
    ibs.on_search_fixpoint("eq", x, 1, PropagationResult(0, []), m.new_store())
    assert ibs.impact[(x, 1)] == 1.0
    # weighted impact update with alpha=8
    store = m.new_store()
    ibs.log_before = store.search_space_log_size()
    store.tighten_max(x, 2)
    store.assign(y, 1)
    ibs.impact[(x, 1)] = 0.5
    ibs.on_search_fixpoint("eq", x, 1, PropagationResult(None, [x, y]), store)
    assert ibs.impact[(x, 1)] == pytest.approx(0.546875, abs=1e-9)
    # variable scores over live domain values
    m2 = Model()
    a = m2.add_var(1, 2)
    b = m2.add_var(1, 2)
    ibs2 = ImpactSearch(m2, HeuristicConfig(kind="ibs"), rng)
    ibs2.impact.update({(a, 1): 0.9, (a, 2): 0.9, (b, 1): 0.1, (b, 2): 0.1})
    store2 = m2.new_store()
    assert ibs2.variable_score(a, store2) == pytest.approx(0.2, abs=1e-9)
    assert ibs2.variable_score(b, store2) == pytest.approx(1.8, abs=1e-9)

    # wdeg ratio |D|/weights over constraints with >1 future variable
    from fdsearch import LinearLeq
    m3 = Model()
    w = m3.add_var(1, 2)
    u = m3.add_var(0, 9)
    z = m3.add_var(4, 4)
    c1 = m3.post(LinearLeq([1, 1], [w, u], 100))
    c2 = m3.post(LinearLeq([1, 1], [w, z], 100))
    wdeg = WeightedDegreeSearch(m3, HeuristicConfig(kind="wdeg"), rng)
    wdeg.weights[c1] = 3
    wdeg.weights[c2] = 2
    assert wdeg._ratios((w,), m3.new_store())[0] == pytest.approx(2 / 3, abs=1e-9)

    # activity decay and increment with gamma=0.999
    m4 = Model()
    v = m4.add_var(1, 4)
    abs_h = ActivitySearch(m4, HeuristicConfig(kind="abs"), rng)
    abs_h.activity[v] = 10.0
    abs_h.on_search_fixpoint("eq", v, 1, PropagationResult(None, []), m4.new_store())
    assert abs_h.activity[v] == pytest.approx(9.99, abs=1e-9)
    abs_h.activity[v] = 10.0
    abs_h.on_search_fixpoint("eq", v, 1, PropagationResult(None, [v]), m4.new_store())
    assert abs_h.activity[v] == pytest.approx(10.99, abs=1e-9)

    # assignment-activity update with alpha=8
    m5 = Model()
    xs = m5.add_vars(12, 0, 1)
    abs_h5 = ActivitySearch(m5, HeuristicConfig(kind="abs"), rng)
    abs_h5.assignment_activity[(xs[0], 1)] = 4.0
    abs_h5.on_search_fixpoint(
        "eq", xs[0], 1, PropagationResult(None, list(range(12))), m5.new_store()
    )
    assert abs_h5.assignment_activity[(xs[0], 1)] == pytest.approx(5.0, abs=1e-9)

    # per-path activity recursion: counts of filtering events
    acc = ProbeAccumulator(3)
    vector = [0, 0, 0]
    for affected in ([0, 1], [1, 2], [1]):
        for k in affected:
            vector[k] += 1
    acc.fold(vector)
    assert acc.mean == [1.0, 3.0, 1.0]

    # t-distribution critical values
    assert t_critical(10) == pytest.approx(2.228, abs=1e-9)
    assert t_critical(1) == pytest.approx(12.706, abs=1e-9)
    assert t_critical(500) == pytest.approx(1.960, abs=1e-9)

    assert time.perf_counter() - t0 < 1.0


@criterion(4, "probing stops at the exact first n allowed by the CI rule")
def test_criterion_4_stopping_rule():
    t0 = time.perf_counter()
    rng = random.Random(4004)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        length = 60
        columns = [
            [max(0.0, rng.gauss(4 + 2 * i, 0.8 + 0.4 * i)) for _ in range(length)]
            for i in range(nvars)
        ]
        delta = rng.choice([0.05, 0.1, 0.2, 0.4, 0.8])
        min_probes = rng.choice([2, 5, 10])

        expected = None
        for n in range(min_probes, length + 1):
            worst = 0.0
            for col in columns:
                mu = statistics.fmean(col[:n])
                if mu <= 1e-6:
                    continue
                sd = statistics.stdev(col[:n])
                worst = max(worst, t_critical(n - 1) * sd / (math.sqrt(n) * mu))
            if worst <= delta:
                expected = n
                break

        acc = ProbeAccumulator(nvars)
        got = None
        for k in range(length):
            acc.fold([columns[v][k] for v in range(nvars)])
            if acc.should_stop(delta, min_probes=min_probes):
                got = k + 1
                break
        assert got == expected
    assert time.perf_counter() - t0 < 1.0


@criterion(5, "desk-scale benchmark reproduction (10 runs, 60 s timeout)")
def test_criterion_5_benchmark_reproduction():
    # (a) knapsack CSP 1-2..1-4: every heuristic solves all 10 runs
    for name in ("1-2", "1-3", "1-4"):
        for heuristic in HEURISTICS:
            record = run_experiment(RunConfig(
                bench=f"knap-csp:{name}", kind=heuristic, restart="nr",
                runs=10, timeout=60.0, seed=100,
            ))
            assert record.aggregate["n_success"] == 10, (
                f"knap-csp:{name} {heuristic}: F="
                f"{record.aggregate['n_success']}/10"
            )
    # (b) knapsack COP 1-4: activity-based search proves all 10 runs
    cop = run_experiment(RunConfig(
        bench="knap-cop:1-4", kind="abs", restart="nr",
        runs=10, timeout=60.0, seed=200,
    ))
    assert cop.aggregate["n_success"] == 10
    opt = load_bundled_instance("1-4").optimum
    assert all(row["objective"] == opt for row in cop.rows)

    # (c) magic square n=7 with fast restarts: abs and ibs robust,
    #     wdeg strictly worse on mean time and mean failures than abs
    results = {}
    for heuristic in HEURISTICS:
        results[heuristic] = run_experiment(RunConfig(
            bench="msq:7", kind=heuristic, restart="geo:1.1",
            runs=10, timeout=60.0, seed=300,
        )).aggregate
    assert results["abs"]["n_success"] == 10
    assert results["ibs"]["n_success"] == 10
    assert results["wdeg"]["mu_time_s"] > results["abs"]["mu_time_s"]
    assert results["wdeg"]["mu_failures"] > results["abs"]["mu_failures"]


def _bruteforce_cop_optimum(inst) -> int:
    weight = np.array(inst.weights, dtype=np.int64)
    caps = np.array(inst.capacities, dtype=np.int64)
    profit = np.array(inst.profits, dtype=np.int64)
    n = inst.n_items
    best = 0
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, 1 << n, 1 << 16):
        stop = min(start + (1 << 16), 1 << n)
        codes = np.arange(start, stop, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.int64)
        feasible = (bits @ weight.T <= caps).all(axis=1)
        if feasible.any():
            best = max(best, int((bits @ profit)[feasible].max()))
    return best


@criterion(6, "branch-and-bound optima equal brute force on bundled instances <= 20 items")
def test_criterion_6_bnb_optimality():
    t0 = time.perf_counter()
    for name in ("1-2", "1-3", "1-4"):
        inst = load_bundled_instance(name)
        assert inst.n_items <= 20
        oracle = _bruteforce_cop_optimum(inst)
        assert oracle == inst.optimum  # recorded optimum is itself exact
        stats = solve(build_knapsack_cop(inst), "abs", seed=7, timeout=60)
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == oracle
    assert time.perf_counter() - t0 < 60.0


@criterion(7, "heuristic state sizes: wdeg = |C| entries, abs without values = |X|")
def test_criterion_7_space_contracts():
    rng = random.Random(0)
    model = build_magic_square(6)
    wdeg = WeightedDegreeSearch(model, HeuristicConfig(kind="wdeg"), rng)
    assert len(wdeg.weights) == len(model.propagators)
    abs_h = ActivitySearch(
        model, HeuristicConfig(kind="abs", value_heuristic=False), rng
    )
    assert len(abs_h.activity) == model.num_vars
    assert abs_h.assignment_activity is None
    abs_v = ActivitySearch(model, HeuristicConfig(kind="abs"), rng)
    assert abs_v.assignment_activity == {}


@criterion(8, "identical config and seed give byte-identical per-run CSV rows")
def test_criterion_8_csv_determinism():
    import io

    config = RunConfig(
        bench="knap-csp:1-2", kind="abs", restart="geo:2.0",
        runs=4, timeout=30.0, seed=42,
    )
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(buf, run_experiment(config))
        texts.append(buf.getvalue())

    def mask_wall_time(text):
        lines = text.splitlines()
        out = [lines[0]]
        time_col = lines[0].split(",").index("time_s")
        agg_col = lines[0].split(",").index("agg")
        for line in lines[1:]:
            cells = line.split(",")
            if cells[agg_col] == "0":          # per-run row
                cells[time_col] = "<wall>"
                out.append(",".join(cells))
        return "\n".join(out)

    # byte-identical apart from wall-clock time, which is masked
    assert mask_wall_time(texts[0]) == mask_wall_time(texts[1])


@criterion(9, "delta sweep on magic square n=6: median probe counts grow as delta shrinks")
def test_criterion_9_delta_sweep():
    deltas = [0.8, 0.2, 0.05]
    records = sweep("delta", deltas, RunConfig(
        bench="msq:6", kind="abs", restart="nr",
        runs=5, timeout=60.0, seed=500,
    ))
    medians = [rec.aggregate["med_probes"] for rec in records]
    assert medians[0] <= medians[1] <= medians[2], medians
    assert medians[2] > medians[0], medians

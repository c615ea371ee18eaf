import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from fdsearch import (
    AllDifferent,
    Engine,
    HeuristicConfig,
    LinearEq,
    LinearLeq,
    Model,
    ModelError,
    RestartPolicy,
    Status,
    build_magic_square,
)
from fdsearch.engine import PropagationResult
from fdsearch.heuristics import (
    ActivitySearch,
    ImpactSearch,
    ProbeAccumulator,
    WeightedDegreeSearch,
    _argbest,
    t_critical,
)
from fdsearch.search import _Solver, solve
from oracles import ibs_variable_score, random_mixed_model, random_planted_sums, wdeg_ratios


def make_solver(model, kind="abs", seed=0, probe_only=False, **cfg):
    config = HeuristicConfig(kind=kind, **cfg)
    solver = _Solver(
        model, config, RestartPolicy.none(), seed, None, None, False,
        probe_only=probe_only,
    )
    root = solver.propagate()
    assert root.ok
    return solver


class TestTCritical:
    def test_table_values(self):
        assert t_critical(10) == pytest.approx(2.228, abs=1e-9)
        assert t_critical(1) == pytest.approx(12.706, abs=1e-9)
        assert t_critical(30) == pytest.approx(2.042, abs=1e-9)

    def test_normal_limit(self):
        assert t_critical(31) == pytest.approx(1.960, abs=1e-9)
        assert t_critical(10_000) == pytest.approx(1.960, abs=1e-9)

    def test_monotone_decreasing(self):
        vals = [t_critical(df) for df in range(1, 40)]
        assert vals == sorted(vals, reverse=True)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_critical(0)


class TestImpactFormulas:
    def _heuristic(self, model, seed=0):
        return ImpactSearch(model, HeuristicConfig(kind="ibs"), random.Random(seed))

    def test_impact_from_log_sizes(self):
        m = Model()
        x = m.add_var(1, 4)
        y = m.add_var(1, 4)
        heur = self._heuristic(m)
        store = m.new_store()
        heur.log_before = store.search_space_log_size()  # ln 16
        store.tighten_max(x, 2)  # |D(x)| = 2
        store.assign(y, 1)       # |D(y)| = 1 -> ln 2 total
        res = PropagationResult(None, [x, y])
        heur.on_search_fixpoint("eq", x, 1, res, store)
        assert heur.impact[(x, 1)] == pytest.approx(0.875, abs=1e-9)

    def test_failure_has_impact_one(self):
        m = Model()
        x = m.add_var(1, 4)
        heur = self._heuristic(m)
        store = m.new_store()
        heur.on_search_fixpoint("eq", x, 2, PropagationResult(0, []), store)
        assert heur.impact[(x, 2)] == 1.0

    def test_weighted_update(self):
        m = Model()
        x = m.add_var(1, 4)
        y = m.add_var(1, 4)
        heur = self._heuristic(m)
        heur.impact[(x, 1)] = 0.5
        store = m.new_store()
        heur.log_before = store.search_space_log_size()
        store.tighten_max(x, 2)
        store.assign(y, 1)
        heur.on_search_fixpoint("eq", x, 1, PropagationResult(None, [x, y]), store)
        assert heur.impact[(x, 1)] == pytest.approx(0.546875, abs=1e-9)  # (0.5*7 + 0.875)/8

    def test_refutation_does_not_touch_the_table(self):
        m = Model()
        x = m.add_var(1, 4)
        heur = self._heuristic(m)
        store = m.new_store()
        heur.on_search_fixpoint("ne", x, 2, PropagationResult(None, [x]), store)
        assert heur.impact == {}

    def test_variable_score_and_selection(self):
        m = Model()
        x = m.add_var(1, 2)
        y = m.add_var(1, 2)
        heur = self._heuristic(m)
        heur.impact.update({(x, 1): 0.9, (x, 2): 0.9, (y, 1): 0.1, (y, 2): 0.1})
        store = m.new_store()
        assert heur.variable_score(x, store) == pytest.approx(0.2, abs=1e-9)
        assert heur.variable_score(y, store) == pytest.approx(1.8, abs=1e-9)
        # branch where the estimated remaining space is smallest
        assert heur.select_variable([x, y], store) == x

    def test_singletons_are_not_candidates(self):
        m = Model()
        x = m.add_var(1, 2)
        y = m.add_var(3, 3)
        solver = make_solver(m, "ibs")
        free = [v for v in range(m.num_vars) if solver.store.domains[v].size > 1]
        assert free == [x]

    def test_value_selection_least_impact(self):
        m = Model()
        x = m.add_var_values([1, 3])
        heur = self._heuristic(m)
        heur.impact.update({(x, 1): 0.2, (x, 3): 0.7})
        store = m.new_store()
        assert heur.select_value(x, store) == 1

    def test_value_selection_singleton_forced(self):
        m = Model()
        x = m.add_var(5, 5)
        heur = self._heuristic(m)
        assert heur.select_value(x, m.new_store()) == 5


class TestImpactInitialization:
    def test_pair_sum_model_probes_and_impacts(self):
        m = Model()
        x = m.add_var(0, 5)
        y = m.add_var(0, 5)
        m.post(LinearEq([1, 1], [x, y], 5))
        solver = make_solver(m, "ibs")
        assert solver.heuristic.initialize(solver)
        assert solver.stats.probes == 12  # 6 + 6 simulated assignments
        for key, impact in solver.heuristic.impact.items():
            assert impact == pytest.approx(35 / 36, abs=1e-9)

    def test_unconstrained_impacts(self):
        m = Model()
        m.add_var(0, 5)
        m.add_var(0, 5)
        solver = make_solver(m, "ibs")
        assert solver.heuristic.initialize(solver)
        for impact in solver.heuristic.impact.values():
            assert impact == pytest.approx(1 - 1 / 6, abs=1e-9)

    def test_failing_probe_shaves_root_value(self):
        m = Model()
        x = m.add_var(1, 3)
        y = m.add_var(1, 2)
        z = m.add_var(1, 2)
        m.post(AllDifferent([x, y, z]))
        solver = make_solver(m, "ibs")
        assert solver.heuristic.initialize(solver)
        assert tuple(solver.store.domains[x].values()) == (3,)  # 1 and 2 shaved
        assert solver.heuristic.impact[(x, 1)] == 1.0
        assert solver.heuristic.impact[(x, 2)] == 1.0

    def test_a_value_shaved_with_an_earlier_one_is_not_probed(self):
        """x = 1 fails (y and z would both be 2), and shaving it moves x's
        minimum to 2, so x + v = 5 bounds v by 3; v lost 3 at the root to
        alldifferent with w = 3, so v <= 2 and x >= 3.  Value 2 leaves x
        while x still has two values, and its probe is skipped."""
        m = Model()
        x, y, z = m.add_var(1, 4), m.add_var(1, 2), m.add_var(1, 2)
        v, w = m.add_var(1, 4), m.add_var(3, 3)
        m.post(AllDifferent([x, y, z]))
        m.post(AllDifferent([v, w]))
        m.post(LinearEq([1, 1], [x, v], 5))
        solver = make_solver(m, "ibs")
        assert tuple(solver.store.domains[x].values()) == (1, 2, 3, 4)
        assert solver.heuristic.initialize(solver)
        assert tuple(solver.store.domains[x].values()) == (3, 4)
        impact = solver.heuristic.impact
        assert impact[(x, 1)] == 1.0
        assert {a for (var, a) in impact if var == x} == {1, 3, 4}

    def test_shaving_can_prove_infeasibility(self):
        m = Model()
        for _ in range(3):
            m.add_var(1, 2)
        m.post(AllDifferent([0, 1, 2]))
        solver = make_solver(m, "ibs")
        assert not solver.heuristic.initialize(solver)

    def test_impacts_stay_in_unit_interval_during_search(self):
        stats_model = build_magic_square(4)
        config = HeuristicConfig(kind="ibs")
        solver = _Solver(stats_model, config, RestartPolicy.none(), 9, None, None, False)
        stats = solver.run()
        assert stats.status is Status.SOLUTION_FOUND
        for impact in solver.heuristic.impact.values():
            assert -1e-12 <= impact <= 1 + 1e-12


class TestWdeg:
    def test_failure_increments_weight(self):
        m = Model()
        x = m.add_var(0, 3)
        pid = m.post(LinearLeq([1], [x], 2))
        other = m.post(LinearLeq([1], [x], 3))
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(0))
        store = m.new_store()
        heur.on_search_fixpoint("eq", x, 0, PropagationResult(pid, []), store)
        heur.on_search_fixpoint("ne", x, 1, PropagationResult(pid, []), store)
        assert heur.weights[pid] == 3  # initialized to 1, failed twice
        assert heur.weights[other] == 1

    def test_decision_failures_do_not_bump(self):
        m = Model()
        x = m.add_var(0, 3)
        m.post(LinearLeq([1], [x], 3))
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(0))
        heur.on_search_fixpoint("eq", x, 0, PropagationResult(-1, []), m.new_store())
        assert heur.weights == [1]

    def test_ratio_example(self):
        m = Model()
        x = m.add_var(1, 2)
        u = m.add_var(0, 9)
        z = m.add_var(4, 4)
        c1 = m.post(LinearLeq([1, 1], [x, u], 100))  # two future variables
        c2 = m.post(LinearLeq([1, 1], [x, z], 100))  # one future variable
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(0))
        heur.weights[c1] = 3
        heur.weights[c2] = 2
        store = m.new_store()
        assert heur._ratios((x,), store)[0] == pytest.approx(2 / 3, abs=1e-9)

    def test_unconstrained_variable_never_preferred(self):
        m = Model()
        x = m.add_var(1, 2)
        u = m.add_var(0, 9)
        lone = m.add_var(0, 9)
        m.post(LinearLeq([1, 1], [x, u], 100))
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(3))
        store = m.new_store()
        assert heur._ratios((lone,), store)[0] == math.inf
        for _ in range(50):
            assert heur.select_variable([x, lone], store) == x

    def test_value_order_is_ascending(self):
        m = Model()
        x = m.add_var_values([4, 7, 9])
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(0))
        assert heur.select_value(x, m.new_store()) == 4

    def test_weights_survive_restarts(self):
        # weights are plain counters: nothing in the search path resets them
        m = build_magic_square(4)
        config = HeuristicConfig(kind="wdeg")
        solver = _Solver(m, config, RestartPolicy.geometric(1.2, 3), 5, None, None, False)
        stats = solver.run()
        assert stats.restarts > 0
        assert sum(solver.heuristic.weights) == len(m.propagators) + stats.failures

    @settings(max_examples=60, deadline=None)
    @given(
        moves=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=12),
        bumps=st.lists(st.integers(0, 10**6), max_size=20),
        seed=st.integers(0, 2**16),
    )
    def test_select_variable_minimises_variable_ratio(self, moves, bumps, seed):
        # a mid-search msq:5 store: random decisions, whose failures bump
        # weights, plus random extra failures of any constraint
        m = build_magic_square(5)
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(seed))
        engine = Engine(m.num_vars, m.propagators)
        store = m.new_store()
        assert engine.propagate(store).ok
        for b in bumps:
            failed = PropagationResult(b % len(heur.weights), [])
            heur.on_search_fixpoint("eq", 0, 1, failed, store)
        for i, j in moves:
            free = [x for x in m.branch_vars if store.domains[x].size > 1]
            if not free:
                break
            x = free[i % len(free)]
            values = list(store.domains[x].values())
            v = values[j % len(values)]
            level = store.push_level()
            res = engine.propagate(store, ("eq", x, v))
            heur.on_search_fixpoint("eq", x, v, res, store)
            if not res.ok:
                store.restore_to(level)
        free = [x for x in m.branch_vars if store.domains[x].size > 1]
        if not free:
            return
        best = min(heur._ratios(free, store))
        for _ in range(5):  # ties are broken at random
            chosen = heur.select_variable(free, store)
            assert chosen in free
            assert heur._ratios((chosen,), store)[0] == best


class TestScoreCaches:
    """The IBS score cache and the wdeg running sums against their
    first-written formulas, recomputed from scratch (``tests/oracles.py``)."""

    def test_every_ibs_score_equals_a_fresh_recomputation(self, monkeypatch):
        """A spy on ``variable_score`` over random solves, with restarts:
        each result equals the sum recomputed from the impacts, and the
        cache answers calls whose variable had an impact written since its
        last miss."""
        real = ImpactSearch.variable_score
        calls = stale = 0

        def spy(self, x, store):
            nonlocal calls, stale
            cached = self._scores[x]
            if cached is not None and cached[0] == store.domains[x].mask:
                stale += cached[1] != self.writes[x]
            got = real(self, x, store)
            assert got == ibs_variable_score(self.impact, x, store)
            calls += 1
            return got

        monkeypatch.setattr(ImpactSearch, "variable_score", spy)
        for seed in range(40):
            rng = random.Random(seed)
            m = (random_mixed_model if seed % 2 else random_planted_sums)(rng)
            try:
                m.audit()
            except ModelError:
                continue  # a knapsack over a domain other than 0/1
            solve(m, "ibs", restart=RestartPolicy.geometric(1.5, 2), seed=seed, max_failures=60)
        for seed in range(3):
            solve(build_magic_square(5), "ibs", restart=RestartPolicy.geometric(1.1, 5),
                  seed=seed, max_failures=60)
        assert calls > 5000 and stale > 40

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ops=st.lists(
            st.tuples(st.sampled_from(("fail", "decide", "decide", "restore")),
                      st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=25,
        ),
    )
    def test_wdeg_ratios_match_the_first_written_formula(self, seed, ops):
        """After each of random constraint failures, decisions and restores
        on a random model, ``_ratios`` of the unbound variables equals the
        formula summed from scratch, from the first select on."""
        rng = random.Random(seed)
        m = (random_mixed_model if seed % 2 else random_planted_sums)(rng)
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), rng)
        engine = Engine(m.num_vars, m.propagators)
        store = m.new_store()
        if not engine.propagate(store).ok:
            return
        for op, i, j in ops:
            free = [x for x, d in enumerate(store.domains) if d.size > 1]
            assert heur._ratios(free, store) == wdeg_ratios(m, heur.weights, free, store)
            if op == "fail" and m.propagators:
                heur.on_search_fixpoint("eq", 0, 0, PropagationResult(i % len(m.propagators), []),
                                        store)
            elif op == "restore" and store.level:
                store.restore_to(1 + i % store.level)
            elif op == "decide" and free:
                x = free[i % len(free)]
                values = list(store.domains[x].values())
                store.push_level()
                res = engine.propagate(store, ("eq", x, values[j % len(values)]))
                heur.on_search_fixpoint("eq", x, values[j % len(values)], res, store)
                if not res.ok:
                    store.restore_to(store.level)
        free = [x for x, d in enumerate(store.domains) if d.size > 1]
        assert heur._ratios(free, store) == wdeg_ratios(m, heur.weights, free, store)


class TestActivityFormulas:
    def _heuristic(self, model, seed=0, **cfg):
        return ActivitySearch(model, HeuristicConfig(kind="abs", **cfg), random.Random(seed))

    def test_decay_without_activity(self):
        m = Model()
        x = m.add_var(1, 4)
        heur = self._heuristic(m)
        heur.activity[x] = 10.0
        heur.on_search_fixpoint("eq", x, 1, PropagationResult(None, []), m.new_store())
        assert heur.activity[x] == pytest.approx(9.99, abs=1e-9)

    def test_decay_then_increment(self):
        m = Model()
        x = m.add_var(1, 4)
        heur = self._heuristic(m)
        heur.activity[x] = 10.0
        heur.on_search_fixpoint("eq", x, 1, PropagationResult(None, [x]), m.new_store())
        assert heur.activity[x] == pytest.approx(10.99, abs=1e-9)

    def test_gamma_one_is_pure_counting(self):
        m = Model()
        x = m.add_var(1, 4)
        heur = self._heuristic(m, gamma=1.0)
        heur.activity[x] = 3.0
        store = m.new_store()
        for _ in range(5):
            heur.on_search_fixpoint("eq", x, 1, PropagationResult(None, [x]), store)
        assert heur.activity[x] == pytest.approx(8.0, abs=1e-12)

    def test_bound_variables_are_frozen(self):
        m = Model()
        x = m.add_var(1, 4)
        y = m.add_var(2, 2)
        heur = self._heuristic(m)
        heur.activity[x] = heur.activity[y] = 10.0
        heur.on_search_fixpoint("eq", x, 1, PropagationResult(None, []), m.new_store())
        assert heur.activity[y] == 10.0  # no aging for bound variables
        assert heur.activity[x] == pytest.approx(9.99, abs=1e-9)

    def test_assignment_activity_update(self):
        m = Model()
        xs = m.add_vars(12, 0, 1)
        heur = self._heuristic(m)
        heur.assignment_activity[(xs[0], 1)] = 4.0
        res = PropagationResult(None, list(range(12)))
        heur.on_search_fixpoint("eq", xs[0], 1, res, m.new_store())
        assert heur.assignment_activity[(xs[0], 1)] == pytest.approx(5.0, abs=1e-9)

    def test_assignment_activity_counts_affected_before_wipeout(self):
        m = Model()
        xs = m.add_vars(4, 0, 1)
        heur = self._heuristic(m)
        res = PropagationResult(2, [xs[0], xs[1]])  # failed after shrinking two
        heur.on_search_fixpoint("eq", xs[0], 1, res, m.new_store())
        assert heur.assignment_activity[(xs[0], 1)] == 2.0

    def test_value_heuristic_disabled_is_a_noop_table(self):
        m = Model()
        x = m.add_var(0, 3)
        heur = self._heuristic(m, value_heuristic=False)
        assert heur.assignment_activity is None
        heur.on_search_fixpoint("eq", x, 1, PropagationResult(None, [x]), m.new_store())
        assert heur.select_value(x, m.new_store()) == 0  # ascending order

    def test_variable_selection_highest_ratio(self):
        m = Model()
        x = m.add_var(1, 4)
        z = m.add_var(1, 2)
        heur = self._heuristic(m)
        heur.activity[x] = 8.0  # ratio 2.0
        heur.activity[z] = 5.0  # ratio 2.5
        assert heur.select_variable([x, z], m.new_store()) == z

    def test_scaling_invariance(self):
        m = Model()
        xs = m.add_vars(4, 0, 3)
        store = m.new_store()
        base = [3.0, 1.0, 4.0, 1.5]
        picks = []
        for scale in (1.0, 17.5):
            heur = self._heuristic(m, seed=5)
            heur.activity = [scale * a for a in base]
            picks.append([heur.select_variable(xs, store) for _ in range(20)])
        assert picks[0] == picks[1]

    def test_value_selection_least_activity(self):
        m = Model()
        x = m.add_var_values([2, 5, 8])
        heur = self._heuristic(m)
        heur.assignment_activity.update({(x, 2): 3.0, (x, 5): 0.5, (x, 8): 1.0})
        assert heur.select_value(x, m.new_store()) == 5


class TestProbeAccumulator:
    def test_path_activity_recursion(self):
        # decisions touch {0,1}, {1,2}, {} -> per-path counts 1,2,1
        acc = ProbeAccumulator(3)
        vector = [0, 0, 0]
        for affected in ([0, 1], [1, 2]):
            for x in affected:
                vector[x] += 1
        acc.fold(vector)
        assert acc.mean == [1.0, 2.0, 1.0]

    def test_stddev_is_zero_before_two_folds(self):
        acc = ProbeAccumulator(1)
        assert acc.stddev(0) == 0.0
        acc.fold([3.0])
        assert acc.stddev(0) == 0.0
        acc.fold([5.0])
        assert acc.stddev(0) == pytest.approx(math.sqrt(2.0))

    def test_untouched_variables_average_zero(self):
        acc = ProbeAccumulator(2)
        acc.fold([2, 0])
        acc.fold([0, 0])
        assert acc.mean == [1.0, 0.0]

    def test_welford_matches_two_pass(self):
        rng = random.Random(8)
        nvars = 5
        acc = ProbeAccumulator(nvars)
        vectors = []
        for _ in range(40):
            vec = [rng.randint(0, 9) for _ in range(nvars)]
            vectors.append(vec)
            acc.fold(vec)
        for x in range(nvars):
            column = [v[x] for v in vectors]
            assert acc.mean[x] == pytest.approx(statistics.fmean(column), abs=1e-9)
            assert acc.stddev(x) == pytest.approx(statistics.stdev(column), abs=1e-9)

    def test_assignment_running_mean(self):
        acc = ProbeAccumulator(1)
        acc.fold([1], [((0, 4), 3)])
        acc.fold([1], [((0, 4), 5)])
        acc.fold([1], [((0, 7), 1)])
        assert acc.assignment_mean[(0, 4)][1] == pytest.approx(4.0, abs=1e-12)
        assert acc.assignment_mean[(0, 7)][1] == pytest.approx(1.0, abs=1e-12)


class TestStoppingRule:
    @staticmethod
    def oracle_stop_n(columns, delta, min_probes, eps=1e-6):
        """First n >= min_probes where every variable's CI half-width is
        within delta of its mean (two-pass computation)."""
        total = len(columns[0])
        for n in range(min_probes, total + 1):
            ok = True
            for col in columns:
                prefix = col[:n]
                mu = statistics.fmean(prefix)
                if mu <= eps:
                    continue
                sd = statistics.stdev(prefix)
                if t_critical(n - 1) * sd / (math.sqrt(n) * mu) > delta:
                    ok = False
                    break
            if ok:
                return n
        return None

    def test_stops_at_the_exact_first_n(self):
        rng = random.Random(31337)
        for trial in range(30):
            nvars = rng.randint(1, 4)
            length = 80
            columns = [
                [max(0.0, rng.gauss(5 + 3 * i, 1 + 0.5 * i)) for _ in range(length)]
                for i in range(nvars)
            ]
            delta = rng.choice([0.05, 0.1, 0.2, 0.4])
            expected = self.oracle_stop_n(columns, delta, min_probes=2)
            acc = ProbeAccumulator(nvars)
            got = None
            for k in range(length):
                acc.fold([columns[x][k] for x in range(nvars)])
                if acc.should_stop(delta, min_probes=2):
                    got = k + 1
                    break
            assert got == expected, f"trial {trial}: stopped at {got}, oracle {expected}"

    def test_zero_variance_never_blocks(self):
        acc = ProbeAccumulator(2)
        for _ in range(10):
            acc.fold([4.0, 4.0])
        assert acc.should_stop(0.05, min_probes=10)

    def test_near_zero_mean_exempt(self):
        acc = ProbeAccumulator(2)
        rng = random.Random(0)
        for _ in range(10):
            acc.fold([0.0, rng.uniform(9.9, 10.1)])
        assert acc.should_stop(0.2, min_probes=10)

    def test_min_probes_respected(self):
        acc = ProbeAccumulator(1)
        for _ in range(9):
            acc.fold([5.0])
        assert not acc.should_stop(0.2, min_probes=10)
        acc.fold([5.0])
        assert acc.should_stop(0.2, min_probes=10)


class TestProbingInitialization:
    def test_pairing_model_probe_statistics(self):
        # two x+y=1 pairs over 0/1: every decision filters the labeled
        # variable and its partner, so all mean activities are exactly 1
        m = Model()
        a, b, c, d = m.add_vars(4, 0, 1)
        m.post(LinearEq([1, 1], [a, b], 1))
        m.post(LinearEq([1, 1], [c, d], 1))
        solver = make_solver(m, "abs", seed=4, probe_only=True)
        assert solver.heuristic.initialize(solver)
        assert solver.stats.probes == 10  # zero variance: stops at min_probes
        assert solver.heuristic.activity == [1.0, 1.0, 1.0, 1.0]
        for mean in solver.heuristic.assignment_activity.values():
            assert mean == 2.0

    def test_first_decision_failure_shaves_root(self):
        m = Model()
        x = m.add_var(1, 3)
        y = m.add_var(1, 2)
        z = m.add_var(1, 2)
        m.post(AllDifferent([x, y, z]))
        solver = make_solver(m, "abs", seed=0, probe_only=True)
        assert solver.heuristic.initialize(solver)
        assert tuple(solver.store.domains[x].values()) == (3,)

    def test_probing_can_prove_infeasibility(self):
        m = Model()
        for _ in range(3):
            m.add_var(1, 2)
        m.post(AllDifferent([0, 1, 2]))
        solver = make_solver(m, "abs", seed=2)
        assert not solver.heuristic.initialize(solver)

    def test_delta_controls_probe_count(self):
        counts = {}
        for delta in (0.8, 0.2, 0.05):
            m = build_magic_square(5)
            solver = make_solver(m, "abs", seed=6, delta=delta)
            assert solver.heuristic.initialize(solver)
            counts[delta] = solver.stats.probes
        assert counts[0.8] <= counts[0.2] <= counts[0.05]
        assert counts[0.05] > counts[0.8]


class TestSpaceContracts:
    def test_wdeg_table_is_exactly_constraint_count(self):
        m = build_magic_square(5)
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(0))
        assert len(heur.weights) == len(m.propagators)

    def test_abs_without_value_heuristic_is_variable_sized(self):
        m = build_magic_square(5)
        heur = ActivitySearch(
            m, HeuristicConfig(kind="abs", value_heuristic=False), random.Random(0)
        )
        assert len(heur.activity) == m.num_vars
        assert heur.assignment_activity is None


class TestTieBreaking:
    def assert_uniform(self, counts, draws, k):
        expected = draws / k
        sigma = math.sqrt(draws * (1 / k) * (1 - 1 / k))
        for candidate, count in counts.items():
            assert abs(count - expected) <= 5 * sigma, (
                f"candidate {candidate}: {count} vs {expected} +- {5 * sigma}"
            )

    def test_argbest_uniform_on_ties(self):
        rng = random.Random(12)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(10_000):
            counts[_argbest([0, 1, 2], [1.0, 1.0, 1.0], rng, largest=True)] += 1
        self.assert_uniform(counts, 10_000, 3)

    def test_abs_selection_uniform_on_symmetric_model(self):
        m = Model()
        xs = m.add_vars(4, 0, 2)
        heur = ActivitySearch(m, HeuristicConfig(kind="abs"), random.Random(77))
        store = m.new_store()
        counts = dict.fromkeys(xs, 0)
        for _ in range(10_000):
            counts[heur.select_variable(xs, store)] += 1
        self.assert_uniform(counts, 10_000, 4)

    def test_ibs_value_selection_uniform_when_equal(self):
        m = Model()
        x = m.add_var(0, 3)
        heur = ImpactSearch(m, HeuristicConfig(kind="ibs"), random.Random(5))
        store = m.new_store()
        counts = dict.fromkeys(range(4), 0)
        for _ in range(10_000):
            counts[heur.select_value(x, store)] += 1
        self.assert_uniform(counts, 10_000, 4)

    def test_wdeg_selection_uniform_on_symmetric_model(self):
        m = Model()
        xs = m.add_vars(3, 1, 3)
        m.post(AllDifferent(xs))
        heur = WeightedDegreeSearch(m, HeuristicConfig(kind="wdeg"), random.Random(9))
        store = m.new_store()
        counts = dict.fromkeys(xs, 0)
        for _ in range(10_000):
            counts[heur.select_variable(xs, store)] += 1
        self.assert_uniform(counts, 10_000, 3)


class TestReplayFidelity:
    def test_activity_tables_match_naive_recomputation(self):
        rng = random.Random(4242)
        m = Model()
        xs = m.add_vars(6, 0, 4)
        store = m.new_store()
        gamma, alpha = 0.9, 8.0
        heur = ActivitySearch(
            m, HeuristicConfig(kind="abs", gamma=gamma, alpha=alpha), random.Random(0)
        )
        ref_activity = [0.0] * 6
        ref_assignment: dict[tuple[int, int], float] = {}
        for _ in range(300):
            # occasionally bind/restore variables so the free set varies
            if rng.random() < 0.3:
                store = m.new_store()
                for x in xs:
                    if rng.random() < 0.4:
                        store.assign(x, rng.randint(0, 4))
            affected = sorted(rng.sample(xs, rng.randint(0, 4)))
            kind = rng.choice(["eq", "ne"])
            x = rng.choice(xs)
            v = rng.randint(0, 4)
            failed = rng.random() < 0.3
            res = PropagationResult(0 if failed else None, affected)
            heur.on_search_fixpoint(kind, x, v, res, store)
            free = [y for y in xs if store.domains[y].size > 1]
            for y in free:
                ref_activity[y] *= gamma
            for y in affected:
                ref_activity[y] += 1.0
            if kind == "eq":
                a_k = float(len(affected))
                if (x, v) not in ref_assignment:
                    ref_assignment[(x, v)] = a_k
                else:
                    ref_assignment[(x, v)] = (
                        ref_assignment[(x, v)] * (alpha - 1) + a_k
                    ) / alpha
        for y in xs:
            assert heur.activity[y] == pytest.approx(ref_activity[y], abs=1e-9)
        assert set(heur.assignment_activity) == set(ref_assignment)
        for key, val in ref_assignment.items():
            assert heur.assignment_activity[key] == pytest.approx(val, abs=1e-9)

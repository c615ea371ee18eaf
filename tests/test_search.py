import copy
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fdsearch import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    DomainStore,
    Engine,
    HeuristicConfig,
    KnapsackInstance,
    LinearEq,
    LinearLeq,
    Model,
    ModelError,
    RestartPolicy,
    Status,
    build_knapsack_cop,
    build_magic_square,
    check_magic_square,
    probe_activities,
    solve,
)

from oracles import (
    FirstWrittenEngine,
    generate_and_test,
    holds,
    random_csp,
    random_mixed_model,
    random_planted_sums,
)

HEURISTICS = ("abs", "ibs", "wdeg")


def random_knapsack(rng: random.Random, max_items: int) -> tuple[KnapsackInstance, int]:
    """A random multi-knapsack instance and its brute-force optimum."""
    n = rng.randint(1, max_items)
    m_cons = rng.randint(1, 3)
    profits = [rng.randint(1, 30) for _ in range(n)]
    weights = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m_cons)]
    caps = [rng.randint(0, max(1, sum(row) // 2)) for row in weights]
    best = 0
    for combo in itertools.product((0, 1), repeat=n):
        if all(
            sum(w * c for w, c in zip(row, combo)) <= cap
            for row, cap in zip(weights, caps)
        ):
            best = max(best, sum(p * c for p, c in zip(profits, combo)))
    return KnapsackInstance(n, m_cons, profits, weights, caps, None), best


class TestSolveBasics:
    def test_unconstrained_two_vars(self):
        m = Model()
        m.add_var(0, 1)
        m.add_var(0, 1)
        stats = solve(m, "wdeg", seed=0)
        assert stats.status is Status.SOLUTION_FOUND
        assert stats.choice_points <= 2

    def test_contradiction_fails_at_root(self):
        m = Model()
        x = m.add_var(1, 9)
        y = m.add_var(1, 9)
        m.post(BinaryLess(x, y))
        m.post(BinaryLess(y, x))
        for h in HEURISTICS:
            stats = solve(m, h, seed=0)
            assert stats.status is Status.PROVED_INFEASIBLE
            assert stats.choice_points == 0

    def test_magic_square_4_abs_no_restart(self):
        m = build_magic_square(4)
        stats = solve(m, "abs", seed=11)
        assert stats.status is Status.SOLUTION_FOUND
        assert check_magic_square(4, stats.best_assignment)

    def test_both_value_branches_fail_then_backtrack(self):
        # x forced to disagree with both of its values via y: search must
        # recover by backtracking rather than erroring
        m = Model()
        x = m.add_var(1, 2)
        y = m.add_var(1, 2)
        z = m.add_var(1, 3)
        m.post(LinearEq([1, 1], [x, y], 3))  # x != y on {1,2}
        m.post(BinaryLess(y, z))
        stats = solve(m, "wdeg", seed=3)
        assert stats.status is Status.SOLUTION_FOUND

    def test_zero_variable_model(self):
        m = Model()
        stats = solve(m, "abs", seed=0)
        assert stats.status is Status.SOLUTION_FOUND
        assert stats.best_assignment == []

    def test_all_solutions_forbids_restarts_and_objectives(self):
        m = Model()
        m.add_var(0, 1)
        with pytest.raises(ValueError):
            solve(m, "abs", restart=RestartPolicy.geometric(2.0), all_solutions=True)
        m2 = Model()
        x = m2.add_var(0, 1)
        m2.maximize(x)
        with pytest.raises(ValueError):
            solve(m2, "abs", all_solutions=True)

    @pytest.mark.parametrize(
        "values, weight, capacity", (((0, 1, 2), 3, 4), ((-1, 0, 1), 1, 0))
    )
    def test_knapsack_over_a_variable_not_0_1_rejected(self, values, weight, capacity):
        """The knapsack is a <= row, sound on any domain, but its class
        promises 0/1 items, and the audit guards that contract.  The
        first-written knapsack pruned only by assigning 0, so it solved
        such a model wrongly: x = 2 passed for weight 3 and capacity 4, and
        x = -1 was missed for weight 1 and capacity 0."""
        m = Model()
        m.add_var(0, 1, "a")
        x = m.add_var_values(values, "x")
        m.post(LinearLeq([1], [x], 5))
        m.post(BinaryKnapsackAtmost([weight], [x], capacity))
        match = r"propagator 1 \(binary_knapsack_atmost\).* variable 1 \(x\)"
        with pytest.raises(ModelError, match=match):
            solve(m, "wdeg", all_solutions=True)
        with pytest.raises(ModelError, match=match):
            probe_activities(m)

    def test_probing_needs_the_activity_heuristic(self):
        with pytest.raises(ValueError, match="activity heuristic"):
            probe_activities(build_magic_square(3), HeuristicConfig(kind="ibs"))

    def test_empty_initial_domain_is_a_model_error(self):
        m = Model()
        with pytest.raises(ModelError, match="empty initial domain"):
            m.add_var(3, 1)
        with pytest.raises(ModelError, match="empty initial domain"):
            m.add_var_values([])
        assert m.num_vars == 0

    def test_duplicate_branch_vars_rejected(self):
        """A repeated branch variable would be simulated twice by the IBS
        root probes (20 instead of 16 here), weigh twice in every random
        tie-break and inflate the restart limit 3 * |branch_vars|."""
        m = Model()
        xs = m.add_vars(4, 1, 4)
        m.post(AllDifferent(xs))
        with pytest.raises(ModelError, match="duplicate"):
            m.set_branch_vars([xs[0], *xs])
        assert m.branch_vars == xs
        m.set_branch_vars(xs[::-1])
        assert m.branch_vars == xs[::-1]
        assert solve(m, "ibs", seed=0).probes == 16


class TestBranchAndBound:
    def test_maximize_unconstrained(self):
        m = Model()
        x = m.add_var(0, 3)
        m.maximize(x)
        stats = solve(m, "wdeg", seed=0)
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == 3
        objs = [z for z, _ in stats.solutions]
        assert objs == sorted(objs) and len(set(objs)) == len(objs)

    def test_toy_knapsack_optimum(self):
        inst = KnapsackInstance(2, 1, [10, 6], [[5, 4]], [5], None, "toy2")
        for h in HEURISTICS:
            stats = solve(build_knapsack_cop(inst), h, seed=1)
            assert stats.status is Status.PROVED_OPTIMAL
            assert stats.best_objective == 10

    def test_infeasible_cop(self):
        inst = KnapsackInstance(2, 1, [5, 5], [[3, 3]], [-1], None, "bad")
        stats = solve(build_knapsack_cop(inst), "abs", seed=0)
        assert stats.status is Status.PROVED_INFEASIBLE
        assert stats.solutions == []

    def test_cop_proved_infeasible_by_search(self):
        """Four pigeons in three holes: root propagation leaves every
        domain whole, and wdeg does not probe, so only the DFS can show
        that there is no solution to improve on."""
        m = Model()
        xs = m.add_vars(4, 0, 2)
        m.post(AllDifferent(xs))
        m.maximize(xs[0])
        stats = solve(m, "wdeg", seed=0)
        assert stats.status is Status.PROVED_INFEASIBLE
        assert stats.choice_points > 0 and stats.failures > 0
        assert stats.best_objective is None and stats.solutions == []

    def test_minimize(self):
        m = Model()
        x = m.add_var(2, 7)
        y = m.add_var(0, 5)
        m.post(BinaryLess(y, x))
        m.minimize(x)
        stats = solve(m, "ibs", seed=0)
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == 2

    def test_bnb_matches_bruteforce_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(25):
            inst, best = random_knapsack(rng, 12)
            h = rng.choice(HEURISTICS)
            stats = solve(build_knapsack_cop(inst), h, seed=rng.randrange(1000))
            assert stats.status is Status.PROVED_OPTIMAL
            assert stats.best_objective == best


class TestRestarts:
    def test_controller_limit_sequence_doubling(self):
        limits = RestartPolicy.geometric(2.0, 30).round_limits(1)
        assert list(itertools.islice(limits, 4)) == [30, 60, 120, 240]

    def test_controller_limit_sequence_with_ceiling(self):
        limits = RestartPolicy.geometric(1.1, 30).round_limits(1)
        assert list(itertools.islice(limits, 3)) == [30, 33, 37]

    def test_no_restart_policy_always_continues(self):
        # one round that no failure count ends
        assert list(RestartPolicy.none().round_limits(5)) == [math.inf]

    def test_restart_fires_exactly_at_limit(self):
        # rounds of 4 and 8 failures end at failures 4 and 12, not before;
        # the failure cap is checked first, so a round ending at the cap
        # does not count as a restart
        policy = RestartPolicy.geometric(2.0, 4)
        model = build_magic_square(4)
        for cap, restarts in ((4, 0), (5, 1), (12, 1), (13, 2)):
            stats = solve(model, "wdeg", restart=policy, seed=0, max_failures=cap)
            assert (stats.status, stats.failures, stats.restarts) == (
                Status.TIMED_OUT, cap, restarts
            )

    def test_geometric_rejects_bad_parameters(self):
        # rho must be finite and > 1, an explicit initial limit at least 1
        for args in ((1.0,), (0.5,), (float("nan"),), (float("inf"),), (2.0, 0), (2.0, -5)):
            with pytest.raises(ValueError):
                RestartPolicy.geometric(*args)
        # the constructor checks the same, so no policy skips the checks
        for kwargs in (
            dict(rho=0.5, initial_limit=3),
            dict(rho=float("nan"), initial_limit=3),
            dict(rho=2.0, initial_limit=0),
            dict(initial_limit=0),
        ):
            with pytest.raises(ValueError):
                RestartPolicy(**kwargs)
        assert not RestartPolicy().enabled and not RestartPolicy.none().enabled

    def test_default_initial_limit_is_three_per_variable(self):
        assert next(RestartPolicy.geometric(1.5).round_limits(7)) == 21

    @staticmethod
    def five_pigeons_in_four_holes():
        m = Model("pigeons")
        m.post(AllDifferent(m.add_vars(5, 1, 4)))
        return m

    def test_limit_grows_when_rho_is_within_the_slack_of_one(self):
        # ceil(l * rho - 1e-9) alone stays at 1 when l * (rho - 1) <= 1e-9,
        # and the rounds never grow long enough to prove infeasibility
        rho = 1 + 1e-10
        assert list(itertools.islice(RestartPolicy.geometric(rho, 1).round_limits(5), 4)) == [
            1, 2, 3, 4
        ]
        stats = solve(
            self.five_pigeons_in_four_holes(), "wdeg",
            restart=RestartPolicy.geometric(rho, 1), seed=0, max_failures=10_000,
        )
        assert stats.status is Status.PROVED_INFEASIBLE

    def test_limit_past_the_float_range_is_endless(self):
        # 2 * 1e308 is infinite; ceil of it raised OverflowError at the
        # first restart
        policy = RestartPolicy.geometric(1e308, 2)
        assert list(itertools.islice(policy.round_limits(5), 3)) == [2, math.inf, math.inf]
        stats = solve(self.five_pigeons_in_four_holes(), "wdeg", restart=policy, seed=0)
        assert (stats.status, stats.restarts) == (Status.PROVED_INFEASIBLE, 1)

    def test_search_remains_complete_with_restarts(self):
        rng = random.Random(5)
        for _ in range(30):
            model = random_csp(rng)
            expected = generate_and_test(model)
            stats = solve(
                model,
                rng.choice(HEURISTICS),
                restart=RestartPolicy.geometric(1.5, 4),
                seed=rng.randrange(10_000),
            )
            if expected:
                assert stats.status is Status.SOLUTION_FOUND
                assert tuple(stats.best_assignment) in expected
            else:
                assert stats.status is Status.PROVED_INFEASIBLE

    def test_unsat_proof_with_restarts_bnb(self):
        inst = KnapsackInstance(3, 1, [4, 4, 4], [[2, 2, 2]], [3], None)
        stats = solve(
            build_knapsack_cop(inst), "abs",
            restart=RestartPolicy.geometric(1.1, 2), seed=0,
        )
        assert stats.status is Status.PROVED_OPTIMAL
        assert stats.best_objective == 4

    def test_bnb_with_restarts_matches_bruteforce(self):
        # branch and bound on items only (branch_vars), with and without restarts
        rng = random.Random(1105)
        restarted = 0
        for i in range(20):
            inst, best = random_knapsack(rng, 10)
            for h in HEURISTICS:
                for policy in (RestartPolicy.none(), RestartPolicy.geometric(1.5, 2)):
                    stats = solve(build_knapsack_cop(inst), h, restart=policy, seed=i)
                    assert stats.status is Status.PROVED_OPTIMAL, (i, h, policy)
                    assert stats.best_objective == best, (i, h, policy)
                    restarted += stats.restarts > 0
        assert restarted >= 10  # the round-limit arithmetic ran under B&B


class TestCompleteness:
    def test_all_solutions_equals_generate_and_test(self):
        rng = random.Random(2718)
        for i in range(40):
            model = random_csp(rng)
            expected = generate_and_test(model)
            for h in HEURISTICS:
                stats = solve(model, h, seed=i, all_solutions=True)
                assert set(stats.all_solutions) == expected, (
                    f"{h} on model {i}: {sorted(stats.all_solutions)} != {sorted(expected)}"
                )
                want = Status.SOLUTION_FOUND if expected else Status.PROVED_INFEASIBLE
                assert stats.status is want

    def test_every_emitted_solution_satisfies_the_model(self):
        rng = random.Random(161)
        for i in range(30):
            model = random_csp(rng)
            stats = solve(model, rng.choice(HEURISTICS), seed=i)
            if stats.status is Status.SOLUTION_FOUND:
                values = dict(enumerate(stats.best_assignment))
                assert all(holds(p, values) for p in model.propagators)


class TestDeterminism:
    @pytest.mark.parametrize("heur", HEURISTICS)
    def test_same_seed_same_tree(self, heur):
        runs = []
        for _ in range(2):
            stats = solve(
                build_magic_square(4), heur,
                restart=RestartPolicy.geometric(2.0), seed=77,
            )
            runs.append(
                (stats.choice_points, stats.failures, stats.restarts, stats.probes,
                 tuple(stats.best_assignment))
            )
        assert runs[0] == runs[1]

    def test_different_seeds_usually_differ(self):
        cps = {
            solve(build_magic_square(4), "abs", seed=s).choice_points
            for s in range(6)
        }
        assert len(cps) > 1


def fake_clock(monkeypatch) -> list[float]:
    """Make the solve clock advance one unit per read and one more per
    fixpoint (its work); returns the list of fixpoint start times."""
    now = [0.0]
    starts = []

    def clock():
        now[0] += 1.0
        return now[0] - 1.0

    real_propagate = Engine.propagate

    def timed_propagate(self, *args, **kwargs):
        starts.append(now[0])
        now[0] += 1.0
        return real_propagate(self, *args, **kwargs)

    monkeypatch.setattr("fdsearch.search.time.perf_counter", clock)
    monkeypatch.setattr(Engine, "propagate", timed_propagate)
    return starts


class TestLimits:
    def test_timeout_returns_partial_stats(self):
        stats = solve(build_magic_square(6), "wdeg", seed=0, timeout=0.15)
        assert stats.status is Status.TIMED_OUT
        # the deadline is checked before every fixpoint, so the overshoot is
        # one fixpoint (a few ms); the margin allows for a loaded host
        assert 0.15 <= stats.wall_time < 0.15 + 0.5
        assert stats.choice_points > 0

    def test_no_fixpoint_starts_after_the_deadline(self, monkeypatch):
        starts = fake_clock(monkeypatch)
        stats = solve(build_magic_square(6), "wdeg", seed=0, timeout=50.0)
        assert stats.status is Status.TIMED_OUT
        assert len(starts) > 10
        assert max(starts) <= 50.0  # the solve's clock starts at 0

    @pytest.mark.parametrize("heur", ("abs", "ibs"))
    def test_timeout_during_probing_reports_completed_probes(self, monkeypatch, heur):
        # probing msq:6 takes several hundred fixpoints; the deadline cuts it
        fake_clock(monkeypatch)
        stats = solve(build_magic_square(6), heur, seed=0, timeout=100.0)
        assert stats.status is Status.TIMED_OUT
        assert stats.choice_points == 0
        assert stats.probes > 0

    def test_max_failures_cap(self):
        stats = solve(build_magic_square(6), "wdeg", seed=0, max_failures=50)
        assert stats.status is Status.TIMED_OUT
        assert stats.failures == 50

    @pytest.mark.parametrize("cap", (0, -3))
    def test_max_failures_below_one_rejected(self, cap):
        with pytest.raises(ValueError):
            solve(build_magic_square(5), "wdeg", seed=0, max_failures=cap)

    @pytest.mark.parametrize("timeout", (float("nan"), 0.0, -1.0))
    def test_timeout_not_positive_rejected(self, timeout):
        with pytest.raises(ValueError):
            solve(build_magic_square(4), "abs", timeout=timeout)
        with pytest.raises(ValueError):
            probe_activities(build_magic_square(4), timeout=timeout)


def audited_model(rng: random.Random, kind: str) -> Model:
    """The first model of ``kind`` drawn from ``rng`` that ``Model.audit``
    accepts (a mixed model can put a knapsack over a domain that is not
    0/1)."""
    draw = {"csp": random_csp, "mixed": random_mixed_model, "sums": random_planted_sums}[kind]
    while True:
        m = draw(rng)
        try:
            m.audit()
        except ModelError:
            continue
        return m


def drawn_solve(data) -> tuple[Model, dict]:
    """A model and the ``solve`` keywords of one whole-solve draw.

    Planted mixed models and wdeg (which does not probe) are drawn more
    often, and abs mostly gets a planted-sums model, which its probes
    rarely finish, so that most solves get past the root and probing to a
    decision.  Hypothesis favours the first of a ``sampled_from``, so the
    failure caps are listed largest first and ``geo`` before ``nr``: most
    solves backtrack, and some restart.  Sometimes auxiliaries
    ``z = sum(c * x)`` are added, the branch variables are the original
    ones in a drawn order, and the objective may be on an auxiliary, as in
    the knapsack COP."""
    heuristic = data.draw(st.sampled_from(("wdeg", "wdeg", "ibs", "abs")), label="heuristic")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="model seed"))
    kinds = ("sums", "sums", "mixed") if heuristic == "abs" else ("mixed", "mixed", "csp")
    kind = data.draw(st.sampled_from(kinds), label="model")
    m = audited_model(rng, kind)
    originals = list(range(m.num_vars))
    for _ in range(data.draw(st.integers(0, 2), label="auxiliaries")):
        scope = rng.sample(originals, rng.randint(1, min(3, len(originals))))
        coeffs = [rng.choice((-2, -1, 1, 3)) for _ in scope]
        doms = [m.initial_domain(x) for x in scope]
        lo = sum(min(c * d.min, c * d.max) for c, d in zip(coeffs, doms))
        hi = sum(max(c * d.min, c * d.max) for c, d in zip(coeffs, doms))
        z = m.add_var(lo, hi)
        m.post(LinearEq(coeffs + [-1], scope + [z], 0))
    if m.num_vars > len(originals):
        m.set_branch_vars(data.draw(st.permutations(originals), label="branch vars"))
    objective = data.draw(st.sampled_from((None, "max", "min")), label="objective")
    if objective is not None:
        z = data.draw(st.integers(0, m.num_vars - 1), label="objective var")
        (m.maximize if objective == "max" else m.minimize)(z)
    restart = data.draw(st.sampled_from(("geo", "nr")), label="restart")
    kwargs = dict(
        heuristic=heuristic,
        restart=RestartPolicy.geometric(1.5, 2) if restart == "geo" else RestartPolicy.none(),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
        max_failures=data.draw(st.sampled_from((100, 30, 10, 3, 1)), label="max_failures"),
    )
    if objective is None and restart == "nr" and kind == "csp":  # few leaves
        kwargs["all_solutions"] = data.draw(st.booleans(), label="all solutions")
    return m, kwargs


def logged(engine_class, log: list) -> type:
    """``engine_class`` with the ``(failed, affected)`` of every fixpoint
    appended to ``log``."""

    class Logged(engine_class):
        def propagate(self, *args, **kwargs):
            res = super().propagate(*args, **kwargs)
            log.append((res.failed, tuple(res.affected)))
            return res

    return Logged


class TestWholeSolveDifferential:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_solve_matches_the_reference_engine(self, data):
        """A whole solve, with its restarts, branch and bound, root
        shaving and heuristic feedback, explores the same tree when every
        fixpoint runs the first-written engine loop over the first-written
        filters instead of ``Engine`` over the shipped ones.  Every
        fixpoint returns the same ``(failed, affected)`` on both sides."""
        m, kwargs = drawn_solve(data)

        def tree(stats):
            return (
                stats.status, stats.choice_points, stats.failures, stats.restarts,
                stats.probes, stats.best_assignment, stats.best_objective,
                stats.all_solutions, [obj for obj, _ in stats.solutions],
            )

        shipped_log, reference_log = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fdsearch.search.Engine", logged(Engine, shipped_log))
            shipped = tree(solve(m, **kwargs))
            mp.setattr("fdsearch.search.Engine", logged(FirstWrittenEngine, reference_log))
            reference = tree(solve(m, **kwargs))
        assert shipped == reference
        assert shipped_log == reference_log

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_restore_brings_back_each_pushed_level(self, data):
        """Over the same draws, every ``restore_to(k)`` leaves the store at
        level ``k - 1`` with exactly the masks and ``store.states`` (compared
        by value, so a state mutated in place shows) that were current when
        ``push_level`` returned ``k``."""
        m, kwargs = drawn_solve(data)
        push_level, restore_to = DomainStore.push_level, DomainStore.restore_to
        pushed = {}  # level -> (masks, states) when push_level returned it

        def snapshot(store):
            return [d.mask for d in store.domains], copy.deepcopy(store.states)

        def push(store):
            k = push_level(store)
            pushed[k] = snapshot(store)
            return k

        def restore(store, k):
            restore_to(store, k)
            assert store.level == k - 1
            assert snapshot(store) == pushed[k]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DomainStore, "push_level", push)
            mp.setattr(DomainStore, "restore_to", restore)
            solve(m, **kwargs)

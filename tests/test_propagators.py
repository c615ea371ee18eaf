import random

import pytest
from hypothesis import given, settings, strategies as st

from fdsearch import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    DomainStore,
    Engine,
    FiniteDomain,
    LinearEq,
    LinearLeq,
    Model,
    Propagator,
    solve,
)
from fdsearch.bench import build_benchmark
from fdsearch.domain import MAX_MOVED, MIN_MOVED, SHRUNK, WOULD_EMPTY
from fdsearch.engine import DECISION, PropagationResult
from fdsearch.propagators import _Linear

from oracles import (
    REFERENCES,
    FirstWrittenEngine,
    exact_filter,
    first_entries,
    generate_and_test,
    linear_state_current,
    ReferenceEngine,
    random_csp,
    random_domain,
    random_mixed_model,
    random_propagator_instance,
    reference_filter,
)

KINDS = ("linear_eq", "linear_leq", "alldifferent", "binary_knapsack_atmost", "binary_less")


def run_fixpoint(model):
    store = model.new_store()
    engine = Engine(model.num_vars, model.propagators)
    result = engine.propagate(store)
    return store, engine, result


def domains_of(store):
    return [set(d.values()) for d in store.domains]


class TestLinear:
    def test_eq_tightens_both_sides(self):
        m = Model()
        x = m.add_var(0, 5)
        y = m.add_var(0, 3)
        m.post(LinearEq([2, 1], [x, y], 10))
        store, _, res = run_fixpoint(m)
        assert res.ok
        assert tuple(store.domains[x].values()) == (4, 5)
        assert tuple(store.domains[y].values()) == (0, 1, 2)

    def test_leq_with_bound_partner(self):
        m = Model()
        x = m.add_var(0, 9)
        y = m.add_var(2, 2)
        m.post(LinearLeq([1, 1], [x, y], 3))
        store, _, res = run_fixpoint(m)
        assert res.ok
        assert tuple(store.domains[x].values()) == (0, 1)

    def test_slack_constraint_no_change(self):
        m = Model()
        x = m.add_var(0, 4)
        m.post(LinearLeq([1], [x], 100))
        store, _, res = run_fixpoint(m)
        assert res.ok and res.affected == []

    def test_eq_infeasible_fails(self):
        m = Model()
        x = m.add_var(0, 2)
        pid = m.post(LinearEq([1], [x], 9))
        _, _, res = run_fixpoint(m)
        assert res.failed == pid

    def test_negative_coefficients(self):
        m = Model()
        x = m.add_var(-3, 3)
        y = m.add_var(-3, 3)
        m.post(LinearEq([2, -3], [x, y], 12))
        store, _, res = run_fixpoint(m)
        assert res.ok
        # 2x - 3y = 12 over [-3,3]^2 has solutions (3,-2) and (0,-4)? only (3,-2)
        assert store.domains[x].min >= 1  # 2x = 12 + 3y >= 12 - 9 = 3

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            LinearEq([1, 0], [0, 1], 3)
        with pytest.raises(ValueError):
            LinearEq([1], [0, 1], 3)
        with pytest.raises(ValueError):
            LinearEq([], [], 3)
        with pytest.raises(ValueError):
            LinearEq([1, 1], [0, 0], 3)


class TestAllDifferent:
    def test_bound_value_pruned_cascades(self):
        m = Model()
        x = m.add_var(3, 3)
        y = m.add_var_values([1, 3])
        z = m.add_var_values([3, 4])
        m.post(AllDifferent([x, y, z]))
        store, _, res = run_fixpoint(m)
        assert res.ok
        assert tuple(store.domains[y].values()) == (1,)
        assert tuple(store.domains[z].values()) == (4,)

    def test_disjoint_domains_untouched(self):
        m = Model()
        m.add_var(1, 2)
        m.add_var(3, 4)
        m.post(AllDifferent([0, 1]))
        _, _, res = run_fixpoint(m)
        assert res.ok and res.affected == []

    def test_equal_singletons_fail(self):
        m = Model()
        m.add_var(2, 2)
        m.add_var(2, 2)
        pid = m.post(AllDifferent([0, 1]))
        _, _, res = run_fixpoint(m)
        assert res.failed == pid

    def test_pigeonhole_fails(self):
        m = Model()
        for _ in range(3):
            m.add_var(1, 2)
        m.post(AllDifferent([0, 1, 2]))
        store = m.new_store()
        engine = Engine(3, m.propagators)
        store.push_level()
        res = engine.propagate(store, decision=("eq", 0, 1))
        assert not res.ok  # 1 fixed, then y=z=2 collide


class TestBinaryKnapsackAtmost:
    def test_committing_one_item_excludes_others(self):
        m = Model()
        xs = m.add_vars(3, 0, 1)
        m.post(BinaryKnapsackAtmost([6, 5, 4], xs, 9))
        store = m.new_store()
        engine = Engine(3, m.propagators)
        store.push_level()
        res = engine.propagate(store, decision=("eq", xs[0], 1))
        assert res.ok
        assert tuple(store.domains[xs[1]].values()) == (0,)
        assert tuple(store.domains[xs[2]].values()) == (0,)

    def test_slack_capacity_no_change(self):
        m = Model()
        xs = m.add_vars(3, 0, 1)
        m.post(BinaryKnapsackAtmost([2, 3, 4], xs, 9))
        _, _, res = run_fixpoint(m)
        assert res.ok and res.affected == []

    def test_mandatory_overload_fails(self):
        m = Model()
        xs = [m.add_var(1, 1), m.add_var(1, 1)]
        pid = m.post(BinaryKnapsackAtmost([6, 6], xs, 9))
        _, _, res = run_fixpoint(m)
        assert res.failed == pid

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            BinaryKnapsackAtmost([3, -1], [0, 1], 5)


class TestBinaryLess:
    def test_strict_tightens_both_ends(self):
        m = Model()
        x = m.add_var(1, 9)
        y = m.add_var(1, 9)
        m.post(BinaryLess(x, y))
        store, _, res = run_fixpoint(m)
        assert res.ok
        assert (store.domains[x].min, store.domains[x].max) == (1, 8)
        assert (store.domains[y].min, store.domains[y].max) == (2, 9)

    def test_entailed_no_change(self):
        m = Model()
        m.add_var(1, 3)
        m.add_var(5, 9)
        m.post(BinaryLess(0, 1, strict=False))
        _, _, res = run_fixpoint(m)
        assert res.ok and res.affected == []

    def test_impossible_fails(self):
        m = Model()
        m.add_var(9, 9)
        m.add_var(1, 9)
        pid = m.post(BinaryLess(0, 1))
        _, _, res = run_fixpoint(m)
        assert res.failed == pid


class TestEngine:
    @pytest.mark.parametrize("decision", (("eq", 0, 2), ("ne", 1, 3)))
    def test_a_decision_that_would_empty_its_domain_fails_untouched(self, decision):
        """x = 2 with 2 not in D(x), or y != 3 with D(y) = {3}: the engine
        reports the decision as the failure and leaves the store as it was."""
        m = Model()
        m.add_var_values([1, 3])
        m.add_var(3, 3)
        m.post(LinearLeq([1, 1], [0, 1], 6))
        store, engine, root = run_fixpoint(m)
        assert root.ok
        masks = [d.mask for d in store.domains]
        entries = list(store.trail.entries)
        res = engine.propagate(store, decision)
        assert res.failed == DECISION and res.affected == []
        assert not res.ok
        assert [d.mask for d in store.domains] == masks
        assert store.trail.entries == entries

    def test_result_repr(self):
        assert repr(PropagationResult(None, [2, 0])) == (
            "PropagationResult(Consistent, affected=[2, 0])"
        )
        assert repr(PropagationResult(DECISION, [])) == (
            "PropagationResult(Failed(-1), affected=[])"
        )

    def test_consistent_with_no_tightening(self):
        m = Model()
        x = m.add_var(1, 4)
        y = m.add_var(1, 4)
        m.post(LinearEq([1, 1], [x, y], 5))
        _, _, res = run_fixpoint(m)
        assert res.ok and res.affected == []

    def test_affected_is_exact(self):
        m = Model()
        x = m.add_var(1, 4)
        y = m.add_var(1, 2)
        z = m.add_var(0, 9)
        m.post(LinearEq([1, 1], [x, y], 5))
        store, _, res = run_fixpoint(m)
        assert res.ok
        assert res.affected == [x]
        assert tuple(store.domains[x].values()) == (3, 4)

    def test_failure_reports_failing_propagator(self):
        m = Model()
        x = m.add_var(5, 5)
        y = m.add_var(1, 5)
        ok_pid = m.post(LinearLeq([1], [y], 9))
        bad_pid = m.post(BinaryLess(x, y))
        _, _, res = run_fixpoint(m)
        assert res.failed == bad_pid != ok_pid

    def test_affected_listed_even_on_failure(self):
        m = Model()
        x = m.add_var(0, 5)
        y = m.add_var(0, 5)
        m.post(LinearEq([1], [x], 5))      # shrinks x first
        m.post(BinaryLess(y, x))           # fine: y < 5
        m.post(BinaryLess(x, y))           # then contradiction
        _, _, res = run_fixpoint(m)
        assert not res.ok
        assert x in res.affected

    def test_fixpoint_idempotence(self):
        rng = random.Random(7)
        for _ in range(80):
            kind = rng.choice(KINDS)
            m, _ = random_propagator_instance(rng, kind)
            store = m.new_store()
            engine = Engine(m.num_vars, m.propagators)
            first = engine.propagate(store)
            if first.ok:
                second = engine.propagate(store)
                assert second.ok and second.affected == []

    def test_decision_is_part_of_affected(self):
        m = Model()
        x = m.add_var(1, 4)
        y = m.add_var(1, 4)
        m.post(LinearEq([1, 1], [x, y], 5))
        store = m.new_store()
        engine = Engine(2, m.propagators)
        store.push_level()
        res = engine.propagate(store, decision=("eq", x, 1))
        assert res.ok
        assert sorted(res.affected) == [x, y]

    def test_empty_model_root(self):
        m = Model()
        _, _, res = run_fixpoint(m)
        assert res.ok and res.affected == []

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(("push", "fixpoint", "fixpoint", "restore")), max_size=40),
    )
    def test_affected_and_restore_match_snapshots(self, seed, ops):
        """Random push_level / decision fixpoint / restore_to sequences, with
        several fixpoints per level and some at level 0: ``affected`` is the
        set of variables whose size dropped, by a size snapshot taken before
        the call, and a restore gives back the masks taken at the push."""
        rng = random.Random(seed)
        m = random_csp(rng)
        store = m.new_store()
        engine = Engine(m.num_vars, m.propagators)
        pushed = []  # pushed[k - 1]: the masks when push_level returned k

        def fixpoint(**kw):
            sizes0 = [d.size for d in store.domains]
            res = engine.propagate(store, **kw)
            shrunk = [x for x, d in enumerate(store.domains) if d.size < sizes0[x]]
            assert sorted(res.affected) == shrunk  # hence also no duplicates

        fixpoint()
        for op in ops:
            if op == "push":
                assert store.push_level() == len(pushed) + 1
                pushed.append([d.mask for d in store.domains])
            elif op == "restore":
                if pushed:
                    k = rng.randint(1, len(pushed))
                    store.restore_to(k)
                    assert [d.mask for d in store.domains] == pushed[k - 1]
                    del pushed[k - 1:]
            else:
                free = [x for x, d in enumerate(store.domains) if d.size > 1]
                if free:
                    x = rng.choice(free)
                    v = rng.choice(tuple(store.domains[x].values()))
                    fixpoint(decision=(rng.choice(("eq", "ne")), x, v))


def random_filtering_case(rng, kind):
    """A propagator of ``kind`` and the (anchor, mask) specs of a store for
    it, with a few variables outside its scope.  Domains have holes; linear
    rows have negative coefficients and sometimes msq-like wide intervals;
    knapsack weights tie often, some are 0, and knapsack domains are the
    0/1 ones ``Model.audit`` admits; many cases fail."""
    if kind == "binary_knapsack_atmost":
        n = rng.randint(1, 8)
        values = [rng.choice(([0], [1], [0, 1], [0, 1], [0, 1])) for _ in range(n)]
        weights = [rng.randint(0, 5) for _ in range(n)]
        prop = BinaryKnapsackAtmost(weights, list(range(n)), rng.randint(0, sum(weights)))
    elif kind == "alldifferent":
        n = rng.randint(2, 6)
        values = []
        for _ in range(n):
            lo = rng.randint(-3, 3)
            values.append(random_domain(rng, lo=lo, hi=lo + rng.randint(3, 6), max_size=4))
        prop = AllDifferent(list(range(n)))
    else:
        n = rng.randint(1, 7)
        if rng.random() < 0.3:
            values = [list(range(1, rng.randint(1, 30) + 1)) for _ in range(n)]
            coeffs = [1] * n
        else:
            values = [random_domain(rng, lo=-6, hi=9, max_size=8) for _ in range(n)]
            coeffs = [rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)) for _ in range(n)]
        rhs = sum(c * rng.choice(vs) for c, vs in zip(coeffs, values)) + rng.randint(-4, 4)
        cls = LinearEq if kind == "linear_eq" else LinearLeq
        prop = cls(coeffs, list(range(n)), rhs)
    values += [random_domain(rng) for _ in range(rng.randint(0, 2))]
    return prop, [(vs[0], sum(1 << (v - vs[0]) for v in vs)) for vs in values]


class TestFirstWrittenFiltering:
    @pytest.mark.parametrize("kind", REFERENCES)
    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_same_calls_outcome_as_reference(self, kind, seed):
        """Each propagator against its first-written loop on twin stores, over
        a few rounds of push, propagate and a random narrowing: the same
        returned list in the same order (or both None; a row's by first
        occurrence, as the reference drops repeats), the same masks and
        the same first trail entry per variable since the call, partial
        ones on failure included, and the same masks after a restore.  The
        first call scans the scope and builds the state; each later one is
        advised of the narrowed variable and updates the state."""
        rng = random.Random(seed)
        prop, specs = random_filtering_case(rng, kind)
        ours = DomainStore([FiniteDomain.from_mask(a, mask) for a, mask in specs])
        theirs = DomainStore([FiniteDomain.from_mask(a, mask) for a, mask in specs])
        advice = []
        for _ in range(3):
            ours.push_level()
            theirs.push_level()
            starts = len(ours.trail.entries), len(theirs.trail.entries)
            got = prop.propagate(ours, advice)
            want = REFERENCES[kind](prop, theirs)
            if got is not None and kind != "alldifferent":
                got = list(dict.fromkeys(got))
            assert got == want
            assert [d.mask for d in ours.domains] == [d.mask for d in theirs.domains]
            assert first_entries(ours, starts[0]) == first_entries(theirs, starts[1])
            free = [x for x in prop.scope if ours.domains[x].size > 1]
            if got is None or not free:
                break
            assert prop.pid in ours.states
            x = rng.choice(free)
            v = rng.choice(tuple(ours.domains[x].values()))
            op = rng.choice(("assign", "remove_value"))
            getattr(ours, op)(x, v)
            getattr(theirs, op)(x, v)
            advice = [x]
        ours.restore_to(1)
        theirs.restore_to(1)
        assert [d.mask for d in ours.domains] == [d.mask for d in theirs.domains] == [
            mask for _, mask in specs
        ]


def twins(m):
    """Three stores of ``m`` and ``fixpoint(**kw)``, which runs ``Engine``
    with the stateful propagators on ours and ``ReferenceEngine`` with the
    first-written loops on theirs, checks that both give the same
    ``failed`` and ``affected`` (in order), the same masks and the same
    first trail entry per variable since the call, that no bound-moved
    mark is left on ours, that after a consistent fixpoint every row state
    stored on ours is current (``linear_state_current``), and returns
    ``ok``.
    A third store runs ``ReferenceEngine`` with the stateful propagators,
    which calls every propagator ``Engine`` skips: it must end with the
    same states as ours, so every skipped call would have written
    nothing."""
    ours, theirs, called = m.new_store(), m.new_store(), m.new_store()
    engines = (
        (Engine(m.num_vars, m.propagators), ours),
        (FirstWrittenEngine(m.num_vars, m.propagators), theirs),
        (ReferenceEngine(m.num_vars, m.propagators), called),
    )

    def fixpoint(**kw):
        starts = len(ours.trail.entries), len(theirs.trail.entries)
        got, want, _ = (engine.propagate(store, **kw) for engine, store in engines)
        assert (got.failed, got.affected) == (want.failed, want.affected)
        assert [d.mask for d in ours.domains] == [d.mask for d in theirs.domains]
        assert first_entries(ours, starts[0]) == first_entries(theirs, starts[1])
        assert ours.states == called.states
        assert not any(ours.moved)
        if got.ok:
            for p in m.propagators:
                if isinstance(p, _Linear) and p.pid in ours.states:
                    linear_state_current(p, ours)
        return got.ok

    return (ours, theirs, called), fixpoint


TWIN_OPS = st.lists(
    st.sampled_from(
        ("push", "fixpoint", "fixpoint", "fixpoint", "probe", "restore", "restore_1", "root")
    ),
    max_size=40,
)


def run_twin_ops(m, rng, ops):
    """Runs ``ops`` on the ``twins(m)`` stores after a root fixpoint: pushes,
    decision fixpoints (some at level 0, some failing, then restored or
    not, some probes restored at once, often repeating the previous
    decision), restores and rescanning fixpoints without a decision."""
    stores, fixpoint = twins(m)
    ours = stores[0]
    if not fixpoint():
        return
    last = None
    for op in ops:
        if op == "push":
            for store in stores:
                store.push_level()
        elif op.startswith("restore"):
            if ours.level:
                k = 1 if op == "restore_1" else rng.randint(1, ours.level)
                for store in stores:
                    store.restore_to(k)
        elif op == "root":
            fixpoint()
        else:
            free = [x for x, d in enumerate(ours.domains) if d.size > 1]
            if not free:
                continue
            # often the previous decision again, as probes repeat after a restore
            if last and last[1] in free and last[2] in ours.domains[last[1]] and rng.random() < 0.5:
                decision = last
            else:
                x = rng.choice(free)
                decision = (rng.choice(("eq", "ne")), x, rng.choice(tuple(ours.domains[x].values())))
            last = decision
            if op == "probe":
                for store in stores:
                    store.push_level()
            ok = fixpoint(decision=decision)
            if op == "probe" or not ok and ours.level and rng.random() < 0.8:
                for store in stores:
                    store.restore_to(store.level)
        for store in stores[1:]:
            assert [d.mask for d in ours.domains] == [d.mask for d in store.domains]
        assert ours.states == stores[2].states


class TestStatefulPath:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ops=TWIN_OPS)
    def test_engine_matches_stateless_twin(self, seed, ops):
        """The engine with advice and saved states against the first-written
        engine loop with the first-written propagator loops, over random
        ops (``run_twin_ops``): the same ``failed`` and ``affected``, the
        same masks and the same trail, and the states of a first-written
        loop over the stateful propagators."""
        rng = random.Random(seed)
        run_twin_ops(random_mixed_model(rng), rng, ops)

    def test_variable_advised_twice_counts_once(self):
        """A direct call may list a variable twice, as the engine did when two
        rows moved it in turn; the value of x must count once, not as a
        duplicate."""
        m = Model()
        x, y = m.add_var(1, 4), m.add_var(1, 3)
        m.post(AllDifferent([x, y]))
        prop = m.propagators[0]
        store, _, res = run_fixpoint(m)
        assert res.ok
        store.assign(x, 1)
        assert prop.propagate(store, [x, x]) == [y]
        assert tuple(store.domains[y].values()) == (2, 3)

    @pytest.mark.parametrize("kind", ("linear_leq", "binary_knapsack_atmost", "binary_less", "alldifferent"))
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_advice_of_unread_events_changes_nothing(self, kind, seed):
        """After a scan, narrowings that make only events the propagator
        does not read (a row's term upper bounds, an alldifferent's
        interior or bound removals that fix nothing): a direct call advised
        of them returns ``[]`` and leaves the masks, the trail and the state
        as they were, so the engine may drop that advice.  An equality reads
        every event a shrink can make."""
        rng = random.Random(seed)
        if kind == "binary_less":
            prop = BinaryLess(0, 1, strict=rng.random() < 0.5)
            specs = [(vs[0], sum(1 << (v - vs[0]) for v in vs))
                     for vs in (random_domain(rng), random_domain(rng))]
        else:
            prop, specs = random_filtering_case(rng, kind)
        store = DomainStore([FiniteDomain.from_mask(a, mask) for a, mask in specs])
        if prop.propagate(store, []) is None:
            return
        store.moved[:] = bytes(len(store.moved))
        reads = dict(zip(prop.scope, prop.reads()))
        advice = []
        for x in rng.choices(prop.scope, k=4):
            d = store.domains[x]
            v = rng.choice(tuple(d.values()))
            if kind == "alldifferent":
                if d.size > 2:
                    store.remove_value(x, v)
            elif reads[x] & MIN_MOVED:
                store.tighten_max(x, v)
            else:
                store.tighten_min(x, v)
            assert store.moved[x] & reads[x] == 0
            if store.moved[x]:
                advice.append(x)
        if not advice:
            return
        state = store.states[prop.pid]
        masks = [d.mask for d in store.domains]
        entries = list(store.trail.entries)
        assert prop.propagate(store, advice) == []
        assert [d.mask for d in store.domains] == masks
        assert store.trail.entries == entries
        assert store.states[prop.pid] == state

    def test_states_come_back_on_restore(self):
        """A fixpoint without a decision below the root drops every state, and the restore
        brings back the root's, so no propagator has to rescan."""
        m = build_benchmark("knap-csp:1-4")
        store = m.new_store()
        engine = Engine(m.num_vars, m.propagators)
        assert engine.propagate(store).ok
        root = dict(store.states)
        assert len(root) == len(m.propagators) and None not in root.values()
        k = store.push_level()
        assert engine.propagate(store).ok
        store.restore_to(k)
        assert store.states == root

    def test_leq_advised_of_fallen_term_maxima_changes_nothing(self):
        """A <= row prunes by the terms' lower bounds alone: x's max and
        y's min (the upper bound of the term -y) can fall or rise freely."""
        m = Model()
        x, y = m.add_var(0, 5), m.add_var(0, 5)
        m.post(LinearLeq([1, -1], [x, y], 3))
        prop = m.propagators[0]
        store, _, res = run_fixpoint(m)
        assert res.ok
        state = store.states[prop.pid]
        store.tighten_max(x, 4)
        store.tighten_min(y, 1)
        masks, entries = [d.mask for d in store.domains], list(store.trail.entries)
        assert prop.propagate(store, [x, y]) == []
        assert [d.mask for d in store.domains] == masks and store.trail.entries == entries
        assert store.states[prop.pid] == state
        store.tighten_max(y, 4)  # raises the lower bound of -y
        assert prop.propagate(store, [y]) == []
        assert store.states[prop.pid] != state

    def test_knapsack_advised_of_zeroed_items_changes_nothing(self):
        m = Model()
        xs = m.add_vars(3, 0, 1)
        m.post(BinaryKnapsackAtmost([6, 5, 4], xs, 9))
        prop = m.propagators[0]
        store, _, res = run_fixpoint(m)
        assert res.ok
        state = store.states[prop.pid]
        store.assign(xs[0], 0)
        store.assign(xs[2], 0)
        masks, entries = [d.mask for d in store.domains], list(store.trail.entries)
        assert prop.propagate(store, [xs[0], xs[2]]) == []
        assert [d.mask for d in store.domains] == masks and store.trail.entries == entries
        assert store.states[prop.pid] == state

    def test_alldifferent_failing_in_its_prune_loop_keeps_no_state(self):
        """The row stores its state, then the alldifferent fixes b and c
        and fails on their equal values; the engine drops every state, so a
        later decision without a restore rescans instead of returning early
        on the row's state, which still reads b >= 1."""
        m = Model()
        a, b, c, z = m.add_var(1, 1), m.add_var(1, 2), m.add_var(1, 2), m.add_var(0, 1)
        m.post(LinearLeq([1, 1], [b, z], 2))  # z <= 2 - b
        m.post(AllDifferent([a, b, c]))  # a = 1 fixes b = c = 2
        (ours, *_), fixpoint = twins(m)
        assert not fixpoint()
        assert ours.states == {}
        assert not fixpoint(decision=("ne", z, 0))  # z = 1 > 2 - b

    def test_failure_drops_the_state_of_an_unscheduled_watcher(self):
        """A failing propagator fixes ``a`` before it wipes out; the row
        watching ``a`` is neither scheduled nor advised, so its state would
        lag ``a`` if it were kept."""
        m = Model()
        t, a, b, c = m.add_var_values([1, 3]), m.add_var(0, 1), m.add_var(1, 2), m.add_var(1, 2)
        z = m.add_var(0, 1)
        m.post(LinearLeq([-1, 1], [a, z], 0))  # z <= a
        m.post(AllDifferent([t, a, b, c]))
        (ours, *_), fixpoint = twins(m)
        assert fixpoint()
        assert not fixpoint(decision=("eq", t, 1))  # a = 0, then b = c = 2 collide
        assert ours.states == {}
        assert not fixpoint(decision=("ne", z, 0))  # z = 1 > a

    def test_alldifferent_on_a_store_with_lower_anchors(self):
        """One AllDifferent called on two stores: the lowest anchor of the
        scope comes from the store at hand, not from the first store."""
        prop = AllDifferent([0, 1])
        high = DomainStore([FiniteDomain.from_mask(5, 3), FiniteDomain.from_mask(5, 3)])  # {5, 6} twice
        assert prop.propagate(high, []) == []
        low = DomainStore([FiniteDomain.from_mask(0, 1), FiniteDomain.from_mask(0, 3)])  # {0} and {0, 1}
        assert prop.propagate(low, []) == [1]
        assert tuple(low.domains[1].values()) == (1,)


def spied(m, calls):
    """``m``'s propagators, each wrapped to append ``(pid, advice)`` to
    ``calls`` before it runs; it reads the events its propagator reads."""

    class Spy:
        def __init__(self, prop):
            self.prop, self.pid, self.scope = prop, prop.pid, prop.scope
            self.reads = prop.reads

        def propagate(self, store, advice):
            calls.append((self.pid, list(advice)))
            return self.prop.propagate(store, advice)

    return [Spy(p) for p in m.propagators]


class NotEqual(Propagator):
    """x != y, a propagator of the user's own: it keeps no state, ignores
    its advice and removes a fixed side's value from the other side."""

    kind = "not_equal"
    __slots__ = ()

    def __init__(self, x, y):
        super().__init__([x, y])

    def propagate(self, store, advice):
        for x, y in (self.scope, self.scope[::-1]):
            d = store.domains[x]
            if d.size == 1:
                out = store.remove_value(y, d.min)
                if out is WOULD_EMPTY:
                    return None
                return [y] if out is SHRUNK else []
        return []

    def satisfied(self, values):
        x, y = self.scope
        return values[x] != values[y]


def post_not_equals(rng, m, k):
    for _ in range(k):
        if m.num_vars > 1:
            m.post(NotEqual(*rng.sample(range(m.num_vars), 2)))
    return m


class TestUserPropagator:
    @pytest.mark.parametrize("heur", ("abs", "ibs", "wdeg"))
    def test_all_solutions_match_generate_and_test(self, heur):
        rng = random.Random(7)
        for _ in range(60):
            m = post_not_equals(rng, random_csp(rng), rng.randint(1, 4))
            stats = solve(m, heur, seed=rng.randrange(100), all_solutions=True)
            assert set(stats.all_solutions) == generate_and_test(m)
            assert len(stats.all_solutions) == len(set(stats.all_solutions))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ops=TWIN_OPS)
    def test_engine_matches_twin_beside_linear_rows(self, seed, ops):
        """``run_twin_ops`` over mixed models with a few NotEqual rows,
        which run as themselves on every store."""
        rng = random.Random(seed)
        run_twin_ops(post_not_equals(rng, random_mixed_model(rng), rng.randint(1, 3)), rng, ops)

    def test_called_on_every_pop_with_empty_advice(self):
        """x = 2 makes ``x != y`` remove 2 from the middle of y, which
        schedules ``x != y`` itself, ``y != z`` and a row on y and z with
        no advice: the two stateless propagators are called with ``[]``,
        the row, which has a state, is not called."""
        m = Model()
        x, y, z = m.add_var(1, 3), m.add_var(0, 4), m.add_var(0, 4)
        p = m.post(NotEqual(x, y))
        q = m.post(NotEqual(y, z))
        m.post(LinearLeq([1, 1], [y, z], 8))
        calls = []
        store = m.new_store()
        engine = Engine(m.num_vars, spied(m, calls))
        assert engine.propagate(store).ok
        assert calls == [(0, []), (1, []), (2, [])]
        calls.clear()
        assert engine.propagate(store, decision=("eq", x, 2)).ok
        assert tuple(store.domains[y].values()) == (0, 1, 3, 4)
        assert calls == [(p, [x]), (p, []), (q, [])]


class TestBoundMarks:
    def test_interior_removal_schedules_without_advice(self):
        """w = 5 makes the alldifferent remove 5 from the middle of x, which
        schedules the rows r, q and s on x in that order without advice.
        Then the first row lowers the maxima of u and y, which r and q
        read, and advises q of u and r of y in their places, ahead of s:
        the first-written loop calls r before q too, where pushing them
        afresh would call q first.
        s is never advised, and neither the alldifferent nor the first row
        is advised of its own changes, so none of the three is called."""
        m = Model()
        w, x, u, y, v = m.add_var(1, 9), m.add_var(1, 9), m.add_var(0, 9), m.add_var(0, 9), m.add_var(0, 9)
        m.post(AllDifferent([w, x]))
        m.post(LinearLeq([1, 1, 1], [w, u, y], 9))
        r = m.post(LinearLeq([1, -1], [x, y], 20))  # reads the max of y
        q = m.post(LinearLeq([1, -1], [x, u], 20))  # and this one that of u
        s = m.post(LinearLeq([1, -1], [x, v], 9))
        runs = {}
        for name, cls in (("ours", Engine), ("first", ReferenceEngine)):
            calls = []
            store = m.new_store()
            engine = cls(m.num_vars, spied(m, calls))
            assert engine.propagate(store).ok
            calls.clear()
            assert engine.propagate(store, decision=("eq", w, 5)).ok
            assert tuple(store.domains[x].values()) == (1, 2, 3, 4, 6, 7, 8, 9)
            runs[name] = calls
        assert runs["ours"] == [(0, [w]), (1, [w]), (r, [y]), (q, [u])]
        assert runs["first"] == [
            (0, [w]), (1, [w]), (0, [x]), (r, [x, y]), (q, [x, u]), (s, [x]), (1, [u, y]),
        ]

    def test_bound_move_undone_by_a_restore_is_advised_again(self):
        """A probe moves x's min and is restored; the same probe again must
        advise the row, or y would keep its old max."""
        m = Model()
        x, y = m.add_var(0, 9), m.add_var(0, 9)
        row = m.post(LinearEq([1, 1], [x, y], 9))
        calls = []
        store = m.new_store()
        engine = Engine(m.num_vars, spied(m, calls))
        assert engine.propagate(store).ok
        for _ in range(2):
            calls.clear()
            k = store.push_level()
            assert engine.propagate(store, decision=("ne", x, 0)).ok
            assert calls == [(row, [x])]
            assert store.domains[y].max == 8
            store.restore_to(k)
            assert (store.moved[x], store.domains[y].max) == (0, 9)

    def test_root_fixpoint_takes_the_current_bounds_as_told(self):
        """A direct store edit leaves x marked; a fixpoint without a decision
        clears the mark and rescans with the edited bounds, so a later
        interior removal from x is not advised."""
        m = Model()
        x, y = m.add_var(0, 9), m.add_var(0, 9)
        m.post(LinearEq([1, 1], [x, y], 9))
        calls = []
        store = m.new_store()
        engine = Engine(m.num_vars, spied(m, calls))
        assert engine.propagate(store).ok
        store.tighten_max(x, 5)
        assert store.moved[x] == MAX_MOVED
        assert engine.propagate(store).ok
        assert (store.moved[x], store.domains[y].min) == (0, 4)
        calls.clear()
        assert engine.propagate(store, decision=("ne", x, 3)).ok
        assert calls == []


class TestOracleEquivalence:
    def test_fixpoint_matches_declared_consistency_level(self):
        rng = random.Random(123)
        per_kind = 120
        for kind in KINDS:
            for _ in range(per_kind):
                model, domains = random_propagator_instance(rng, kind)
                store, _, res = run_fixpoint(model)
                prop = model.propagators[0]
                expected = reference_filter(prop, domains)
                if expected is None:
                    assert not res.ok, f"{kind}: oracle fails, solver did not"
                    continue
                assert res.ok, f"{kind}: solver fails, oracle does not"
                got = domains_of(store)
                assert got == expected, f"{kind}: {domains} -> {got} != {expected}"
                # sound: superset of exact filtering, subset of the input
                # (a bounds-consistent fixpoint may miss a wipeout that
                # exact filtering sees; the superset claim is vacuous then)
                exact = exact_filter(prop, domains)
                for x in range(model.num_vars):
                    assert got[x] <= domains[x]
                    if exact is not None:
                        assert exact[x] <= got[x]

    def test_failures_are_sound(self):
        # whenever the solver fails, exact filtering confirms a wipeout
        rng = random.Random(321)
        for kind in KINDS:
            for _ in range(60):
                model, domains = random_propagator_instance(rng, kind)
                _, _, res = run_fixpoint(model)
                if not res.ok:
                    assert exact_filter(model.propagators[0], domains) is None

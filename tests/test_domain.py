import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fdsearch import ChangeOutcome, DomainStore, FiniteDomain
from fdsearch.domain import FIXED, MAX_MOVED, MIN_MOVED, Trail
from oracles import remove_from_free


def store_of(*domains):
    return DomainStore([FiniteDomain.from_values(vals) for vals in domains])


def shrink(s, op, x, arg, bits):
    """One shrink operation on x: ``remove_bits`` over the scope ``[x]``
    with ``bits`` anchored at x's anchor, the others with ``arg``."""
    if op == "remove_bits":
        return s.remove_bits([x], bits, s.domains[x].anchor, [])
    return getattr(s, op)(x, arg)


class TestFiniteDomain:
    def test_interval_construction(self):
        d = FiniteDomain(2, 6)
        assert (d.min, d.max, d.size) == (2, 6, 5)
        assert tuple(d.values()) == (2, 3, 4, 5, 6)

    def test_holey_construction(self):
        d = FiniteDomain.from_values([7, 1, 4, 1])
        assert tuple(d.values()) == (1, 4, 7)
        assert 4 in d and 5 not in d and 0 not in d

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FiniteDomain(3, 2)
        with pytest.raises(ValueError):
            FiniteDomain.from_values([])

    def test_singleton(self):
        d = FiniteDomain(5, 5)
        assert (d.size, d.min, d.max) == (1, 5, 5)


class TestRemoveValue:
    def test_present_value_shrinks(self):
        s = store_of([1, 2, 3])
        assert s.remove_value(0, 2) is ChangeOutcome.SHRUNK
        assert tuple(s.domains[0].values()) == (1, 3)

    def test_absent_value_unchanged(self):
        s = store_of([1, 2, 3])
        assert s.remove_value(0, 7) is ChangeOutcome.UNCHANGED
        assert tuple(s.domains[0].values()) == (1, 2, 3)

    def test_wipeout_leaves_store_untouched(self):
        s = store_of([4])
        assert s.remove_value(0, 4) is ChangeOutcome.WOULD_EMPTY
        assert tuple(s.domains[0].values()) == (4,)


class TestAssign:
    def test_narrows_to_singleton(self):
        s = store_of([1, 2, 3])
        assert s.assign(0, 2) is ChangeOutcome.SHRUNK
        assert tuple(s.domains[0].values()) == (2,)

    def test_idempotent_on_singleton(self):
        s = store_of([2])
        assert s.assign(0, 2) is ChangeOutcome.UNCHANGED

    def test_absent_value_would_empty(self):
        s = store_of([1, 3])
        assert s.assign(0, 2) is ChangeOutcome.WOULD_EMPTY
        assert tuple(s.domains[0].values()) == (1, 3)


def test_assignment_needs_every_variable_bound():
    s = store_of([4], [1, 2], [7])
    with pytest.raises(ValueError, match="variable 1 is not bound"):
        s.assignment()
    s.assign(1, 2)
    assert s.assignment() == [4, 2, 7]


class TestTighten:
    def test_tighten_min(self):
        s = store_of([1, 2, 5])
        assert s.tighten_min(0, 2) is ChangeOutcome.SHRUNK
        assert tuple(s.domains[0].values()) == (2, 5)

    def test_tighten_min_noop(self):
        s = store_of([1, 2, 5])
        assert s.tighten_min(0, 0) is ChangeOutcome.UNCHANGED

    def test_tighten_min_would_empty(self):
        s = store_of([1, 2, 5])
        assert s.tighten_min(0, 6) is ChangeOutcome.WOULD_EMPTY
        assert tuple(s.domains[0].values()) == (1, 2, 5)

    def test_tighten_max(self):
        s = store_of([1, 2, 5])
        assert s.tighten_max(0, 4) is ChangeOutcome.SHRUNK
        assert tuple(s.domains[0].values()) == (1, 2)
        assert s.tighten_max(0, 9) is ChangeOutcome.UNCHANGED
        assert s.tighten_max(0, 0) is ChangeOutcome.WOULD_EMPTY

    def test_remove_values_bulk(self):
        s = store_of([1, 2, 3, 4])  # bit i is value 1 + i
        changed = []
        assert s.remove_bits([0], 0b1010 | 1 << 8, 1, changed) is ChangeOutcome.SHRUNK  # 2, 4, 9
        assert tuple(s.domains[0].values()) == (1, 3) and changed == [0]
        assert s.remove_bits([0], 0b0101, 1, changed) is ChangeOutcome.WOULD_EMPTY  # 1, 3
        assert tuple(s.domains[0].values()) == (1, 3) and changed == [0]

    def test_remove_bits_walks_the_scope_and_skips_bound_domains(self):
        s = store_of([3], [2, 3, 4], [0, 3], [3, 5])  # bit i is value i
        changed = [9]
        assert s.remove_bits([3, 0, 1, 2], 1 << 3, 0, changed) is ChangeOutcome.SHRUNK
        assert [tuple(d.values()) for d in s.domains] == [(3,), (2, 4), (0,), (5,)]
        assert changed == [9, 3, 1, 2]
        assert s.moved == bytearray([0, 0, MAX_MOVED | FIXED, MIN_MOVED | FIXED])
        assert s.remove_bits([0, 2, 3], 1 << 3, 0, changed) is ChangeOutcome.UNCHANGED

    def test_remove_bits_stops_at_a_wipeout_and_keeps_the_earlier_shrinks(self):
        s = store_of([1, 2, 3], [1, 2], [1, 3])
        s.trail.segment()
        changed = []
        assert s.remove_bits([0, 1, 2], 0b11, 1, changed) is ChangeOutcome.WOULD_EMPTY
        assert [tuple(d.values()) for d in s.domains] == [(3,), (1, 2), (1, 3)]
        assert changed == [0] and s.trail.entries == [(0, 0b111, 3, 1, 3)]


class TestSearchSpaceLogSize:
    def test_two_vars_of_four(self):
        s = store_of([1, 2, 3, 4], [0, 1, 2, 3])
        assert s.search_space_log_size() == pytest.approx(math.log(16), abs=1e-12)
        assert s.search_space_log_size() == pytest.approx(2.7726, abs=1e-4)

    def test_all_singletons(self):
        s = store_of([3], [9], [1])
        assert s.search_space_log_size() == 0.0

    def test_large_domain(self):
        s = DomainStore([FiniteDomain(1, 1000)])
        assert s.search_space_log_size() == pytest.approx(math.log(1000), abs=1e-12)
        assert s.search_space_log_size() == pytest.approx(6.9078, abs=1e-4)

    def test_decreases_on_shrink(self):
        s = store_of([1, 2, 3, 4], [0, 1, 2, 3])
        before = s.search_space_log_size()
        s.remove_value(0, 2)
        assert s.search_space_log_size() < before


class TestTrailRoundTrip:
    def test_push_restore_cycle(self):
        s = store_of([1, 2, 3], [4, 5, 6])
        snap0 = [d.mask for d in s.domains]
        k = s.push_level()
        s.assign(0, 2)
        s.remove_value(1, 5)
        assert [d.mask for d in s.domains] != snap0
        s.restore_to(k)
        assert [d.mask for d in s.domains] == snap0
        assert s.level == k - 1

    def test_restore_validation(self):
        s = store_of([1, 2])
        with pytest.raises(ValueError):
            s.restore_to(1)  # nothing pushed
        s.push_level()
        with pytest.raises(ValueError):
            s.restore_to(2)
        with pytest.raises(ValueError):
            s.restore_to(0)

    def test_root_changes_are_permanent(self):
        s = store_of([1, 2, 3])
        s.remove_value(0, 1)
        k = s.push_level()
        s.assign(0, 3)
        s.restore_to(k)
        assert tuple(s.domains[0].values()) == (2, 3)

    def test_random_sequences_restore_exactly(self):
        rng = random.Random(20240817)
        for _ in range(200):
            nvars = rng.randint(1, 5)
            s = store_of(
                *[
                    sorted(rng.sample(range(-4, 9), rng.randint(1, 6)))
                    for _ in range(nvars)
                ]
            )
            snapshots = {}  # level -> masks at the moment push returned it
            for _ in range(rng.randint(1, 60)):
                action = rng.random()
                if action < 0.25:
                    level = s.push_level()
                    snapshots[level] = [d.mask for d in s.domains]
                elif action < 0.35 and snapshots:
                    k = rng.choice(sorted(snapshots))
                    s.restore_to(k)
                    assert [d.mask for d in s.domains] == snapshots[k]
                    assert s.level == k - 1
                    for lvl in list(snapshots):
                        if lvl >= k:
                            del snapshots[lvl]
                else:
                    x = rng.randrange(nvars)
                    d = s.domains[x]
                    size_before = d.size
                    op = rng.choice(["remove", "assign", "tmin", "tmax"])
                    v = rng.randint(d.min - 1, d.max + 1)
                    if op == "remove":
                        s.remove_value(x, v)
                    elif op == "assign":
                        s.assign(x, v)
                    elif op == "tmin":
                        s.tighten_min(x, v)
                    else:
                        s.tighten_max(x, v)
                    # monotone within a level: never grows
                    assert s.domains[x].size <= size_before
                    assert s.domains[x].size >= 1
            # unwind everything that is still pending
            if snapshots:
                k = min(snapshots)
                s.restore_to(k)
                assert [d.mask for d in s.domains] == snapshots[k]


SHRINK_OPS = ("remove_value", "remove_bits", "assign", "tighten_min", "tighten_max")


def fields(d):
    return d.size, d.min, d.max


class TestCachedFields:
    @settings(max_examples=400, deadline=None)
    @given(
        values=st.lists(st.sets(st.integers(-4, 8), min_size=1), min_size=1, max_size=3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(SHRINK_OPS + ("push", "restore")),
                st.integers(0, 2),
                st.integers(-6, 10),
                st.integers(0, 2**13 - 1),
            ),
            max_size=30,
        ),
    )
    def test_size_min_max_match_the_mask(self, values, ops):
        """Every shrink operation sets only the fields it changes and every
        ``restore_to`` reinstalls saved ones: after each, every domain's
        ``size``, ``min`` and ``max`` are those ``from_mask`` computes."""
        s = store_of(*values)
        for op, x, arg, bits in ops:
            if op == "push":
                s.push_level()
            elif op == "restore":
                if s.level:
                    s.restore_to(1 + arg % s.level)
            else:
                shrink(s, op, x % len(values), arg, bits)
            for d in s.domains:
                assert fields(d) == fields(FiniteDomain.from_mask(d.anchor, d.mask))


class TestBoundMovedMarks:
    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(st.sets(st.integers(-4, 8), min_size=1), min_size=1, max_size=3),
        marks=st.lists(st.integers(0, 7), min_size=3, max_size=3),
        op=st.sampled_from(SHRINK_OPS),
        x=st.integers(0, 2),
        arg=st.integers(-6, 10),
        bits=st.integers(0, 2**13 - 1),
    )
    def test_set_iff_a_bound_moved(self, values, marks, op, x, arg, bits):
        """Each shrink operation ORs into the mark of ``x`` the bit
        ``MIN_MOVED`` iff it raised the min, ``MAX_MOVED`` iff it lowered
        the max and ``FIXED`` iff it left one value; it keeps the bits
        already set and touches no mark on UNCHANGED and WOULD_EMPTY."""
        s = store_of(*values)
        x %= len(values)
        s.moved[:] = bytes(marks[: len(values)])
        before = bytearray(s.moved)
        d = s.domains[x]
        lo, hi = d.min, d.max
        out = shrink(s, op, x, arg, bits)
        if out is ChangeOutcome.SHRUNK:
            before[x] |= (
                (d.min != lo) * MIN_MOVED | (d.max != hi) * MAX_MOVED | (d.size == 1) * FIXED
            )
        assert s.moved == before

    def test_interior_removals_leave_the_mark_clear(self):
        s = store_of([1, 2, 3, 4, 5])
        assert s.remove_value(0, 3) is ChangeOutcome.SHRUNK
        assert shrink(s, "remove_bits", 0, None, 0b1010) is ChangeOutcome.SHRUNK  # 2 and 4
        assert tuple(s.domains[0].values()) == (1, 5) and s.moved[0] == 0
        assert shrink(s, "remove_bits", 0, None, 0b10001) is ChangeOutcome.WOULD_EMPTY
        assert s.remove_value(0, 5) is ChangeOutcome.SHRUNK
        assert s.moved[0] == MAX_MOVED | FIXED

    def test_forget_states_clears_every_mark_and_restore_none(self):
        s = store_of([1, 2, 3], [1, 2, 3])
        s.states[0] = "state"
        k = s.push_level()
        s.tighten_min(0, 2)
        s.restore_to(k)
        assert s.moved == bytearray([MIN_MOVED, 0]) and s.states == {0: "state"}
        s.forget_states()
        assert s.moved == bytearray(2) and s.states == {}


class TestScopeWideRemoval:
    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(st.sets(st.integers(-4, 8), min_size=1, max_size=6), min_size=1, max_size=5),
        order=st.permutations(range(5)),
        scope_len=st.integers(0, 5),
        earlier=st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 8)), max_size=4),
        marks=st.lists(st.integers(0, 7), min_size=5, max_size=5),
        drop=st.sets(st.integers(-5, 9)),
        below=st.integers(0, 2),
    )
    def test_matches_one_variable_at_a_time(self, values, order, scope_len, earlier, marks,
                                            drop, below):
        """``remove_bits`` over a scope against ``remove_value`` called for
        one value and one variable at a time (``oracles.remove_from_free``),
        after earlier removals in the same trail segment: the same outcome,
        the same ``changed`` order, the same domain fields, trail entries
        and marks, the wipeout case included."""
        n = len(values)
        xs = [x for x in order if x < n][:scope_len]
        stores = [store_of(*values), store_of(*values)]
        for s in stores:
            s.moved[:] = bytes(marks[:n])
            s.trail.segment()
            for x, v in earlier:
                s.remove_value(x % n, v)
        ours, theirs = stores
        base = min(d.anchor for d in ours.domains) - below
        bits = sum(1 << (v - base) for v in drop if v >= base)
        got, want = [-1], [-1]
        out = ours.remove_bits(xs, bits, base, got)
        assert out is remove_from_free(theirs, xs, drop, want)
        assert got == want
        assert [fields(d) + (d.mask,) for d in ours.domains] == [
            fields(d) + (d.mask,) for d in theirs.domains
        ]
        assert ours.trail.entries == theirs.trail.entries
        assert ours.moved == theirs.moved


class TestTrailInternals:
    def test_one_snapshot_per_var_per_level(self):
        t = Trail(2)
        t.segment()
        t.record(0, FiniteDomain(1, 3))
        t.record(0, FiniteDomain(2, 3))  # second change in the segment: no new entry
        t.record(1, FiniteDomain.from_values([1, 3]))
        assert t.entries == [(0, 0b111, 3, 1, 3), (1, 0b101, 2, 1, 3)]  # (x, mask, size, min, max)

    def test_reverse_replay_restores_oldest(self):
        s = store_of([1, 2, 3, 4])
        k = s.push_level()
        s.remove_value(0, 1)
        s.push_level()
        s.remove_value(0, 2)
        s.restore_to(k)
        assert tuple(s.domains[0].values()) == (1, 2, 3, 4)

    def test_states_restored_as_of_push(self):
        s = store_of([1, 2, 3])
        s.states[7] = "root"
        k = s.push_level()
        s.states[7] = "a"
        s.push_level()
        s.states[7] = "b"
        s.states[8] = "new"  # first written after push k
        s.restore_to(k + 1)
        assert s.states == {7: "a"}
        s.states.clear()
        s.restore_to(k)
        assert s.states == {7: "root"}
        s.states[7] = "root, again"  # the root keeps what it writes
        assert s.push_level() == k
        s.restore_to(k)
        assert s.states == {7: "root, again"}
        assert s.trail.entries == []  # the trail logs domain fields only

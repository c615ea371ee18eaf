"""Fixpoint propagation engine: FIFO queue over propagators, every watcher
of a changed variable scheduled, advice only of the events (min moved, max
moved, fixed; ``store.moved``) a watcher's filter reads, no call to a
propagator popped with a saved state and no advice, exact affected-variable
reporting read from the trail entries each call logs.  The rows (the
knapsack and ``x < y`` among them) and ``AllDifferent`` keep a state,
``ObjectiveBound`` none.  States are never trailed: a failure drops them
all, and the store's per-level copies bring them back on a restore."""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Optional, Sequence

from .domain import DomainStore, SHRUNK, WOULD_EMPTY
from .propagators import Propagator

# Pseudo propagator id reported when posting a decision itself wipes a domain
# (cannot happen for decisions drawn from current domains, but kept for safety).
DECISION = -1

_VAR_OF = itemgetter(0)  # the variable of a trail entry


class PropagationResult:
    """Outcome of one fixpoint run.

    ``failed`` is the id of the propagator that emptied a domain, ``DECISION``
    if the seeding decision did, or None when consistent.  ``affected`` lists
    exactly the variables whose domain shrank since the call began, each once,
    in the order they first shrank; on failure it still lists the variables
    shrunk before the wipeout.
    """

    __slots__ = ("failed", "affected")

    def __init__(self, failed: Optional[int], affected: list[int]):
        self.failed = failed
        self.affected = affected

    @property
    def ok(self) -> bool:
        return self.failed is None

    def __repr__(self) -> str:
        state = "Consistent" if self.ok else f"Failed({self.failed})"
        return f"PropagationResult({state}, affected={self.affected})"


class Engine:
    """Runs propagators to a fixpoint over a store.

    Holds the propagator list, one advice list per propagator (empty
    between calls), var -> watching propagators, and per mark and var the
    watchers that read one of its events (``Propagator.reads``); one engine
    per solve is cheap.  Propagator states and event marks live in the
    store.
    """

    def __init__(self, nvars: int, propagators: Sequence[Propagator]):
        self.propagators = list(propagators)
        self.advice: list[list[int]] = [[] for _ in self.propagators]
        reads: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
        for p in self.propagators:
            for x, events in zip(p.scope, p.reads()):
                reads[x].append((p.pid, events))
        self.watchers = [[q for q, _ in w] for w in reads]
        # advised[m][x]: the watchers of x that read an event of the mark m
        self.advised = [[[q for q, events in w if events & m] for w in reads] for m in range(8)]

    def propagate(
        self,
        store: DomainStore,
        decision: Optional[tuple[str, int, int]] = None,
        extra: Sequence[int] = (),
    ) -> PropagationResult:
        """Run to fixpoint from a decision, or from every propagator.

        ``decision`` is ("eq", x, v) or ("ne", x, v) and is applied to the
        store first; its own domain change counts toward ``affected``.
        A fixpoint without a decision (root propagation) schedules every
        propagator and makes the store forget every propagator state and
        mark, so each state is rebuilt by a scope scan: run one after
        editing the store directly.  ``extra`` schedules explicit
        propagator ids (e.g. an objective bound).

        The decision and every ``changed`` list go through one step: each
        watcher of a changed variable is scheduled, in FIFO order, and if
        the variable's mark ``store.moved[x]`` is set (the events of ``x``
        since its watchers were last advised) the mark is cleared and the
        variable is appended to the advice list of each watcher that reads
        one of those events (``advised``), which is passed to that
        propagator's next call and then emptied.  A propagator is not
        advised of its own changes: its state already holds them.  A popped
        propagator with no advice and a saved state is not called: every
        stateful propagator filters on the events it reads alone, and its
        state is at its own fixpoint, so the call would return ``[]`` and
        write nothing, as would one advised only of events it does not
        read.  Skipping it leaves the queue, every store call and the trail
        as they were, and every call that remains gets the advice it acts
        on.

        On failure every propagator state and mark is dropped: the failing
        propagator may have stored a state before it failed, the queued
        ones lose their advice, and the variables it shrank before the
        wipeout are advised to no one.  A kept state thus never lags the
        domains, and every mark is 0 when the call returns.
        Each next call rescans, unless a ``restore_to`` brings back an older
        set of states first.
        """
        entries = store.trail.entries
        start = len(entries)
        props = self.propagators
        watchers = self.watchers
        advice = self.advice
        advised = self.advised
        moved = store.moved
        queue: deque[int] = deque()
        scheduled = bytearray(len(props))
        seeds: Sequence[int] = extra
        changed: Sequence[int] = ()
        if decision is None:
            store.forget_states()
            seeds = range(len(props))
        else:
            kind, x, v = decision
            out = store.assign(x, v) if kind == "eq" else store.remove_value(x, v)
            if out is WOULD_EMPTY:
                return PropagationResult(DECISION, [])
            if out is SHRUNK:
                changed = (x,)
        states = store.states

        pop = queue.popleft
        push = queue.append
        adv: list[int] = []
        while True:
            for x in changed:
                m = moved[x]
                if m:
                    moved[x] = 0
                    for q in advised[m][x]:
                        advice[q].append(x)
                for q in watchers[x]:
                    if not scheduled[q]:
                        scheduled[q] = 1
                        push(q)
            if adv:
                adv.clear()  # the propagator that made these changes
            if seeds:
                for q in seeds:
                    if not scheduled[q]:
                        scheduled[q] = 1
                        push(q)
                seeds = ()
            while queue:
                pid = pop()
                scheduled[pid] = 0
                adv = advice[pid]
                if adv or pid not in states:
                    break
            else:
                return PropagationResult(None, list(dict.fromkeys(map(_VAR_OF, entries[start:]))))
            changed = props[pid].propagate(store, adv)
            if changed is None:
                for q in (pid, *queue):
                    advice[q].clear()
                store.forget_states()
                return PropagationResult(pid, list(dict.fromkeys(map(_VAR_OF, entries[start:]))))

"""Fixpoint propagation engine: FIFO queue over propagators, advice for
stateful propagators, exact affected-variable reporting read from the trail
segment each call opens."""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .domain import DomainStore, SHRUNK, WOULD_EMPTY
from .propagators import Propagator

# Pseudo propagator id reported when posting a decision itself wipes a domain
# (cannot happen for decisions drawn from current domains, but kept for safety).
DECISION = -1


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

    Holds the propagator list, var -> watching propagators, and one advice
    list per stateful propagator, empty between calls; one engine per solve
    is cheap.  Propagator states live in the store.
    """

    def __init__(self, nvars: int, propagators: Sequence[Propagator]):
        self.propagators = list(propagators)
        self.advice: list[Optional[list[int]]] = [
            [] if p.stateful else None for p in self.propagators
        ]
        watchers: list[list[int]] = [[] for _ in range(nvars)]
        advisors: list[list] = [[] for _ in range(nvars)]
        for p in self.propagators:
            for x in p.scope:
                watchers[x].append(p.pid)
                if p.stateful:
                    advisors[x].append(self.advice[p.pid].append)
        self.watchers = watchers
        # x -> the append methods of its stateful watchers' advice lists
        self.advisors = advisors

    def propagate(
        self,
        store: DomainStore,
        decision: Optional[tuple[str, int, int]] = None,
        seed_all: bool = False,
        extra: Sequence[int] = (),
    ) -> PropagationResult:
        """Run to fixpoint from a seed.

        ``decision`` is ("eq", x, v) or ("ne", x, v) and is applied to the
        store first; its own domain change counts toward ``affected``.
        ``seed_all`` schedules every propagator (root propagation) and drops
        every propagator state, so each is rebuilt by a scope scan: run it
        after editing the store directly.  ``extra`` schedules explicit
        propagator ids (e.g. an objective bound).

        Wherever a variable is reported changed, it is also appended to the
        advice list of each stateful watcher, which is passed to that
        propagator's next call and then emptied.  On failure the states of
        the propagators whose advice was discarded are dropped too, so a
        state never lags the domains: the next call rescans, unless a
        ``restore_to`` brings back an older state first.
        """
        trail = store.trail
        start = trail.segment()
        props = self.propagators
        watchers = self.watchers
        advisors = self.advisors
        advice = self.advice
        queue: deque[int] = deque()
        scheduled = bytearray(len(props))

        if decision is not None:
            kind, x, v = decision
            out = store.assign(x, v) if kind == "eq" else store.remove_value(x, v)
            if out is WOULD_EMPTY:
                return PropagationResult(DECISION, [])
            if out is SHRUNK:
                for q in watchers[x]:  # the queue is empty: each is new
                    scheduled[q] = 1
                    queue.append(q)
                for advise in advisors[x]:
                    advise(x)
        if seed_all:
            store.states.clear()
            for p in props:
                scheduled[p.pid] = 1
                queue.append(p.pid)
        for pid in extra:
            if not scheduled[pid]:
                scheduled[pid] = 1
                queue.append(pid)

        pop = queue.popleft
        push = queue.append
        while queue:
            pid = pop()
            scheduled[pid] = 0
            adv = advice[pid]
            changed = props[pid].propagate(store, adv)
            if changed is None:
                for q in (pid, *queue):
                    if advice[q]:
                        advice[q].clear()
                        store.set_state(q, None)
                return PropagationResult(pid, [x for x, _ in trail.entries[start:]])
            if adv:
                adv.clear()
            for x in changed:
                for q in watchers[x]:
                    if not scheduled[q]:
                        scheduled[q] = 1
                        push(q)
                for advise in advisors[x]:
                    advise(x)

        return PropagationResult(None, [x for x, _ in trail.entries[start:]])

"""Fixpoint propagation engine: FIFO queue over propagators, advice for
every watcher of a changed variable, exact affected-variable reporting read
from the trail segment each call opens.  Propagator states are never
trailed: a failure drops them all, and the store's per-level copies bring
them back on a restore."""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

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

    Holds the propagator list, one advice list per propagator (empty
    between calls) and var -> watching propagators; one engine per solve is
    cheap.  Propagator states live in the store.
    """

    def __init__(self, nvars: int, propagators: Sequence[Propagator]):
        self.propagators = list(propagators)
        self.advice: list[list[int]] = [[] for _ in self.propagators]
        # x -> (pid, the append method of pid's advice list) per watcher
        self.watchers: list[list[tuple[int, Callable]]] = [[] for _ in range(nvars)]
        for p in self.propagators:
            for x in p.scope:
                self.watchers[x].append((p.pid, self.advice[p.pid].append))

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
        advice list of each watcher, which is passed to that propagator's
        next call and then emptied.  On failure every propagator state is
        dropped: the failing propagator may have stored one before it
        failed, the queued ones lose their advice, and the variables it
        shrank before the wipeout are advised to no one.  A kept state thus
        never lags the domains.  Each next call rescans, unless a
        ``restore_to`` brings back an older set of states first.
        """
        trail = store.trail
        start = trail.segment()
        props = self.propagators
        watchers = self.watchers
        advice = self.advice
        queue: deque[int] = deque()
        scheduled = bytearray(len(props))

        if decision is not None:
            kind, x, v = decision
            out = store.assign(x, v) if kind == "eq" else store.remove_value(x, v)
            if out is WOULD_EMPTY:
                return PropagationResult(DECISION, [])
            if out is SHRUNK:
                for q, advise in watchers[x]:  # the queue is empty: each is new
                    advise(x)
                    scheduled[q] = 1
                    queue.append(q)
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
                    advice[q].clear()
                store.states.clear()
                return PropagationResult(pid, [x for x, _ in trail.entries[start:]])
            if adv:
                adv.clear()
            for x in changed:
                for q, advise in watchers[x]:
                    advise(x)
                    if not scheduled[q]:
                        scheduled[q] = 1
                        push(q)

        return PropagationResult(None, [x for x, _ in trail.entries[start:]])

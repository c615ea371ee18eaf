"""Propagators: contracting, sound filters over a DomainStore.

``propagate(store, advice)`` returns the list of variables it shrank, or
None on failure (a wipeout); the store is left untouched by the op that
would have emptied a domain, so the caller's trail stays consistent.

``advice`` lists the scope variables on which an event the propagator
reads occurred since its previous call, other than by its own changes (a
variable may appear more than once).  ``reads()`` gives, per scope
variable, the events of ``DomainStore.moved`` that the filter reads: a
``<=`` row its terms' lower bounds (the min for a positive coefficient,
the max for a negative one), an equality both bounds, ``AllDifferent``
only fixes and ``ObjectiveBound`` none; a propagator of the user's own
reads both bounds unless it says otherwise.  There are three filters:
``_Linear``, which the ``<=`` rows ``BinaryKnapsackAtmost`` and
``BinaryLess`` inherit, ``AllDifferent`` and ``ObjectiveBound``, which
ignores the advice.  The first two keep a summary of their scope in
``store.states[pid]`` between calls and bring it up to date from the
advised variables alone; with no state yet they scan the scope and build
one.  A state is replaced by assignment, never mutated in place, because
the store's per-level copies share it.  A stored state is at its own
fixpoint, so a row returns ``[]`` at once when the advice moved nothing it
prunes by, and the engine does not call a propagator with a state and no
advice.  That is exact because every propagator that keeps a state
filters on the events it reads only, which the other events leave as they
were.  A direct call, as from a test, reads and writes ``store.states`` as
an engine call does: it passes ``[]`` on a store with no state for the
propagator, and after narrowing the store itself, at least the variables
on which an event the propagator reads occurred; listing others as well
changes nothing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .domain import DomainStore, FIXED, MAX_MOVED, MIN_MOVED, SHRUNK, WOULD_EMPTY


class Propagator:
    """Base class; a subclass defines ``kind`` and its filter, ``propagate``."""

    kind = "abstract"
    __slots__ = ("pid", "scope", "_pos")

    def __init__(self, scope: Sequence[int]):
        scope = list(scope)
        if not scope:
            raise ValueError("propagator scope must be non-empty")
        if len(set(scope)) != len(scope):
            raise ValueError("propagator scope must be duplicate-free")
        self.pid = -1  # set by Model.post
        self.scope = scope
        self._pos = {x: i for i, x in enumerate(scope)}

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        raise NotImplementedError

    def reads(self) -> list[int]:
        """Per scope variable, the events of ``DomainStore.moved`` the
        filter reads; the engine advises only of these.  Both bounds here."""
        return [MIN_MOVED | MAX_MOVED] * len(self.scope)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pid={self.pid}, scope={self.scope})"


class _Linear(Propagator):
    """Bounds-consistent filtering for sum(a_i * x_i) (= | <=) b."""

    is_eq = False
    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: Sequence[int], scope: Sequence[int], rhs: int):
        super().__init__(scope)
        coeffs = list(coeffs)
        if len(coeffs) != len(self.scope):
            raise ValueError("one coefficient per variable required")
        if any(c == 0 for c in coeffs):
            raise ValueError("zero coefficients are not allowed")
        self.coeffs = coeffs
        self.rhs = rhs

    def reads(self) -> list[int]:
        """An equality reads both bounds; a <= row only its terms' lower
        bounds: the min for c > 0, the max for c < 0, nothing for c = 0."""
        if self.is_eq:
            return super().reads()
        return [(c > 0) * MIN_MOVED | (c < 0) * MAX_MOVED for c in self.coeffs]

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        """Tighten every term against the others' bounds until nothing moves.

        Each pass is Jacobi: all its tightenings use the ``lo``/``hi`` sums
        of the term bounds at the start of the pass.  A term whose span
        ``term_hi - term_lo`` is at most the slack of a side cannot be cut
        by that side, so its store call is skipped: for c > 0 the <= side
        asks ``max <= (b - lo + c*min) // c``, which holds whenever
        ``c*max - c*min <= b - lo``, and likewise for c < 0 and for the >=
        side of an equality with slack ``hi - b``.  Such a call would return
        UNCHANGED, so skipping it leaves the store, the trail and the
        returned list as they were.  Conversely, a span above the slack of a
        side makes that side cut the bound, so every term a pass visits
        moves.  The <= cut never empties a domain: the slack is >= 0 there,
        so ``b - lo + term_lo`` is at least the term's low end, and the new
        bound is on the domain's side of the other bound.  Only the >= side
        of an equality can fail.  A <= cut leaves term lower bounds, ``lo``
        and the slack as they were, so a <= row stops after one pass; an
        equality recomputes the visited terms and stops at a pass that
        visits none.

        A <= row prunes by ``lo`` alone, as no span exceeds ``hi - lo``, so
        its state is ``(lo, term_lo, heavy)``; an equality's is ``(lo, hi,
        term_lo, term_hi, heavy)``.  ``heavy`` holds ``(span, i, x, |c|)``
        for the terms with a non-zero span when the state was built, widest
        first.  Spans only shrink, so a pass walks ``heavy`` only down to
        the first span at most the smaller slack, and visits, in scope
        order, the terms met on the way whose span, read from the domain,
        exceeds it.  A stored state is at its own fixpoint, so a call whose
        advice moved no term bound the state keeps returns ``[]`` at once.
        """
        domains = store.domains
        cs = self.coeffs
        xs = self.scope
        b = self.rhs
        is_eq = self.is_eq
        state = store.states.get(self.pid)
        if state is None:
            term_lo: list[int] = []
            term_hi: list[int] = []
            for c, x in zip(cs, xs):
                d = domains[x]
                if c > 0:
                    term_lo.append(c * d.min)
                    term_hi.append(c * d.max)
                else:
                    term_lo.append(c * d.max)
                    term_hi.append(c * d.min)
            lo = sum(term_lo)
            hi = sum(term_hi)
            heavy = sorted(
                ((term_hi[i] - term_lo[i], i, xs[i], abs(cs[i])) for i in range(len(xs))
                 if term_hi[i] > term_lo[i]),
                reverse=True,
            )
        else:
            if is_eq:
                lo, hi, term_lo, term_hi, heavy = state
            else:
                lo, term_lo, heavy = state
            moved = False  # the lists are still the state's until a bound moves
            pos = self._pos
            for x in advice:
                i = pos[x]
                c = cs[i]
                d = domains[x]
                if is_eq:
                    if c > 0:
                        tlo, thi = c * d.min, c * d.max
                    else:
                        tlo, thi = c * d.max, c * d.min
                    if tlo == term_lo[i] and thi == term_hi[i]:
                        continue
                else:
                    tlo = c * d.min if c > 0 else c * d.max
                    if tlo == term_lo[i]:
                        continue
                if not moved:
                    moved = True
                    term_lo = term_lo[:]
                    if is_eq:
                        term_hi = term_hi[:]
                lo += tlo - term_lo[i]
                term_lo[i] = tlo
                if is_eq:
                    hi += thi - term_hi[i]
                    term_hi[i] = thi
            if not moved:
                return []
        changed: list[int] = []
        while True:
            slack = b - lo
            least = slack
            if is_eq:
                surplus = hi - b
                if surplus < slack:
                    least = surplus
            if least < 0:
                return None
            wide: list[int] = []
            for span, i, x, mag in heavy:
                if span <= least:
                    break
                d = domains[x]
                if mag * (d.max - d.min) > least:
                    wide.append(i)
            if not wide:
                break
            wide.sort()
            for i in wide:
                c = cs[i]
                x = xs[i]
                d = domains[x]
                span = c * (d.max - d.min) if c > 0 else c * (d.min - d.max)
                if span > slack:  # slack >= 0: the cut keeps the other bound
                    ub_num = slack + term_lo[i]  # c*x <= ub_num
                    if c > 0:
                        store.tighten_max(x, ub_num // c)
                    else:
                        store.tighten_min(x, -(-ub_num // c))
                if is_eq and span > surplus:
                    lb_num = term_lo[i] + span - surplus  # c*x >= lb_num
                    if c > 0:
                        out = store.tighten_min(x, -(-lb_num // c))
                    else:
                        out = store.tighten_max(x, lb_num // c)
                    if out is WOULD_EMPTY:
                        return None
                changed.append(x)
            if not is_eq:
                break
            for i in wide:
                c = cs[i]
                d = domains[xs[i]]
                if c > 0:
                    tlo, thi = c * d.min, c * d.max
                else:
                    tlo, thi = c * d.max, c * d.min
                lo += tlo - term_lo[i]
                term_lo[i] = tlo
                hi += thi - term_hi[i]
                term_hi[i] = thi
        if is_eq and len(changed) > 1:  # only a later pass revisits a term
            changed = list(dict.fromkeys(changed))
        store.states[self.pid] = (
            (lo, hi, term_lo, term_hi, heavy) if is_eq else (lo, term_lo, heavy)
        )
        return changed


class LinearEq(_Linear):
    """sum(a_i * x_i) == b with bounds consistency."""

    kind = "linear_eq"
    is_eq = True
    __slots__ = ()


class LinearLeq(_Linear):
    """sum(a_i * x_i) <= b with bounds consistency."""

    kind = "linear_leq"
    is_eq = False
    __slots__ = ()


class AllDifferent(Propagator):
    """Value-based alldifferent (forward checking, not domain-consistent).

    Whenever a scope variable is bound, its value is pruned from the other
    scope domains; repeats until no new variable becomes bound.
    """

    kind = "alldifferent"
    __slots__ = ()

    def reads(self) -> list[int]:
        return [FIXED] * len(self.scope)

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        """Each pass takes the variables bound since the last pass (the
        whole scope on a scan, the advice with a state), checks their values
        against ``seen`` and removes the new values from the free domains
        with one ``remove_bits`` call over the scope.  The values already in
        ``seen`` are gone from every free domain, so removing the new ones
        alone leaves the masks that removing all would.  The next pass takes
        the variables that call fixed: those it appended to ``changed``
        that now hold one value.

        The state is ``(base, seen, bound)``: the lowest anchor over the
        scope, the bitset of bound values (bit ``v - base``) and the bitset
        of the scope positions they came from, which keeps a variable
        advised twice from being counted twice.
        """
        domains = store.domains
        scope = self.scope
        pos = self._pos
        state = store.states.get(self.pid)
        if state is None:
            base = min(domains[x].anchor for x in scope)
            seen = bound = 0
            fresh = scope
        else:
            base, seen, bound = state
            fresh = advice
        bound0 = bound
        changed: list[int] = []
        while True:
            new = 0
            for x in fresh:
                d = domains[x]
                if d.size == 1:
                    flag = 1 << pos[x]
                    if bound & flag:
                        continue
                    bound |= flag
                    bit = 1 << (d.min - base)
                    if seen & bit:
                        return None
                    seen |= bit
                    new |= bit
            if not new:
                break
            start = len(changed)
            if store.remove_bits(scope, new, base, changed) is WOULD_EMPTY:
                return None
            fresh = changed[start:]
        if state is None or bound != bound0:
            store.states[self.pid] = (base, seen, bound)
        return changed


class BinaryKnapsackAtmost(LinearLeq):
    """sum(w_i * x_i) <= capacity over 0/1 variables, as the <= row
    ``(weights, scope, capacity)``; zero weights are allowed.

    Over 0/1 items the row prunes value 1 from every free item heavier than
    the capacity left by the items fixed to 1, which is per-constraint
    domain consistency here.  ``Model.audit`` rejects an item whose initial
    domain is not within {0, 1}.
    """

    kind = "binary_knapsack_atmost"
    __slots__ = ()

    def __init__(self, weights: Sequence[int], scope: Sequence[int], capacity: int):
        Propagator.__init__(self, scope)  # not _Linear's: it rejects zero weights
        weights = list(weights)
        if len(weights) != len(self.scope):
            raise ValueError("one weight per variable required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self.coeffs = weights
        self.rhs = capacity


class BinaryLess(LinearLeq):
    """x < y (strict) or x <= y: the <= row x - y <= -1, or x - y <= 0.

    Constant bounds (x <= c) are plain domain tightening at model build
    time or a one-variable LinearLeq; no dedicated propagator is needed.
    """

    kind = "binary_less"
    __slots__ = ()

    def __init__(self, x: int, y: int, strict: bool = True):
        super().__init__([1, -1], [x, y], -1 if strict else 0)


class ObjectiveBound(Propagator):
    """Branch-and-bound incumbent bound on the objective variable.

    ``bound`` is deliberately not trailed: it only ever tightens, and the
    new bound must keep holding after backtracks and across restarts.
    """

    kind = "objective_bound"
    __slots__ = ("maximize", "bound")

    def __init__(self, var: int, maximize: bool):
        super().__init__([var])
        self.maximize = maximize
        self.bound: Optional[int] = None

    def reads(self) -> list[int]:
        return [0]  # the bound alone, not the advice, drives the filter

    def update(self, incumbent: int) -> None:
        self.bound = incumbent + 1 if self.maximize else incumbent - 1

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        if self.bound is None:
            return []
        x = self.scope[0]
        if self.maximize:
            out = store.tighten_min(x, self.bound)
        else:
            out = store.tighten_max(x, self.bound)
        if out is WOULD_EMPTY:
            return None
        return [x] if out is SHRUNK else []

"""Propagators: contracting, sound filters over a DomainStore.

``propagate(store, advice)`` returns the list of variables it shrank, or
None on failure (a wipeout); the store is left untouched by the op that
would have emptied a domain, so the caller's trail stays consistent.

``advice`` lists the scope variables whose bounds moved since the
propagator's previous call, other than by its own changes (a variable may
appear more than once).  ``ObjectiveBound`` ignores it.  The linear rows,
the knapsack and ``AllDifferent`` keep a summary of their scope in
``store.states[pid]`` between calls and bring it up to date from the
advised variables alone; with no state yet they scan the scope and build
one.  ``BinaryLess`` keeps a marker.  A state is replaced by assignment,
never mutated in place, because the store's per-level copies share it.  A
stored state is at its own fixpoint, so the linear rows and the knapsack
return ``[]`` at once when the advice moved nothing they prune by, and the
engine does not call a propagator with a state and no advice.  That is
exact because every propagator that keeps a state filters on bounds and
fixedness only, which an interior removal leaves as they were.  A direct
call, as from a test, reads and writes ``store.states`` as an engine call
does: it passes ``[]`` on a store with no state for the propagator, and
after narrowing the store itself, the variables whose bounds it moved.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .domain import DomainStore, SHRUNK, WOULD_EMPTY


class Propagator:
    """Base class; subclasses define filtering and a full-assignment check."""

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

    def satisfied(self, values: Sequence[int]) -> bool:
        """Semantic check against a full assignment (values indexed by VarId)."""
        raise NotImplementedError

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
        side makes that side cut the bound or fail, so every term a pass
        visits moves; those terms are recomputed between passes, and the
        loop ends at a pass that visits none.

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
                if c > 0:
                    tlo, thi = c * d.min, c * d.max
                else:
                    tlo, thi = c * d.max, c * d.min
                if tlo != term_lo[i] or is_eq and thi != term_hi[i]:
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
                if span > slack:
                    ub_num = slack + term_lo[i]  # c*x <= ub_num
                    if c > 0:
                        out = store.tighten_max(x, ub_num // c)
                    else:
                        out = store.tighten_min(x, -(-ub_num // c))
                    if out is WOULD_EMPTY:
                        return None
                if is_eq and span > surplus:
                    lb_num = term_lo[i] + span - surplus  # c*x >= lb_num
                    if c > 0:
                        out = store.tighten_min(x, -(-lb_num // c))
                    else:
                        out = store.tighten_max(x, lb_num // c)
                    if out is WOULD_EMPTY:
                        return None
            for i in wide:
                c = cs[i]
                x = xs[i]
                changed.append(x)
                d = domains[x]
                if c > 0:
                    tlo, thi = c * d.min, c * d.max
                else:
                    tlo, thi = c * d.max, c * d.min
                lo += tlo - term_lo[i]
                term_lo[i] = tlo
                if is_eq:
                    hi += thi - term_hi[i]
                    term_hi[i] = thi
        if len(changed) > 1:
            changed = list(dict.fromkeys(changed))
        store.states[self.pid] = (
            (lo, hi, term_lo, term_hi, heavy) if is_eq else (lo, term_lo, heavy)
        )
        return changed

    def _dot(self, values: Sequence[int]) -> int:
        return sum(c * values[x] for c, x in zip(self.coeffs, self.scope))


class LinearEq(_Linear):
    """sum(a_i * x_i) == b with bounds consistency."""

    kind = "linear_eq"
    is_eq = True
    __slots__ = ()

    def satisfied(self, values: Sequence[int]) -> bool:
        return self._dot(values) == self.rhs


class LinearLeq(_Linear):
    """sum(a_i * x_i) <= b with bounds consistency."""

    kind = "linear_leq"
    is_eq = False
    __slots__ = ()

    def satisfied(self, values: Sequence[int]) -> bool:
        return self._dot(values) <= self.rhs


class AllDifferent(Propagator):
    """Value-based alldifferent (forward checking, not domain-consistent).

    Whenever a scope variable is bound, its value is pruned from the other
    scope domains; repeats until no new variable becomes bound.
    """

    kind = "alldifferent"
    __slots__ = ()

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        """Each pass takes the variables bound since the last pass (the
        whole scope on a scan, the advice with a state), checks their values
        against ``seen`` and removes the new values from the free domains.
        The values already in ``seen`` are gone from every free domain, so
        removing the new ones alone leaves the masks that removing all would.
        ``remove_bits`` is called only on a domain that holds one of them;
        on any other it would return UNCHANGED.

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
            fresh = []
            for x in scope:
                d = domains[x]
                if d.size > 1:
                    bits = new >> (d.anchor - base)
                    if not d.mask & bits:
                        continue
                    out = store.remove_bits(x, bits)
                    if out is WOULD_EMPTY:
                        return None
                    if out is SHRUNK:
                        changed.append(x)
                        if d.size == 1:
                            fresh.append(x)
        if state is None or bound != bound0:
            store.states[self.pid] = (base, seen, bound)
        return changed

    def satisfied(self, values: Sequence[int]) -> bool:
        vals = [values[x] for x in self.scope]
        return len(set(vals)) == len(vals)


class BinaryKnapsackAtmost(Propagator):
    """sum(w_i * x_i) <= capacity over 0/1 variables.

    Filters to the strength of the feasibility DP over reachable residual
    weights: for a pure at-most constraint with non-negative weights that
    collapses to pruning value 1 from every item whose weight exceeds the
    capacity left after the items already committed to 1 (the singleton
    {i} is always the best completion), which is per-constraint domain
    consistency here.
    """

    kind = "binary_knapsack_atmost"
    __slots__ = ("weights", "capacity", "_heavy_first")

    def __init__(self, weights: Sequence[int], scope: Sequence[int], capacity: int):
        super().__init__(scope)
        weights = list(weights)
        if len(weights) != len(self.scope):
            raise ValueError("one weight per variable required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self.weights = weights
        self.capacity = capacity
        self._heavy_first = sorted(range(len(weights)), key=lambda i: -weights[i])

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        """Only items heavier than the slack can be pruned, so the scan for
        them walks the items heaviest first and stops at the first one that
        fits.  The pruned items are then assigned 0 in scope order, so the
        returned list, the trail and the partial trail left by a failing
        ``assign`` are those of a scan over the whole scope.

        The state is ``(mandatory, committed)``: the weight of the items
        fixed to 1 and the bitset of their scope positions, so only the
        advised items are checked for a new commitment.  When the advice
        commits none, the slack is the stored state's, whose walk already
        fixed every item heavier than it to 0, so the call returns at once."""
        domains = store.domains
        weights = self.weights
        xs = self.scope
        pos = self._pos
        state = store.states.get(self.pid)
        if state is None:
            mandatory = committed = 0
            fresh = xs
        else:
            mandatory, committed = state
            fresh = advice
        for x in fresh:
            d = domains[x]
            if d.size == 1 and d.min == 1:
                i = pos[x]
                if not committed >> i & 1:
                    committed |= 1 << i
                    mandatory += weights[i]
        if state is not None and committed == state[1]:
            return []
        store.states[self.pid] = (mandatory, committed)
        slack = self.capacity - mandatory
        if slack < 0:
            return None
        prune: list[int] = []
        for i in self._heavy_first:
            if weights[i] <= slack:
                break
            if domains[xs[i]].size > 1:
                prune.append(i)
        if not prune:
            return []
        prune.sort()
        changed: list[int] = []
        for i in prune:
            x = xs[i]
            out = store.assign(x, 0)
            if out is WOULD_EMPTY:
                return None
            if out is SHRUNK:
                changed.append(x)
        return changed

    def satisfied(self, values: Sequence[int]) -> bool:
        return (
            sum(w * values[x] for w, x in zip(self.weights, self.scope))
            <= self.capacity
        )


class BinaryLess(Propagator):
    """x < y (strict) or x <= y, by bounds tightening.

    Constant bounds (x <= c) are plain domain tightening at model build
    time or a one-variable LinearLeq; no dedicated propagator is needed.
    """

    kind = "binary_less"
    __slots__ = ("strict",)

    def __init__(self, x: int, y: int, strict: bool = True):
        super().__init__([x, y])
        self.strict = strict

    def propagate(self, store: DomainStore, advice: list[int]) -> Optional[list[int]]:
        """Idempotent, so it stores a marker state that lets the engine
        skip its next call when no bound of x or y moved.  On failure the
        engine drops the marker."""
        x, y = self.scope
        off = 1 if self.strict else 0
        domains = store.domains
        store.states[self.pid] = True
        changed: list[int] = []
        out = store.tighten_max(x, domains[y].max - off)
        if out is WOULD_EMPTY:
            return None
        if out is SHRUNK:
            changed.append(x)
        out = store.tighten_min(y, domains[x].min + off)
        if out is WOULD_EMPTY:
            return None
        if out is SHRUNK:
            changed.append(y)
        return changed

    def satisfied(self, values: Sequence[int]) -> bool:
        x, y = self.scope
        return values[x] < values[y] if self.strict else values[x] <= values[y]


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

    def satisfied(self, values: Sequence[int]) -> bool:
        return True

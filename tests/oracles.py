"""Independent reference implementations used as test oracles.

Everything here evaluates constraint semantics directly from propagator
parameters (kind, coefficients, bounds); none of it calls the library's
filtering code, so agreement is meaningful.  The reference filtering loops
at the end change domains only through ``DomainStore``'s shrink operations,
``ReferenceEngine`` runs any propagators to a fixpoint the way the
first-written engine did, and ``FirstWrittenEngine`` runs it over stateless
twins that call those loops.  ``wdeg_ratios`` and ``ibs_variable_score``
are the heuristics' first-written scores, recomputed from scratch.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from typing import Optional

from fdsearch import (
    AllDifferent,
    BinaryKnapsackAtmost,
    BinaryLess,
    DomainStore,
    LinearEq,
    LinearLeq,
    Model,
)
from fdsearch.domain import SHRUNK, UNCHANGED, WOULD_EMPTY, ChangeOutcome
from fdsearch.engine import DECISION, PropagationResult

Domains = list[set[int]]


def holds(prop, values: dict[int, int]) -> bool:
    """Semantic truth of a constraint under a (possibly partial) assignment
    covering its scope."""
    kind = prop.kind
    if kind == "linear_eq":
        return sum(c * values[x] for c, x in zip(prop.coeffs, prop.scope)) == prop.rhs
    if kind in ("linear_leq", "binary_knapsack_atmost", "binary_less"):
        return sum(c * values[x] for c, x in zip(prop.coeffs, prop.scope)) <= prop.rhs
    if kind == "alldifferent":
        vals = [values[x] for x in prop.scope]
        return len(set(vals)) == len(vals)
    if kind == "not_equal":  # a user propagator of the tests
        x, y = prop.scope
        return values[x] != values[y]
    raise ValueError(f"no oracle for {kind}")


def generate_and_test(model: Model) -> set[tuple[int, ...]]:
    """All solutions by enumerating the cross product of initial domains."""
    domains = [
        sorted(model.initial_domain(x).values()) for x in range(model.num_vars)
    ]
    solutions = set()
    for combo in itertools.product(*domains):
        values = dict(enumerate(combo))
        if all(holds(p, values) for p in model.propagators):
            solutions.add(combo)
    return solutions


def exact_filter(prop, domains: Domains) -> Domains | None:
    """Per-constraint domain consistency by support enumeration; None on a
    wipeout."""
    scope = prop.scope
    local = [sorted(domains[x]) for x in scope]
    keep: list[set[int]] = [set() for _ in scope]
    for combo in itertools.product(*local):
        if holds(prop, dict(zip(scope, combo))):
            for i, v in enumerate(combo):
                keep[i].add(v)
    if any(not k for k in keep):
        return None
    out = [set(d) for d in domains]
    for i, x in enumerate(scope):
        out[x] = keep[i]
    return out


def bounds_filter_linear(prop, domains: Domains) -> Domains | None:
    """Bounds consistency for a linear (in)equality by per-value scanning of
    the interval hull, iterated to a fixpoint."""
    is_eq = prop.kind == "linear_eq"
    out = [set(d) for d in domains]
    scope = prop.scope
    coeffs = prop.coeffs
    while True:
        changed = False
        for i, x in enumerate(scope):
            if not out[x]:
                return None
            rest_lo = rest_hi = 0
            for j, y in enumerate(scope):
                if j == i:
                    continue
                c = coeffs[j]
                lo, hi = min(out[y]), max(out[y])
                rest_lo += min(c * lo, c * hi)
                rest_hi += max(c * lo, c * hi)

            def supported(v: int) -> bool:
                own = coeffs[i] * v
                if is_eq:
                    return rest_lo + own <= prop.rhs <= rest_hi + own
                return rest_lo + own <= prop.rhs

            vals = sorted(out[x])
            while vals and not supported(vals[0]):
                vals.pop(0)
                changed = True
            while vals and not supported(vals[-1]):
                vals.pop()
                changed = True
            if not vals:
                return None
            out[x] = set(vals)
        if not changed:
            return out


def forward_check_alldiff(prop, domains: Domains) -> Domains | None:
    """Forward-checking closure for alldifferent."""
    out = [set(d) for d in domains]
    scope = prop.scope
    while True:
        bound: dict[int, int] = {}
        for x in scope:
            if len(out[x]) == 1:
                v = next(iter(out[x]))
                if v in bound.values():
                    return None
                bound[x] = v
        changed = False
        for x in scope:
            if len(out[x]) > 1:
                for v in bound.values():
                    if v in out[x]:
                        out[x].discard(v)
                        changed = True
                if not out[x]:
                    return None
        if not changed:
            return out


def reference_filter(prop, domains: Domains) -> Domains | None:
    """Filtering at each propagator's declared consistency level."""
    kind = prop.kind
    if kind in ("linear_eq", "linear_leq"):
        return bounds_filter_linear(prop, domains)
    if kind == "alldifferent":
        return forward_check_alldiff(prop, domains)
    # knapsack-atmost and binary_less achieve per-constraint domain consistency
    return exact_filter(prop, domains)


# -- random instance generators --


def random_domain(rng: random.Random, lo=-3, hi=6, max_size=5) -> list[int]:
    size = rng.randint(1, max_size)
    return sorted(rng.sample(range(lo, hi + 1), size))


def random_csp(rng: random.Random, max_vars=6, max_constraints=5) -> Model:
    m = Model("random-csp")
    nvars = rng.randint(1, max_vars)
    for _ in range(nvars):
        m.add_var_values(random_domain(rng))
    for _ in range(rng.randint(0, max_constraints)):
        kind = rng.choice(["linear_eq", "linear_leq", "binary_less", "alldiff"])
        if kind == "alldiff":
            k = rng.randint(2, min(4, nvars)) if nvars >= 2 else 1
            if k < 2:
                continue
            m.post(AllDifferent(rng.sample(range(nvars), k)))
        elif kind == "binary_less":
            if nvars < 2:
                continue
            x, y = rng.sample(range(nvars), 2)
            m.post(BinaryLess(x, y, strict=rng.random() < 0.5))
        else:
            k = rng.randint(1, min(3, nvars))
            scope = rng.sample(range(nvars), k)
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in scope]
            mid = sum(
                c * rng.choice(sorted(m.initial_domain(x).values()))
                for c, x in zip(coeffs, scope)
            )
            rhs = mid + rng.randint(-2, 2)
            cls = LinearEq if kind == "linear_eq" else LinearLeq
            m.post(cls(coeffs, scope, rhs))
    return m


def random_propagator_instance(rng: random.Random, kind: str):
    """A single-propagator model plus its initial domains, for filtering
    equivalence checks."""
    m = Model(f"random-{kind}")
    if kind == "binary_knapsack_atmost":
        n = rng.randint(1, 6)
        for _ in range(n):
            m.add_var_values(rng.choice([[0], [1], [0, 1]]))
        weights = [rng.randint(0, 6) for _ in range(n)]
        cap = rng.randint(0, max(1, sum(weights) // rng.choice([1, 2, 3])))
        m.post(BinaryKnapsackAtmost(weights, list(range(n)), cap))
    elif kind == "binary_less":
        m.add_var_values(random_domain(rng))
        m.add_var_values(random_domain(rng))
        m.post(BinaryLess(0, 1, strict=rng.random() < 0.5))
    elif kind == "alldifferent":
        n = rng.randint(2, 4)
        for _ in range(n):
            m.add_var_values(random_domain(rng, lo=0, hi=5, max_size=4))
        m.post(AllDifferent(list(range(n))))
    else:
        n = rng.randint(1, 4)
        for _ in range(n):
            m.add_var_values(random_domain(rng, max_size=6))
        coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        mid = sum(
            c * rng.choice(sorted(m.initial_domain(x).values()))
            for x, c in enumerate(coeffs)
        )
        rhs = mid + rng.randint(-3, 3)
        cls = LinearEq if kind == "linear_eq" else LinearLeq
        m.post(cls(coeffs, list(range(n)), rhs))
    domains = [set(m.initial_domain(x).values()) for x in range(m.num_vars)]
    return m, domains


def random_mixed_model(rng):
    """Linear rows (holes, negative coefficients, msq-like wide rows),
    knapsacks (weights >= 1, some domains not 0/1), alldifferents and
    binary_less rows over shared variables.  Often also an alldifferent over
    wide domains with rows on the same variables, whose removals are mostly
    interior, and an alldifferent that fixes a variable to 0 before it
    wipes out on two others, with a row watching the fixed variable.

    One value per variable is planted, and each constraint holds for the
    planted values unless it is one of the about one in five drawn freely,
    so that most models survive the root fixpoint and reach decisions."""
    free = 0.2
    m = Model("mixed")
    plant: list[int] = []

    def var(values, value=None):
        plant.append(rng.choice(values) if value is None else value)
        return m.add_var_values(values)

    def planted_rhs(coeffs, scope):
        if rng.random() < free:
            return sum(c * rng.choice(tuple(m.initial_domain(x).values()))
                       for c, x in zip(coeffs, scope)) + rng.randint(-3, 3)
        return sum(c * plant[x] for c, x in zip(coeffs, scope))

    if rng.random() < 0.5:
        k = rng.randint(3, 5)
        his = [rng.randint(k, 12) for _ in range(k)]
        xs = [var(range(1, hi + 1), v) for hi, v in zip(his, rng.sample(range(1, k + 1), k))]
        m.post(AllDifferent(xs))
        for _ in range(rng.randint(1, 2)):
            scope = rng.sample(xs, rng.randint(2, k))
            coeffs = [rng.choice((1, 1, 2, -1)) for _ in scope]
            rhs = planted_rhs(coeffs, scope)
            if rng.random() < 0.5:
                m.post(LinearEq(coeffs, scope, rhs))
            else:
                m.post(LinearLeq(coeffs, scope, rhs + rng.randint(0, 2)))
    if rng.random() < 0.3:
        t, a, b, c = var([1, 3], 3), var([0, 1], 0), var([1, 2], 1), var([1, 2], 2)
        z = var([0, 1], 0)
        m.post(LinearLeq([-1, 1], [a, z], 0))  # z <= a
        m.post(AllDifferent([t, a, b, c]))  # t = 1 fixes a = 0, then b = c = 2
    for _ in range(rng.randint(3, 8)):
        shape = rng.random()
        if shape < 0.35:
            var(rng.choice(([0, 1], [0, 1], [0, 1], [0], [1], [1, 2], [0, 2], [0, 1, 2])))
        elif shape < 0.7:
            var(random_domain(rng, lo=-4, hi=7, max_size=6))
        else:
            var(range(1, rng.randint(2, 20) + 1))
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("linear_eq", "linear_leq", "linear_leq", "knapsack", "alldiff", "less"))
        scope = rng.sample(range(m.num_vars), rng.randint(2, min(6, m.num_vars)))
        planted = rng.random() >= free
        if kind == "less":
            x, y = sorted(scope[:2], key=plant.__getitem__) if planted else scope[:2]
            m.post(BinaryLess(x, y, strict=plant[x] < plant[y] if planted else rng.random() < 0.5))
        elif kind == "knapsack":
            weights = [rng.randint(1, 6) for _ in scope]
            if planted:  # an item planted at v >= 1 fits in the slack
                cap = sum(w * max(plant[x], 0) for w, x in zip(weights, scope)) + rng.randint(0, 2)
            else:
                cap = rng.randint(0, sum(weights))
            m.post(BinaryKnapsackAtmost(weights, scope, cap))
        elif kind == "alldiff":
            if planted:  # one variable per planted value
                scope = list({plant[x]: x for x in scope}.values())
            if len(scope) > 1:
                m.post(AllDifferent(scope))
        else:
            if rng.random() < 0.3:
                coeffs = [1] * len(scope)
            else:
                coeffs = [rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)) for _ in scope]
            rhs = planted_rhs(coeffs, scope)
            if kind == "linear_eq":
                m.post(LinearEq(coeffs, scope, rhs))
            else:
                m.post(LinearLeq(coeffs, scope, rhs + rng.randint(0, 3)))
    return m


def random_planted_sums(rng):
    """A magic-square-like model: 7 to 9 variables over 1..hi, one
    alldifferent over all of them and 3 to 5 equalities over subsets, each
    holding for planted distinct values.  Random dives rarely reach a leaf
    of it, so ABS probing seldom ends the solve."""
    m = Model("planted-sums")
    k = rng.randint(7, 9)
    hi = rng.randint(k, k + 4)
    plant = rng.sample(range(1, hi + 1), k)
    xs = m.add_vars(k, 1, hi)
    m.post(AllDifferent(xs))
    for _ in range(rng.randint(3, 5)):
        scope = rng.sample(xs, rng.randint(3, k))
        coeffs = [rng.choice((1, 1, 2, -1)) for _ in scope]
        m.post(LinearEq(coeffs, scope, sum(c * plant[x] for c, x in zip(coeffs, scope))))
    return m


# -- first-written filtering loops, as references for the optimised ones --
#
# Copies of the ``propagate`` bodies of ``_Linear``, ``AllDifferent`` and
# ``BinaryKnapsackAtmost`` before they learned to skip store calls that
# cannot change anything; the knapsack's reads its weights and capacity as
# the row's ``coeffs`` and ``rhs``.  Called as ``reference(prop, store)``,
# each must leave the same masks and trail and return the same list, in the
# same order, as ``prop.propagate(store, advice)`` with the advice that an
# engine call would pass.  The knapsack and ``BinaryLess`` run ``_Linear``'s
# filter, so ``linear_propagate`` is their reference on any domain (it
# divides by each coefficient, so no weight may be 0), and
# ``knapsack_propagate`` is the knapsack's on 0/1 items.


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def linear_propagate(self, store: DomainStore) -> Optional[list[int]]:
    """Recomputes every term bound on every pass; calls the store for
    every side of every term."""
    domains = store.domains
    cs = self.coeffs
    xs = self.scope
    b = self.rhs
    is_eq = self.is_eq
    n = len(xs)
    changed: list[int] = []
    term_lo = [0] * n
    term_hi = [0] * n
    while True:
        lo = 0
        hi = 0
        for i in range(n):
            c = cs[i]
            d = domains[xs[i]]
            if c > 0:
                tlo, thi = c * d.min, c * d.max
            else:
                tlo, thi = c * d.max, c * d.min
            term_lo[i] = tlo
            term_hi[i] = thi
            lo += tlo
            hi += thi
        if lo > b or (is_eq and hi < b):
            return None
        progress = False
        for i in range(n):
            c = cs[i]
            x = xs[i]
            ub_num = b - (lo - term_lo[i])  # c*x <= ub_num
            if c > 0:
                out = store.tighten_max(x, ub_num // c)
            else:
                out = store.tighten_min(x, _ceil_div(ub_num, c))
            if out is WOULD_EMPTY:
                return None
            if out is SHRUNK:
                changed.append(x)
                progress = True
            if is_eq:
                lb_num = b - (hi - term_hi[i])  # c*x >= lb_num
                if c > 0:
                    out = store.tighten_min(x, _ceil_div(lb_num, c))
                else:
                    out = store.tighten_max(x, lb_num // c)
                if out is WOULD_EMPTY:
                    return None
                if out is SHRUNK:
                    changed.append(x)
                    progress = True
        if not progress:
            break
    if len(changed) > 1:
        changed = list(dict.fromkeys(changed))
    return changed


def remove_values(store: DomainStore, x: int, values) -> ChangeOutcome:
    """Removes ``values`` from the domain of x with ``remove_value``, one
    value at a time in ascending order; WOULD_EMPTY, leaving the domain as
    it was, when they are all of it."""
    d = store.domains[x]
    gone = [v for v in sorted(values) if v in d]
    if not gone:
        return UNCHANGED
    if len(gone) == d.size:
        return WOULD_EMPTY
    for v in gone:
        store.remove_value(x, v)
    return SHRUNK


def remove_from_free(store: DomainStore, xs, values, changed: list[int]) -> ChangeOutcome:
    """``remove_values`` on each domain of ``xs`` that holds more than one
    value, in order, appending each it shrinks to ``changed``; stops at the
    first WOULD_EMPTY."""
    out = UNCHANGED
    for x in xs:
        if store.domains[x].size > 1:
            r = remove_values(store, x, values)
            if r is WOULD_EMPTY:
                return r
            if r is SHRUNK:
                changed.append(x)
                out = SHRUNK
    return out


def alldifferent_propagate(self, store: DomainStore) -> Optional[list[int]]:
    """Each pass removes every bound value from every unbound scope
    variable, one value and one variable at a time."""
    domains = store.domains
    scope = self.scope
    changed: list[int] = []
    while True:
        seen: set[int] = set()
        for x in scope:
            d = domains[x]
            if d.size == 1:
                if d.min in seen:
                    return None
                seen.add(d.min)
        if remove_from_free(store, scope, seen, changed) is WOULD_EMPTY:
            return None
        if sum(domains[x].size == 1 for x in scope) == len(seen):
            break  # the pass bound no variable
    return changed


def knapsack_propagate(self, store: DomainStore) -> Optional[list[int]]:
    """Collects the free items in scope order, then prunes those heavier
    than the slack."""
    domains = store.domains
    mandatory = 0
    free: list[tuple[int, int]] = []
    for w, x in zip(self.coeffs, self.scope):
        d = domains[x]
        if d.size == 1:
            if d.min == 1:
                mandatory += w
        else:
            free.append((w, x))
    slack = self.rhs - mandatory
    if slack < 0:
        return None
    changed: list[int] = []
    for w, x in free:
        if w > slack:
            out = store.assign(x, 0)
            if out is WOULD_EMPTY:
                return None
            if out is SHRUNK:
                changed.append(x)
    return changed


# each kind's first-written loop, for single calls on any domain
REFERENCES = {
    "linear_eq": linear_propagate,
    "linear_leq": linear_propagate,
    "alldifferent": alldifferent_propagate,
    "binary_knapsack_atmost": knapsack_propagate,
}

# the rows' first-written loop, on any domain
TWIN_REFERENCES = {
    **REFERENCES, "binary_knapsack_atmost": linear_propagate, "binary_less": linear_propagate,
}


def wdeg_ratios(model: Model, weights, xs, store: DomainStore) -> list[float]:
    """|D(x)| over the summed weights of x's constraints with more than one
    unbound variable, for each x in ``xs``; +inf when none qualifies."""
    domains = store.domains
    ratios = []
    for x in xs:
        wdeg = 0
        for p in model.propagators:
            if x in p.scope and sum(domains[y].size > 1 for y in p.scope) > 1:
                wdeg += weights[p.pid]
        ratios.append(domains[x].size / wdeg if wdeg else math.inf)
    return ratios


def ibs_variable_score(impact: dict, x: int, store: DomainStore) -> float:
    """The sum of 1 - impact over the values of x, ascending; an unknown
    impact counts 0."""
    total = 0.0
    for a in sorted(store.domains[x].values()):
        total += 1.0 - impact.get((x, a), 0.0)
    return total


class _Reference:
    """Stateless twin of ``prop`` that runs its first-written loop."""

    def __init__(self, prop):
        self.prop = prop
        self.pid = prop.pid
        self.scope = prop.scope

    def propagate(self, store, advice):
        return TWIN_REFERENCES[self.prop.kind](self.prop, store)


class ReferenceEngine:
    """The first-written fixpoint loop, with ``Engine.propagate``'s
    signature: every change of a variable advises and schedules each of its
    watchers (FIFO, each queued at most once), every popped propagator is
    called with the advice gathered since its previous call, a fixpoint
    without a decision and a failure drop every propagator state.  It never
    reads the bound-moved marks, so it can check an engine that skips calls
    on them."""

    def __init__(self, nvars: int, propagators):
        self.propagators = list(propagators)
        self.watchers: list[list[int]] = [[] for _ in range(nvars)]
        for p in self.propagators:
            for x in p.scope:
                self.watchers[x].append(p.pid)

    def propagate(self, store: DomainStore, decision=None, extra=()):
        start = store.trail.segment()
        queue: deque[int] = deque()
        advice: dict[int, list[int]] = {p.pid: [] for p in self.propagators}

        def schedule(pid: int) -> None:
            if pid not in queue:
                queue.append(pid)

        def changed_var(x: int) -> None:
            for q in self.watchers[x]:
                advice[q].append(x)
                schedule(q)

        def affected() -> list[int]:
            return [e[0] for e in store.trail.entries[start:]]

        if decision is None:
            store.forget_states()
            for p in self.propagators:
                schedule(p.pid)
        else:
            kind, x, v = decision
            out = store.assign(x, v) if kind == "eq" else store.remove_value(x, v)
            if out is WOULD_EMPTY:
                return PropagationResult(DECISION, [])
            if out is SHRUNK:
                changed_var(x)
        for pid in extra:
            schedule(pid)
        while queue:
            pid = queue.popleft()
            adv, advice[pid] = advice[pid], []
            changed = self.propagators[pid].propagate(store, adv)
            if changed is None:
                store.forget_states()
                return PropagationResult(pid, affected())
            for x in changed:
                changed_var(x)
        return PropagationResult(None, affected())


class FirstWrittenEngine(ReferenceEngine):
    """``ReferenceEngine`` with each propagator of a ``TWIN_REFERENCES``
    kind replaced by its stateless twin; the others (user propagators,
    ``ObjectiveBound``) have no first-written loop and run as themselves."""

    def __init__(self, nvars: int, propagators):
        super().__init__(
            nvars, [_Reference(p) if p.kind in TWIN_REFERENCES else p for p in propagators]
        )

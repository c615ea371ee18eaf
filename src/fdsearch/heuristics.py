"""Black-box variable/value selection: impact-based search, activity-based
search, and the weighted-degree heuristic, fed by propagation events.

Each heuristic owns its statistics for exactly one solve; nothing here is
trailed, so learned statistics persist across backtracks and restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .domain import DomainStore
from .model import Model

# Two-sided 95% Student-t critical values, df = 1..30; 1.960 beyond.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t_critical(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df <= 30:
        return _T_95[df - 1]
    return 1.960


# Activity probing: at least _MIN_PROBES probes (the CI needs >= 2), at most
# _PROBE_CAP; variables with mean activity <= _MEAN_EPSILON are exempt from
# the CI test.
_MIN_PROBES = 10
_PROBE_CAP = 1000
_MEAN_EPSILON = 1e-6


@dataclass
class HeuristicConfig:
    """Knobs shared by the three heuristics.  ``bench.RunConfig`` is this
    class plus the run settings, so the bench harness has these defaults.

    ``kind`` is a key of ``HEURISTICS`` ("abs", "ibs" or "wdeg");
    ``alpha`` (finite, >= 1) weights the running averages of assignment
    impact and activity; ``gamma`` (in [0, 1]) is the ABS activity decay;
    ``delta`` (in (0, 1)) is the relative CI half-width at which ABS probing
    stops; ``value_heuristic`` enables the ABS least-activity value choice
    (else the least value, as wdeg chooses).
    """

    kind: str = "abs"
    alpha: float = 8.0
    gamma: float = 0.999
    delta: float = 0.2
    value_heuristic: bool = True

    def __post_init__(self) -> None:
        if self.kind not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.kind!r}")
        if not 1 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 1")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must be in [0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")


class ProbeAccumulator:
    """Streaming per-variable mean/variance of per-probe activity vectors
    (Welford), plus running means of per-assignment activity.

    One ``fold`` per probe; untouched variables contribute 0 for that probe.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.count = 0
        self.mean = [0.0] * nvars
        self.m2 = [0.0] * nvars
        self.assignment_mean: dict[tuple[int, int], list[float]] = {}

    def fold(
        self,
        vector: Sequence[float],
        decisions: Sequence[tuple[tuple[int, int], int]] = (),
    ) -> None:
        """Fold one probe's activity vector and its (x=v, |affected|) log."""
        self.count += 1
        n = self.count
        mean = self.mean
        m2 = self.m2
        for x in range(self.nvars):
            v = vector[x]
            delta = v - mean[x]
            mean[x] += delta / n
            m2[x] += delta * (v - mean[x])
        for key, a_k in decisions:
            cell = self.assignment_mean.get(key)
            if cell is None:
                self.assignment_mean[key] = [1.0, float(a_k)]
            else:
                cell[0] += 1.0
                cell[1] += (a_k - cell[1]) / cell[0]

    def stddev(self, x: int) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2[x] / (self.count - 1))

    def should_stop(self, delta: float, min_probes: int) -> bool:
        """True once at least ``min_probes`` (and 2) probes are folded and
        every variable's 95% CI half-width relative to its mean,
        t * stddev / (sqrt(n) * mean), is at most ``delta``; variables with
        mean <= _MEAN_EPSILON are exempt (a relative band around 0 is
        unattainable)."""
        n = self.count
        if n < min_probes or n < 2:
            return False
        t = t_critical(n - 1)
        sqrt_n = math.sqrt(n)
        for x in range(self.nvars):
            mu = self.mean[x]
            if mu > _MEAN_EPSILON and t * self.stddev(x) / (sqrt_n * mu) > delta:
                return False
        return True


def _running_average(table: dict, key, new: float, alpha: float) -> None:
    """Fold ``new`` into ``table[key]`` as (old*(alpha-1)+new)/alpha; the
    first value is stored as is."""
    old = table.get(key)
    table[key] = new if old is None else (old * (alpha - 1.0) + new) / alpha


def _argbest(candidates: Sequence[int], scores: Sequence[float], rng, largest: bool) -> int:
    """Uniform random element of the argmax (or argmin) set."""
    best = scores[0]
    ties = [candidates[0]]
    for i in range(1, len(candidates)):
        s = scores[i]
        if s == best:
            ties.append(candidates[i])
        elif (s > best) if largest else (s < best):
            best = s
            ties = [candidates[i]]
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


def _least_scored(x: int, store: DomainStore, table: dict, rng) -> int:
    """A value of x of least ``table[(x, value)]`` (0 when absent), ties
    broken at random."""
    values = list(store.domains[x].values())
    return _argbest(values, [table.get((x, a), 0.0) for a in values], rng, largest=False)


def _impact(result, store: DomainStore, log_before: float) -> float:
    """The impact 1 - S_after/S_before of a fixpoint that began at log
    search-space size ``log_before``; 1 when it failed."""
    return 1.0 - math.exp(store.search_space_log_size() - log_before) if result.ok else 1.0


class SearchHeuristic:
    """Interface the search loop drives; one instance per solve.

    ``initialize`` may use these solver services: ``store``,
    ``propagate(decision)``, ``free_vars()`` (the unfixed branch variables),
    ``note_probe_solution()`` and the ``stats.probes`` count."""

    def __init__(self, model: Model, config: HeuristicConfig, rng):
        self.model = model
        self.config = config
        self.rng = rng

    def initialize(self, solver) -> bool:
        """Root initialization; returns False when it proves infeasibility."""
        return True

    def select_variable(self, free: Sequence[int], store: DomainStore) -> int:
        raise NotImplementedError

    def select_value(self, x: int, store: DomainStore) -> int:
        """The least value of x: ascending domain order."""
        return store.domains[x].min

    def on_search_fixpoint(self, kind, x, v, result, store) -> None:
        """Called after every search-phase fixpoint (decisions and
        refutations), including failed ones."""


class ImpactSearch(SearchHeuristic):
    """Impact-based search.

    Assignment impacts I(x=a) = 1 - S(after)/S(before) are estimated at the
    root by simulating every assignment exactly (no domain partitioning) and
    maintained during search with the alpha-weighted update.  Branches on
    the variable whose labeling is estimated to leave the least search
    space, i.e. the smallest sum of (1 - impact) over the live values, then
    on a value of least impact.  ``select_value`` records the node's log
    size, against which the impact of the x = v that follows is measured.

    A variable's score depends only on its mask and its impacts, so it is
    cached per variable with the mask and ``writes[x]``, the number of
    impacts of x written by ``initialize`` and ``on_search_fixpoint``.
    """

    def __init__(self, model, config, rng):
        super().__init__(model, config, rng)
        self.impact: dict[tuple[int, int], float] = {}
        self.log_before = 0.0
        self.writes = [0] * model.num_vars
        self._scores: list[Optional[tuple[int, int, float]]] = [None] * model.num_vars

    def initialize(self, solver) -> bool:
        """Probe every root assignment.  The root changes only when a probe
        fails and its value is shaved, so its log size is computed once and
        again after each shave."""
        store = solver.store
        log_root = store.search_space_log_size()
        for x in self.model.branch_vars:
            d = store.domains[x]
            for a in list(d.values()):
                if d.size <= 1:
                    break
                if a not in d:
                    continue  # shaved away by an earlier failed probe
                level = store.push_level()
                res = solver.propagate(("eq", x, a))
                solver.stats.probes += 1
                self.impact[(x, a)] = _impact(res, store, log_root)
                self.writes[x] += 1
                store.restore_to(level)
                if not res.ok:
                    if not solver.propagate(("ne", x, a)).ok:
                        return False  # shaving emptied a root domain
                    log_root = store.search_space_log_size()
        return True

    def variable_score(self, x: int, store: DomainStore) -> float:
        """Estimated remaining space under labeling x: sum of (1 - impact)
        over current domain values; unknown values count a full 1."""
        d = store.domains[x]
        writes = self.writes[x]
        cached = self._scores[x]
        if cached is not None and cached[0] == d.mask and cached[1] == writes:
            return cached[2]
        impact = self.impact
        total = 0.0
        for a in d.values():
            total += 1.0 - impact.get((x, a), 0.0)
        self._scores[x] = (d.mask, writes, total)
        return total

    def select_variable(self, free, store):
        scores = [self.variable_score(x, store) for x in free]
        return _argbest(free, scores, self.rng, largest=False)

    def select_value(self, x, store):
        self.log_before = store.search_space_log_size()
        return _least_scored(x, store, self.impact, self.rng)

    def on_search_fixpoint(self, kind, x, v, result, store):
        if kind == "eq":  # refutations carry no assignment to score
            impact = _impact(result, store, self.log_before)
            _running_average(self.impact, (x, v), impact, self.config.alpha)
            self.writes[x] += 1


class ActivitySearch(SearchHeuristic):
    """Activity-based search.

    A(x) counts, with decay gamma on free variables, how often propagation
    filters x's domain.  Activities are initialized by random probes until
    the 95% t-distribution confidence interval of every variable's mean
    activity is within delta of that mean.  Branches on the largest
    A(x)/|D(x)|; the optional value heuristic picks the least assignment
    activity.
    """

    def __init__(self, model, config, rng):
        super().__init__(model, config, rng)
        self.activity = [0.0] * model.num_vars
        self.assignment_activity: Optional[dict[tuple[int, int], float]] = (
            {} if config.value_heuristic else None
        )

    def initialize(self, solver) -> bool:
        cfg = self.config
        store = solver.store
        rng = self.rng
        nvars = self.model.num_vars
        acc = ProbeAccumulator(nvars)
        stop = not solver.free_vars()  # nothing to probe
        while not stop and acc.count < _PROBE_CAP:
            vector = [0] * nvars
            decisions: list[tuple[tuple[int, int], int]] = []
            base = store.push_level()
            failed_first = False
            while True:
                free = solver.free_vars()
                if not free:
                    stop = solver.note_probe_solution()
                    break
                x = free[rng.randrange(len(free))]
                vals = list(store.domains[x].values())
                v = vals[rng.randrange(len(vals))]
                res = solver.propagate(("eq", x, v))
                for y in res.affected:
                    vector[y] += 1  # gamma=1 during probes: no aging
                decisions.append(((x, v), len(res.affected)))
                if not res.ok:
                    failed_first = len(decisions) == 1
                    break
            store.restore_to(base)
            solver.stats.probes += 1
            if failed_first:
                # root + (x=v) fails: singleton-consistency shaving
                (fx, fv), _ = decisions[0]
                if not solver.propagate(("ne", fx, fv)).ok:
                    return False
            acc.fold(vector, decisions)
            if acc.should_stop(cfg.delta, _MIN_PROBES):
                break
        self.activity = list(acc.mean)
        if self.assignment_activity is not None:
            self.assignment_activity = {
                key: cell[1] for key, cell in acc.assignment_mean.items()
            }
        return True

    def select_variable(self, free, store):
        domains = store.domains
        activity = self.activity
        scores = [activity[x] / domains[x].size for x in free]
        return _argbest(free, scores, self.rng, largest=True)

    def select_value(self, x, store):
        table = self.assignment_activity
        if table is None:
            return super().select_value(x, store)
        return _least_scored(x, store, table, self.rng)

    def on_search_fixpoint(self, kind, x, v, result, store):
        gamma = self.config.gamma
        activity = self.activity
        domains = store.domains
        for y in range(len(activity)):
            if domains[y].size > 1:
                activity[y] *= gamma
        for y in result.affected:
            activity[y] += 1.0
        table = self.assignment_activity
        if kind == "eq" and table is not None:
            _running_average(table, (x, v), float(len(result.affected)), self.config.alpha)


class WeightedDegreeSearch(SearchHeuristic):
    """Weighted-degree heuristic.

    Every constraint starts at weight 1 and is incremented when its
    propagation wipes out a domain.  Branches on the smallest
    |D(x)| / sum of weights of x's constraints with more than one
    uninstantiated variable; values are tried in ascending domain order.

    ``wsum[x]`` keeps the sum of the weights of all x's constraints; it is
    built from ``weights`` at the first select, so ``weights`` may be set
    directly before that, and from then on each failure adds to both.
    """

    def __init__(self, model, config, rng):
        super().__init__(model, config, rng)
        self.weights = [1] * len(model.propagators)
        self.wsum: Optional[list[int]] = None

    def _ratios(self, xs: Sequence[int], store: DomainStore) -> list[float]:
        """|D(x)| / wdeg(x) for each unbound x in ``xs``, where wdeg sums the
        weights of x's constraints with >1 uninstantiated variable; +inf
        when no constraint qualifies.  That is ``wsum[x]`` less the weight
        of each constraint whose one uninstantiated variable is x."""
        domains = store.domains
        weights = self.weights
        props = self.model.propagators
        if self.wsum is None:
            self.wsum = [0] * len(domains)
            for p in props:
                for y in p.scope:
                    self.wsum[y] += weights[p.pid]
        wdeg = self.wsum[:]
        for p in props:
            lone = -1
            for y in p.scope:
                if domains[y].size > 1:
                    if lone >= 0:
                        break
                    lone = y
            else:
                if lone >= 0:
                    wdeg[lone] -= weights[p.pid]
        return [domains[x].size / wdeg[x] if wdeg[x] else math.inf for x in xs]

    def select_variable(self, free, store):
        return _argbest(free, self._ratios(free, store), self.rng, largest=False)

    def on_search_fixpoint(self, kind, x, v, result, store):
        pid = result.failed
        if pid is not None and 0 <= pid < len(self.weights):
            self.weights[pid] += 1
            if self.wsum is not None:
                for y in self.model.propagators[pid].scope:
                    self.wsum[y] += 1


# The heuristic kinds, by the name a config and the bench CLI use.
HEURISTICS = {"abs": ActivitySearch, "ibs": ImpactSearch, "wdeg": WeightedDegreeSearch}


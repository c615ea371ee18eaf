"""Depth-first search with dynamic re-selection, geometric restarts and
branch and bound.

Branching is the binary decomposition of labeling: try x=v, and on
exhaustion of that subtree post x != v and re-select (the heuristic scores
may have changed).  Heuristic statistics persist across backtracks and
restarts; the objective bound is posted at the root and survives restarts.
"""

from __future__ import annotations

import enum
import math
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .engine import Engine, PropagationResult
from .heuristics import HEURISTICS, ActivitySearch, HeuristicConfig
from .model import Model, ModelError
from .propagators import ObjectiveBound


class Status(enum.Enum):
    SOLUTION_FOUND = "solution"
    PROVED_INFEASIBLE = "infeasible"
    PROVED_OPTIMAL = "optimal"
    TIMED_OUT = "timeout"


@dataclass
class RestartPolicy:
    """No restarts, or geometric rounds: l0 failures in round 0, then
    l_{i+1} = max(l_i + 1, ceil(rho * l_i)), so each round is longer than
    the last, and every round is endless once rho * l_i overflows a float;
    l0 defaults to 3 * |branch vars|.
    The constructor rejects a rho that is not a finite number > 1 and an
    initial limit below 1."""

    rho: Optional[float] = None
    initial_limit: Optional[int] = None

    def __post_init__(self):
        if self.rho is not None and not (math.isfinite(self.rho) and self.rho > 1.0):
            raise ValueError("geometric restart factor must be a finite number > 1")
        if self.initial_limit is not None and self.initial_limit < 1:
            raise ValueError("initial restart limit must be at least 1")

    @classmethod
    def none(cls) -> "RestartPolicy":
        return cls()

    @classmethod
    def geometric(cls, rho: float, initial_limit: Optional[int] = None) -> "RestartPolicy":
        return cls(rho=rho, initial_limit=initial_limit)

    @property
    def enabled(self) -> bool:
        return self.rho is not None

    def round_limits(self, num_branch_vars: int) -> Iterator[float]:
        """The failure limit of each round in turn; one endless round when
        restarts are off."""
        if not self.enabled:
            yield math.inf
            return
        limit = self.initial_limit or 3 * num_branch_vars
        while True:
            yield limit
            grown = limit * self.rho
            # the 1e-9 slack keeps exact products exact (30 * 1.1 must give 33)
            limit = grown if grown == math.inf else max(limit + 1, math.ceil(grown - 1e-9))


@dataclass
class SearchStats:
    status: Status = Status.TIMED_OUT
    choice_points: int = 0
    failures: int = 0
    restarts: int = 0
    probes: int = 0
    wall_time: float = 0.0
    solutions: list[tuple[Optional[int], float]] = field(default_factory=list)
    best_objective: Optional[int] = None
    best_assignment: Optional[list[int]] = None
    all_solutions: Optional[list[tuple[int, ...]]] = None


class _Timeout(Exception):
    pass


class _Restart(Exception):
    pass


class _Solver:
    """One solve call: owns the store, engine, heuristic state and RNG."""

    def __init__(
        self,
        model: Model,
        config: HeuristicConfig,
        restart: RestartPolicy,
        seed: int,
        timeout: Optional[float],
        max_failures: Optional[int],
        all_solutions: bool,
        probe_only: bool = False,
    ):
        model.audit()
        if all_solutions and (restart.enabled or model.objective is not None):
            raise ValueError("all-solutions mode requires no restarts and no objective")
        if max_failures is not None and max_failures < 1:
            raise ValueError("max_failures must be at least 1")
        if timeout is not None and not timeout > 0:
            raise ValueError("timeout must be positive")
        self.model = model
        self.branch_vars = model.branch_vars  # a fresh list per read when unset
        self.store = model.new_store()
        self.rng = random.Random(seed)
        self.all_solutions = all_solutions
        self.probe_only = probe_only
        self.max_failures = max_failures
        self.timeout = timeout
        self.restart_policy = restart
        self.stats = SearchStats()
        if all_solutions:
            self.stats.all_solutions = []

        props = list(model.propagators)
        self.bound: Optional[ObjectiveBound] = None
        self._extra: tuple[int, ...] = ()
        if model.objective is not None:
            var, direction = model.objective
            self.bound = ObjectiveBound(var, maximize=direction == "max")
            self.bound.pid = len(props)
            props.append(self.bound)
            self._extra = (self.bound.pid,)
        self.engine = Engine(model.num_vars, props)
        self.heuristic = HEURISTICS[config.kind](model, config, self.rng)

        self._t0 = 0.0
        self._deadline: Optional[float] = None
        self._round_end = math.inf  # the failure count that ends the restart round

    # -- services used by heuristics during initialization --

    def propagate(self, decision=None) -> PropagationResult:
        """One fixpoint, from every propagator when there is no decision;
        raises _Timeout instead once the deadline has passed."""
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            raise _Timeout
        return self.engine.propagate(self.store, decision, self._extra)

    def free_vars(self) -> list[int]:
        """The branch variables that are not yet fixed."""
        domains = self.store.domains
        return [x for x in self.branch_vars if domains[x].size > 1]

    def note_probe_solution(self) -> bool:
        """A probe reached a leaf; record it unless the solve enumerates or
        only probes.  True when probing should stop (a satisfaction solve)."""
        return not (self.all_solutions or self.probe_only) and self._record_solution()

    # -- solution bookkeeping --

    def _record_solution(self) -> bool:
        """Record the current (fully bound) store.  Returns True when the
        search is done (satisfaction mode, single solution wanted)."""
        values = self.store.assignment()
        t = time.perf_counter() - self._t0
        stats = self.stats
        if self.model.objective is not None:
            obj = values[self.model.objective[0]]
            stats.solutions.append((obj, t))
            stats.best_objective = obj
            stats.best_assignment = values
            self.bound.update(obj)
            return False
        stats.best_assignment = values
        if self.all_solutions:
            stats.all_solutions.append(tuple(values))
            return False
        stats.solutions.append((None, t))
        return True

    # -- the search proper --

    def run(self) -> SearchStats:
        self._t0 = time.perf_counter()
        if self.timeout is not None:
            self._deadline = self._t0 + self.timeout
        stats = self.stats
        try:
            root = self.propagate()
            if not root.ok:
                return self._finish(Status.PROVED_INFEASIBLE)
            if not self.heuristic.initialize(self):
                # shaving emptied a domain: nothing (better) exists
                return self._finish(self._exhausted_status())
            if self.probe_only:
                return self._finish(Status.SOLUTION_FOUND)
            if stats.best_assignment is not None and self.model.objective is None:
                return self._finish(Status.SOLUTION_FOUND)  # probe solution
            return self._finish(self._dfs())
        except _Timeout:
            return self._finish(Status.TIMED_OUT)
        except ValueError:
            # store.assignment() at a leaf (every branch variable fixed)
            # found another variable unbound; caught here, not in
            # _record_solution, so that no leaf pays for a try block
            unbound = [x for x, d in enumerate(self.store.domains) if d.size != 1]
            if not unbound or self.free_vars():
                raise
            raise ModelError(
                f"variable {unbound[0]} ({self.model.var_names[unbound[0]]}) is unbound at a "
                "leaf: propagation must fix every variable that is not a branch variable"
            ) from None

    def _finish(self, status: Status) -> SearchStats:
        self.stats.status = status
        self.stats.wall_time = time.perf_counter() - self._t0
        return self.stats

    def _try_branch(self, kind: str, x: int, v: int) -> bool:
        """Push a level, post the branch, propagate, feed the heuristic.
        On failure restores the level, counts the failure, and raises
        _Restart when the round's failure limit is reached.  Returns whether
        the branch is consistent."""
        store = self.store
        level = store.push_level()
        res = self.propagate((kind, x, v))
        self.heuristic.on_search_fixpoint(kind, x, v, res, store)
        if res.ok:
            return True
        store.restore_to(level)
        stats = self.stats
        stats.failures += 1
        if self.max_failures is not None and stats.failures >= self.max_failures:
            raise _Timeout
        if stats.failures >= self._round_end:
            raise _Restart
        return False

    def _dfs(self) -> Status:
        store = self.store
        heur = self.heuristic
        stats = self.stats
        limits = self.restart_policy.round_limits(len(self.branch_vars))
        self._round_end = next(limits)
        pending: list[tuple[int, int, int]] = []  # (level before x = v, x, v)

        while True:
            try:
                free = self.free_vars()
                if free:
                    x = heur.select_variable(free, store)
                    v = heur.select_value(x, store)
                    stats.choice_points += 1
                    pending.append((store.level, x, v))
                    if self._try_branch("eq", x, v):
                        continue
                elif self._record_solution():
                    return Status.SOLUTION_FOUND
                if not self._backtrack(pending):
                    return self._exhausted_status()
            except _Restart:
                stats.restarts += 1
                self._round_end = stats.failures + next(limits)
                pending.clear()
                if store.level >= 1:
                    store.restore_to(1)

    def _exhausted_status(self) -> Status:
        """The status of a search space that holds nothing (better): the
        incumbent is optimal under an objective and a solution without one;
        with no incumbent the model is infeasible."""
        stats = self.stats
        if stats.best_assignment is None:
            return Status.PROVED_INFEASIBLE
        if stats.best_objective is not None:
            return Status.PROVED_OPTIMAL
        return Status.SOLUTION_FOUND

    def _backtrack(self, pending) -> bool:
        """Post pending refutations, each at its choice point's level; True
        once a consistent node is reached, False when the tree is exhausted."""
        store = self.store
        while pending:
            level, x, v = pending.pop()
            if store.level > level:
                store.restore_to(level + 1)
            if self._try_branch("ne", x, v):
                return True
        return False


def solve(
    model: Model,
    heuristic: Union[str, HeuristicConfig] = "abs",
    *,
    restart: Optional[RestartPolicy] = None,
    seed: int = 0,
    timeout: Optional[float] = None,
    max_failures: Optional[int] = None,
    all_solutions: bool = False,
) -> SearchStats:
    """Solve a model.

    Satisfaction models stop at the first solution (or enumerate all of
    them with ``all_solutions=True``); models with an objective run branch
    and bound to optimality.  Identical (model, heuristic, restart, seed)
    give an identical search tree.
    """
    config = HeuristicConfig(kind=heuristic) if isinstance(heuristic, str) else heuristic
    restart = restart or RestartPolicy.none()
    solver = _Solver(
        model, config, restart, seed, timeout, max_failures, all_solutions
    )
    return solver.run()


def probe_activities(
    model: Model,
    config: Optional[HeuristicConfig] = None,
    seed: int = 0,
    timeout: Optional[float] = None,
) -> tuple[Optional[list[float]], Optional[list[bool]], SearchStats]:
    """Run only the activity-probing initialization.

    Returns (activities, fixed_at_root flags, stats); activities is None when
    the root is infeasible.  Used by the activity-distribution analysis.
    """
    config = config or HeuristicConfig(kind="abs")
    if config.kind != "abs":
        raise ValueError("probing is defined by the activity heuristic")
    solver = _Solver(
        model, config, RestartPolicy.none(), seed, timeout,
        None, False, probe_only=True,
    )
    stats = solver.run()
    if stats.status is not Status.SOLUTION_FOUND:
        return None, None, stats
    heur = solver.heuristic
    assert isinstance(heur, ActivitySearch)
    fixed = [d.size == 1 for d in solver.store.domains]
    return list(heur.activity), fixed, stats

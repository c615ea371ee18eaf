"""The benchmark's workloads, how a workload seed picks their solves, and
the independent checks every solve result must pass.

Every solve's search tree is fixed by (model, heuristic, restart, solve
seed) and capped by ``max_failures``, so a faster run is the same search
done faster.  Each workload has a pool of solve seeds per heuristic, and
every pool entry's tree is pinned in ``pins.json``.  The workload seed
draws ``draw`` of the ``pool`` seeds per heuristic and sets the order of
the closed loop.

On ``msq`` the draw is the whole pool, so there the workload seed only sets
the order.  The tree of one magic-square solve seed differs several-fold
from the next (a square after 21 failures, or the cap), and even drawing 10
of 12 seeds per heuristic moved ``nodes_per_s`` by 3% between workload
seeds with timing noise taken out.  Capped knapsack trees are alike, so
there the seed draws 6 of 8.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

Tree = namedtuple("Tree", "status choice_points failures restarts probes objective")


@dataclass(frozen=True)
class Workload:
    name: str
    selector: str  # model, as fdsearch.bench.build_benchmark takes it
    heuristics: tuple[str, ...]
    restart: str  # as fdsearch.bench.parse_restart takes it
    cap: int  # max_failures of every solve
    pool: int  # solve seeds 0 .. pool-1 per heuristic, all pinned
    draw: int  # solve seeds the workload seed draws per heuristic
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "msq", "msq:7", ("abs", "ibs", "wdeg"), "geo:1.1", 300, 5, 5,
            "The paper's magic-square experiment: 7-term linear_eq over wide "
            "domains, alldifferent, restarts, abs probing and the ibs root "
            "simulation; no knapsack or objective propagator.",
        ),
        Workload(
            "knap-cop", "knap-cop:1-4", ("abs", "ibs", "wdeg"), "nr", 1000, 8, 6,
            "The only branch and bound: binary_knapsack_atmost, the objective "
            "linear_eq and objective_bound, incumbent updates; no restarts, "
            "no alldifferent.",
        ),
        Workload(
            "knap-csp", "knap-csp:1-4", ("abs", "wdeg"), "nr", 1000, 8, 6,
            "The other linear shape: 20-term linear_leq rows over 0/1 domains "
            "instead of short equalities over wide ones; no restarts.",
        ),
    )
}


def draw_solves(w: Workload, seed: int) -> list[tuple[str, int]]:
    """The (heuristic, solve seed) pairs of one pass, in closed-loop order."""
    rng = random.Random(seed)
    solves = [
        (h, s) for h in w.heuristics for s in sorted(rng.sample(range(w.pool), w.draw))
    ]
    rng.shuffle(solves)
    return solves


def tree_of(stats) -> Tree:
    return Tree(
        stats.status.value, stats.choice_points, stats.failures,
        stats.restarts, stats.probes, stats.best_objective,
    )


def load_pins(path: Path = PINS_PATH) -> dict:
    """workload name -> {"cap": int, "restart": str, "trees": {"h:seed": tree}}."""
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


def pinned_trees(w: Workload, pins: dict) -> dict[str, Tree]:
    """The pins that apply to ``w``; none when its cap or restart changed."""
    entry = pins.get(w.name)
    if not entry or entry["cap"] != w.cap or entry["restart"] != w.restart:
        return {}
    return {key: Tree(*tree) for key, tree in entry["trees"].items()}


def make_checker(fd, w: Workload):
    """``check(stats) -> list of problems`` for one solve of ``w``, using the
    package's independent checkers (direct evaluation, no propagators)."""
    kind, _, arg = w.selector.partition(":")
    optimum = None
    if kind == "msq":
        n = int(arg)

        def valid(values, objective):
            return fd.check_magic_square(n, values)
    else:
        inst = fd.load_bundled_instance(arg)
        optimum = inst.optimum

        def valid(values, objective):
            if kind == "knap-csp":
                return fd.check_knapsack_csp(inst, values)
            return fd.check_knapsack_cop(inst, values, objective) and objective <= optimum
    optimizing = kind == "knap-cop"
    Status = fd.Status

    def check(stats) -> list[str]:
        problems = []
        status = stats.status
        if status is Status.TIMED_OUT:
            # no wall-clock timeout is set, so only the failure cap stops a solve
            if stats.failures != w.cap:
                problems.append(f"timed out after {stats.failures} failures, cap {w.cap}")
        elif status is Status.PROVED_INFEASIBLE:
            problems.append("reported infeasible; the instance has solutions")
        elif status is Status.PROVED_OPTIMAL:
            if not optimizing:
                problems.append("reported optimal for a satisfaction model")
            elif stats.best_objective != optimum:
                problems.append(f"optimal {stats.best_objective} != recorded optimum {optimum}")
        elif optimizing:
            problems.append(f"status {status.value} for an optimization model")
        if status is Status.SOLUTION_FOUND and stats.best_assignment is None:
            problems.append("solution status without an assignment")
        if stats.best_assignment is not None and not valid(
            stats.best_assignment, stats.best_objective
        ):
            problems.append("assignment fails the independent checker")
        return problems

    return check

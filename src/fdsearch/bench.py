"""Experiment runner: repeated seeded solves, CSV output, sensitivity
sweeps, and the root-activity dump.

CSV layout: one header, one row per run (``agg=0``), then one aggregate
row (``agg=1``) carrying means, the sample standard deviation of the
(timeout-clamped) runtimes, the success count and runtime quartiles.
A run that raises gives a ``status=error`` row and the experiment goes
on. Timed-out and error runs contribute the configured timeout to the time
aggregates; ``n_success`` counts runs that neither timed out nor raised,
and ``n_error`` counts the runs that raised.

The process pool, ``statistics``, ``csv`` and ``argparse`` are imported in
the functions that use them: building and solving a model needs none of
them, and loading them would otherwise be a large part of the start-up of
every fresh interpreter that only builds and solves.
"""

from __future__ import annotations

import io
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import TYPE_CHECKING, Optional, Sequence

from .benchmarks import (
    BUNDLED_KNAPSACKS,
    build_knapsack_cop,
    build_knapsack_csp,
    build_magic_square,
    load_bundled_instance,
    parse_knapsack_file,
)
from .heuristics import HEURISTICS, HeuristicConfig
from .model import Model
from .search import RestartPolicy, Status, probe_activities, solve

if TYPE_CHECKING:
    import argparse

RUN_COLUMNS = (
    "run_id", "seed", "status", "time_s", "choice_points",
    "failures", "restarts", "objective", "probes", "agg",
)
AGG_COLUMNS = (
    "mu_time_s", "sigma_time_s", "mu_choice_points", "mu_failures",
    "n_success", "q0_time_s", "q1_time_s", "q2_time_s", "q3_time_s",
    "q4_time_s", "med_probes", "n_error",
)
ERROR = "error"  # the row status of a run that raised; not a solver Status
HEADER = RUN_COLUMNS + AGG_COLUMNS


@dataclass
class RunConfig(HeuristicConfig):
    """One experiment: the heuristic settings of ``HeuristicConfig`` plus a
    benchmark, a restart strategy, the number of runs (default 50), the
    timeout (default 300 s), the first seed and the worker cap.  The
    constructor rejects runs or threads below 1, a timeout that is not
    positive, and a restart or heuristic setting that ``parse_restart`` or
    ``HeuristicConfig`` rejects; the benchmark is checked when it is
    built."""

    bench: str = "msq:7"
    restart: str = "nr"  # "nr" or "geo:RHO"
    runs: int = 50
    timeout: float = 300.0
    seed: int = 0
    threads: Optional[int] = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("--runs must be at least 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("--threads must be at least 1")
        if not self.timeout > 0:
            raise ValueError("--timeout must be positive")
        parse_restart(self.restart)
        super().__post_init__()


@dataclass
class RunRecord:
    config: RunConfig
    rows: list[dict]
    aggregate: dict


def build_benchmark(selector: str) -> Model:
    """Resolve a selector like ``msq:7``, ``knap-csp:1-4`` or
    ``knap-cop:/path/to/instance.txt``."""
    kind, sep, arg = selector.partition(":")
    if not sep:
        raise ValueError(f"benchmark selector {selector!r} needs a ':<arg>' part")
    if kind == "msq":
        return build_magic_square(int(arg))
    if kind in ("knap-csp", "knap-cop"):
        if arg in BUNDLED_KNAPSACKS:
            inst = load_bundled_instance(arg)
        else:
            inst = parse_knapsack_file(arg)
        return build_knapsack_csp(inst) if kind == "knap-csp" else build_knapsack_cop(inst)
    raise ValueError(f"unknown benchmark kind {kind!r} in {selector!r}")


def parse_restart(text: str) -> RestartPolicy:
    if text == "nr":
        return RestartPolicy.none()
    if text.startswith("geo:"):
        return RestartPolicy.geometric(float(text[4:]))
    raise ValueError(f"restart must be 'nr' or 'geo:RHO', got {text!r}")


def run_single(config: RunConfig, run_id: int, seed: int) -> dict:
    """One independent solve; safe to call in a worker process.  A build or
    solve that raises gives a ``status=error`` row with the seconds until
    the exception, no counts, and the exception's repr under ``error``,
    which is not a CSV column."""
    start = time.perf_counter()
    try:
        model = build_benchmark(config.bench)
        stats = solve(
            model,
            config,
            restart=parse_restart(config.restart),
            seed=seed,
            timeout=config.timeout,
        )
    except Exception as exc:  # one broken run must not end the experiment
        return _error_row(run_id, seed, start, exc)
    return {
        "run_id": run_id,
        "seed": seed,
        "status": stats.status.value,
        # rounded at the source so rows, aggregates and CSV agree exactly
        "time_s": round(stats.wall_time, 6),
        "choice_points": stats.choice_points,
        "failures": stats.failures,
        "restarts": stats.restarts,
        "objective": stats.best_objective,
        "probes": stats.probes,
    }


def _error_row(run_id: int, seed: int, start: float, exc: BaseException) -> dict:
    """The row of a run that raised ``exc``; ``start`` is the
    ``time.perf_counter()`` reading when the run began."""
    return {"run_id": run_id, "seed": seed, "status": ERROR,
            "time_s": round(time.perf_counter() - start, 6), "error": repr(exc)}


def _thread_budget(config: RunConfig) -> int:
    cap = os.cpu_count() or 1
    if config.threads is not None:
        cap = min(cap, config.threads)
    return min(cap, config.runs)


def aggregate_rows(rows: Sequence[dict], timeout: float) -> dict:
    """Recompute the aggregate row from per-run rows, of which there is at
    least one (``RunConfig`` rejects ``runs < 1``).  The count means and
    ``med_probes`` are over the runs that did not raise (0.0 if none did)."""
    import statistics

    unfinished = (Status.TIMED_OUT.value, ERROR)
    times = [
        timeout if row["status"] in unfinished else row["time_s"] for row in rows
    ]
    counted = [row for row in rows if row["status"] != ERROR]
    n = len(rows)
    if n >= 2:
        q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
        sigma = statistics.stdev(times)
    else:
        q1 = q2 = q3 = times[0]
        sigma = 0.0
    return {
        "mu_time_s": statistics.fmean(times),
        "sigma_time_s": sigma,
        "mu_choice_points": statistics.fmean([r["choice_points"] for r in counted] or [0.0]),
        "mu_failures": statistics.fmean([r["failures"] for r in counted] or [0.0]),
        "n_success": sum(1 for r in rows if r["status"] not in unfinished),
        "q0_time_s": min(times),
        "q1_time_s": q1,
        "q2_time_s": q2,
        "q3_time_s": q3,
        "q4_time_s": max(times),
        "med_probes": statistics.median([r["probes"] for r in counted] or [0.0]),
        "n_error": n - len(counted),
    }


def run_experiment(config: RunConfig) -> RunRecord:
    """Run ``config.runs`` independent solves with seeds seed..seed+runs-1,
    optionally in parallel; aggregation order is fixed by seed order, so the
    output is thread-count independent.  When a worker process dies, its
    run and every run the pool had not finished give error rows."""
    ids = range(config.runs)
    seeds = range(config.seed, config.seed + config.runs)
    workers = _thread_budget(config)
    if workers <= 1:
        rows = list(map(run_single, repeat(config), ids, seeds))
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        start = time.perf_counter()
        rows = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = list(map(pool.submit, repeat(run_single), repeat(config), ids, seeds))
            for future, run_id, seed in zip(futures, ids, seeds):
                try:
                    rows.append(future.result())
                except BrokenProcessPool as exc:
                    rows.append(_error_row(run_id, seed, start, exc))
    return RunRecord(config, rows, aggregate_rows(rows, config.timeout))


def write_rows(out: io.TextIOBase, record: RunRecord, prefix: dict | None = None) -> None:
    import csv

    # csv writes floats as repr and None as an empty cell
    writer = csv.writer(out, lineterminator="\n")
    lead = list((prefix or {}).values())
    for row in record.rows:
        writer.writerow(
            lead + [row.get(c) for c in RUN_COLUMNS[:-1]] + [0] + [None] * len(AGG_COLUMNS)
        )
    agg = record.aggregate
    writer.writerow(
        lead + [None] * (len(RUN_COLUMNS) - 1) + [1] + [agg[c] for c in AGG_COLUMNS]
    )


def write_csv(out: io.TextIOBase, record: RunRecord) -> None:
    out.write(",".join(HEADER) + "\n")
    write_rows(out, record)


def sweep(param: str, values: Sequence[float], config: RunConfig) -> list[RunRecord]:
    """Run one block per parameter value (``delta`` or ``gamma``)."""
    if param not in ("delta", "gamma"):
        raise ValueError(f"sweepable parameters are delta and gamma, not {param!r}")
    return [run_experiment(replace(config, **{param: v})) for v in values]


def dump_activities(config: RunConfig) -> list[tuple[int, float]]:
    """Run only the probing phase and return (variable, mean activity) rows,
    excluding variables fixed at the root by singleton consistency.  Raises
    TimeoutError when probing does not finish within ``config.timeout``."""
    model = build_benchmark(config.bench)
    activities, fixed, stats = probe_activities(
        model, replace(config, kind="abs"), seed=config.seed, timeout=config.timeout
    )
    if stats.status is Status.TIMED_OUT:
        raise TimeoutError("probing timed out")
    if activities is None:
        return []
    return [
        (x, activities[x]) for x in range(model.num_vars) if not fixed[x]
    ]


# -- command line --


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand takes."""
    parser.add_argument("--bench", required=True, help="msq:N | knap-csp:ID | knap-cop:ID")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--timeout", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")


def _open_out(path: Optional[str]):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline=""), True


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark harness for the finite-domain solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # an option left off the command line is absent from the parsed
    # namespace, so RunConfig holds the only defaults
    unset = argparse.SUPPRESS
    p_run = sub.add_parser("run", help="run one experiment", argument_default=unset)
    p_sweep = sub.add_parser(
        "sweep", help="parameter sensitivity sweep", argument_default=unset
    )
    p_act = sub.add_parser(
        "activities", help="dump root activity levels", argument_default=unset
    )
    for p in (p_run, p_sweep, p_act):
        _add_common(p)
    for p in (p_run, p_sweep):  # activities always probes with ABS
        p.add_argument("--heur", dest="kind", choices=tuple(HEURISTICS))
        p.add_argument("--restart", help="nr or geo:RHO")
        p.add_argument("--alpha", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--no-value-heur", dest="value_heuristic", action="store_false")
        p.add_argument("--runs", type=int)
        p.add_argument("--threads", type=int)
    p_sweep.add_argument("--param", required=True, choices=("delta", "gamma"))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    args = parser.parse_args(argv)
    names = {f.name for f in fields(RunConfig)}
    values: list[float] = []
    try:
        config = RunConfig(**{k: v for k, v in vars(args).items() if k in names})
        build_benchmark(config.bench)  # fail fast on bad selectors
        if args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v]
            if not values:
                raise ValueError("--values must list at least one number")
            for v in values:
                replace(config, **{args.param: v})  # RunConfig checks each value
    except (ValueError, OSError) as exc:
        parser.error(str(exc))  # exits with code 2

    try:  # TimeoutError is an OSError: a timed-out probe phase exits 1
        if args.command == "activities":
            rows = dump_activities(config)  # before --out opens: no file on failure
        out, close = _open_out(args.out)
        try:
            if args.command == "run":
                record = run_experiment(config)
                write_csv(out, record)
                _summary(record)
            elif args.command == "sweep":
                records = sweep(args.param, values, config)
                out.write(",".join(("param", "value") + HEADER) + "\n")
                for value, record in zip(values, records):
                    write_rows(out, record, prefix={"param": args.param, "value": value})
                    _summary(record, label=f"{args.param}={value}")
            else:
                out.write("var,activity\n")
                for var, act in rows:
                    out.write(f"{var},{act:.9g}\n")
        finally:
            if close:
                out.close()
    except OSError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


def _summary(record: RunRecord, label: str = "") -> None:
    for row in record.rows:
        if row["status"] == ERROR:
            print(
                f"# run {row['run_id']} (seed {row['seed']}): error: {row['error']}",
                file=sys.stderr,
            )
    agg, config = record.aggregate, record.config
    tag = f" [{label}]" if label else ""
    print(
        f"# {config.bench} {config.kind}|{config.restart}{tag}: "
        f"mu_T={agg['mu_time_s']:.3f}s sigma_T={agg['sigma_time_s']:.3f} "
        f"mu_C={agg['mu_choice_points']:.1f} F={agg['n_success']}/{len(record.rows)}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())

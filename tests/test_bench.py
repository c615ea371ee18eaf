import csv
import io
import multiprocessing
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import fdsearch.bench
from fdsearch.bench import (
    HEADER,
    RunConfig,
    aggregate_rows,
    build_benchmark,
    dump_activities,
    main,
    parse_restart,
    run_experiment,
    sweep,
    write_csv,
)


def small_config(**kw):
    base = dict(
        bench="msq:4", kind="abs", restart="geo:2.0",
        runs=3, timeout=20.0, seed=11, threads=1,
    )
    base.update(kw)
    return RunConfig(**base)


def csv_of(record):
    buf = io.StringIO()
    write_csv(buf, record)
    return buf.getvalue()


def fail_on_seed(monkeypatch, bad_seed):
    """Make ``bench``'s solve raise for one seed (serial runs only)."""
    real_solve = fdsearch.bench.solve

    def solve(model, heuristic, **kw):
        if kw["seed"] == bad_seed:
            raise RuntimeError("boom")
        return real_solve(model, heuristic, **kw)

    monkeypatch.setattr(fdsearch.bench, "solve", solve)


class TestSelectors:
    def test_magic_square_selector(self):
        assert build_benchmark("msq:5").num_vars == 25

    def test_knapsack_selectors(self):
        assert build_benchmark("knap-csp:1-2").num_vars == 10
        assert build_benchmark("knap-cop:1-2").num_vars == 11  # + objective

    def test_file_selector(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 1\n3 4\n1 1\n2\n7\n")
        assert build_benchmark(f"knap-csp:{path}").num_vars == 2

    def test_bad_selectors(self):
        with pytest.raises(ValueError):
            build_benchmark("msq7")
        with pytest.raises(ValueError):
            build_benchmark("nope:3")

    def test_restart_parsing(self):
        assert parse_restart("nr").enabled is False
        assert parse_restart("geo:1.5").rho == 1.5
        with pytest.raises(ValueError):
            parse_restart("luby:1")


class TestRunExperiment:
    def test_rows_and_seeds(self):
        record = run_experiment(small_config())
        assert [r["seed"] for r in record.rows] == [11, 12, 13]
        assert all(r["status"] == "solution" for r in record.rows)

    def test_determinism_modulo_wall_time(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        strip = lambda row: {k: v for k, v in row.items() if k != "time_s"}
        assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]

    def test_thread_count_does_not_change_results(self):
        a = run_experiment(small_config(threads=2))
        b = run_experiment(small_config(threads=1))
        strip = lambda row: {k: v for k, v in row.items() if k != "time_s"}
        assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]

    def test_aggregate_row_consistency(self):
        record = run_experiment(small_config())
        text = csv_of(record)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["run_id"] == "0"
        per_run = [r for r in rows if r["agg"] == "0"]
        agg = [r for r in rows if r["agg"] == "1"]
        assert len(per_run) == 3 and len(agg) == 1
        times = [float(r["time_s"]) for r in per_run]
        assert abs(statistics.fmean(times) - float(agg[0]["mu_time_s"])) < 1e-9
        assert (
            abs(statistics.fmean(int(r["choice_points"]) for r in per_run)
                - float(agg[0]["mu_choice_points"])) < 1e-9
        )

    def test_timeouts_clamp_time_aggregates(self):
        rows = [
            {"status": "timeout", "time_s": 1.02, "choice_points": 5, "failures": 4,
             "restarts": 0, "probes": 0},
            {"status": "timeout", "time_s": 1.01, "choice_points": 7, "failures": 6,
             "restarts": 0, "probes": 0},
            {"status": "timeout", "time_s": 1.03, "choice_points": 6, "failures": 5,
             "restarts": 0, "probes": 0},
        ]
        agg = aggregate_rows(rows, timeout=1.0)
        assert agg["mu_time_s"] == pytest.approx(1.0)
        assert agg["sigma_time_s"] == pytest.approx(0.0)
        assert agg["n_success"] == 0

    def test_success_counting_mixed(self):
        rows = [
            {"status": "solution", "time_s": 0.5, "choice_points": 5, "failures": 0,
             "restarts": 0, "probes": 2},
            {"status": "timeout", "time_s": 2.01, "choice_points": 9, "failures": 9,
             "restarts": 1, "probes": 2},
        ]
        agg = aggregate_rows(rows, timeout=2.0)
        assert agg["n_success"] == 1
        assert agg["mu_time_s"] == pytest.approx(1.25)
        assert agg["n_error"] == 0

    def test_error_rows_count_as_timeouts_in_time_only(self):
        rows = [
            {"status": "solution", "time_s": 0.5, "choice_points": 4, "failures": 1,
             "restarts": 0, "probes": 3},
            {"status": "error", "time_s": 0.01, "error": "RuntimeError('boom')"},
            {"status": "timeout", "time_s": 2.01, "choice_points": 8, "failures": 7,
             "restarts": 1, "probes": 5},
        ]
        agg = aggregate_rows(rows, timeout=2.0)
        assert agg["mu_time_s"] == pytest.approx((0.5 + 2.0 + 2.0) / 3)
        assert agg["q4_time_s"] == 2.0
        assert agg["mu_choice_points"] == pytest.approx(6.0)
        assert agg["mu_failures"] == pytest.approx(4.0)
        assert agg["med_probes"] == 4.0
        assert agg["n_success"] == 1
        assert agg["n_error"] == 1

    def test_all_runs_raising_still_aggregates(self):
        rows = [{"status": "error", "time_s": 0.01, "error": "ValueError()"}]
        agg = aggregate_rows(rows, timeout=3.0)
        assert agg["mu_time_s"] == 3.0 and agg["sigma_time_s"] == 0.0
        assert agg["mu_choice_points"] == 0.0 and agg["med_probes"] == 0.0
        assert agg["n_success"] == 0 and agg["n_error"] == 1

    def test_raising_run_does_not_stop_the_experiment(self, monkeypatch):
        fail_on_seed(monkeypatch, bad_seed=1)
        record = run_experiment(
            RunConfig(bench="msq:4", runs=3, threads=1, timeout=5)
        )
        assert [r["status"] for r in record.rows] == ["solution", "error", "solution"]
        bad = record.rows[1]
        assert bad["seed"] == 1 and bad["error"] == "RuntimeError('boom')"
        assert bad["time_s"] >= 0.0 and "choice_points" not in bad
        assert record.aggregate["n_success"] == 2
        assert record.aggregate["n_error"] == 1
        lines = csv_of(record).splitlines()
        assert lines[2].startswith("1,1,error,")
        assert lines[2].split(",")[4:9] == [""] * 5  # no counts, no objective

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched solve reaches the workers only through fork",
    )
    def test_dying_worker_gives_error_rows(self, monkeypatch):
        """A worker that dies outright breaks the pool: its run and each run
        the pool had not finished give an error row, and the finished rows
        are kept."""
        real_solve = fdsearch.bench.solve

        def solve(model, heuristic, **kw):
            if kw["seed"] == 1:
                os._exit(1)
            return real_solve(model, heuristic, **kw)

        monkeypatch.setattr(fdsearch.bench, "solve", solve)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one core
        record = run_experiment(RunConfig(bench="msq:4", runs=4, threads=2, timeout=5))
        assert [(r["run_id"], r["seed"]) for r in record.rows] == [(i, i) for i in range(4)]
        assert "BrokenProcessPool" in record.rows[1]["error"]
        assert {r["status"] for r in record.rows} <= {"solution", "error"}
        assert record.aggregate["n_error"] == sum(r["status"] == "error" for r in record.rows)

    def test_config_rejects_what_the_cli_rejects(self):
        for bad in (
            dict(timeout=-1), dict(runs=0), dict(threads=0),
            dict(restart="geo:0.5"), dict(kind="xyz"),
        ):
            with pytest.raises(ValueError):
                RunConfig(bench="msq:4", **bad)


class TestSweep:
    def test_single_value_sweep_equals_run(self):
        cfg = small_config()
        records = sweep("delta", [0.2], cfg)
        assert len(records) == 1
        base = run_experiment(cfg)
        strip = lambda row: {k: v for k, v in row.items() if k != "time_s"}
        assert [strip(r) for r in records[0].rows] == [strip(r) for r in base.rows]

    def test_sweep_blocks_per_value(self):
        records = sweep("gamma", [0.999, 0.5], small_config(runs=2))
        assert len(records) == 2
        assert records[0].config.gamma == 0.999
        assert records[1].config.gamma == 0.5

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep("alpha", [1.0], small_config())


class TestActivitiesDump:
    def test_magic_square_rows(self):
        rows = dump_activities(small_config(bench="msq:5", seed=3))
        assert 0 < len(rows) <= 25
        assert all(act >= 0.0 for _, act in rows)

    def test_deterministic_per_seed(self):
        a = dump_activities(small_config(bench="msq:5", seed=3))
        b = dump_activities(small_config(bench="msq:5", seed=3))
        assert a == b

    def test_root_failure_gives_no_rows(self, tmp_path):
        path = tmp_path / "overfull.txt"
        path.write_text("1 1\n5\n3\n-1\n0\n")  # weight 3 within capacity -1
        assert dump_activities(small_config(bench=f"knap-csp:{path}")) == []

    def test_empty_model(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n0\n")  # no items, optimum 0
        rows = dump_activities(small_config(bench=f"knap-csp:{path}", seed=1))
        assert rows == []


class TestCli:
    def test_run_writes_csv_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main([
            "run", "--bench", "msq:4", "--heur", "wdeg", "--restart", "nr",
            "--runs", "2", "--timeout", "15", "--seed", "3", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(HEADER)
        assert len(lines) == 4  # header + 2 runs + aggregate

    def test_run_without_out_writes_csv_to_stdout(self, capsys):
        code = main([
            "run", "--bench", "msq:4", "--heur", "ibs", "--runs", "2",
            "--timeout", "15", "--seed", "3", "--threads", "1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(HEADER)
        assert len(lines) == 4  # header + 2 runs + aggregate
        assert captured.err.startswith("# msq:4 ibs|nr: ")

    def test_exit_zero_even_when_all_runs_time_out(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "run", "--bench", "msq:6", "--heur", "wdeg", "--restart", "nr",
            "--runs", "1", "--timeout", "0.2", "--seed", "0", "--threads", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert "timeout" in out.read_text()

    def test_raising_run_reported_on_stderr_exit_zero(self, tmp_path, capsys, monkeypatch):
        fail_on_seed(monkeypatch, bad_seed=4)
        out = tmp_path / "e.csv"
        code = main([
            "run", "--bench", "msq:4", "--runs", "2", "--timeout", "15",
            "--seed", "3", "--threads", "1", "--out", str(out),
        ])
        assert code == 0
        assert "# run 1 (seed 4): error: RuntimeError('boom')" in capsys.readouterr().err
        rows = list(csv.DictReader(out.open()))
        assert [r["status"] for r in rows] == ["solution", "error", ""]
        assert rows[-1]["n_error"] == "1" and rows[-1]["n_success"] == "1"
        assert HEADER[-1] == "n_error"

    def test_usage_error_exit_code_two(self, tmp_path):
        out = tmp_path / "never.csv"
        for argv in (
            ["run", "--bench", "nope:1", "--runs", "1"],
            ["run", "--bench", "msq:4", "--runs", "0"],
            ["run", "--bench", "msq:4", "--runs", "-3"],
            ["run", "--bench", "msq:4", "--timeout", "-1"],
            ["run", "--bench", "msq:4", "--timeout", "0"],
            ["run", "--bench", "msq:4", "--heur", "abs", "--alpha", "nan"],
            ["run", "--bench", "msq:4", "--heur", "ibs", "--alpha", "inf"],
            ["run", "--bench", "msq:4", "--runs", "1", "--threads", "0"],
            ["run", "--bench", "msq:4", "--runs", "1", "--threads", "-2"],
            ["sweep", "--param", "delta", "--values", "0.2", "--bench", "msq:4",
             "--runs", "1", "--threads", "0"],
            ["sweep", "--param", "delta", "--values", "0.2", "--bench", "msq:4",
             "--runs", "0"],
            ["activities", "--bench", "msq:4", "--timeout", "0"],
            # activities always probes with ABS: the solve-only flags are errors
            ["activities", "--bench", "msq:4", "--heur", "wdeg"],
            ["activities", "--bench", "msq:4", "--restart", "geo:2"],
            ["activities", "--bench", "msq:4", "--runs", "7"],
            ["activities", "--bench", "msq:4", "--threads", "1"],
            ["activities", "--bench", "msq:4", "--no-value-heur"],
            ["activities", "--bench", "msq:4", "--alpha", "4"],
            ["activities", "--bench", "msq:4", "--gamma", "0.9"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2, argv
            assert not out.exists(), argv  # rejected before any solve

    def test_bad_restart_exit_code_two(self):
        for restart in ("sometimes", "geo:nan", "geo:inf"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--bench", "msq:4", "--restart", restart])
            assert exc.value.code == 2, restart

    def test_sweep_bad_values_exit_code_two(self, tmp_path):
        out = tmp_path / "never.csv"
        for param, values in (
            ("delta", "0.2,abc"), ("delta", "0.2,1.5"), ("gamma", "0.5,-1"), ("delta", ","),
        ):
            with pytest.raises(SystemExit) as exc:
                main([
                    "sweep", "--param", param, "--values", values, "--bench", "msq:4",
                    "--runs", "1", "--threads", "1", "--out", str(out),
                ])
            assert exc.value.code == 2, values
            assert not out.exists(), values  # no block ran

    def test_sweep_csv_has_param_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--param", "delta", "--values", "0.8,0.2",
            "--bench", "msq:4", "--runs", "1", "--timeout", "15",
            "--seed", "1", "--threads", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,value,")
        assert sum(1 for l in lines if l.startswith("delta,0.8")) == 2

    def test_activities_command(self, tmp_path):
        out = tmp_path / "a.csv"
        code = main([
            "activities", "--bench", "msq:5", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "var,activity"
        assert len(lines) > 1

    def test_activities_timeout_exits_one_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main([
            "activities", "--bench", "msq:8", "--timeout", "0.001", "--out", str(out),
        ])
        assert code == 1
        assert "bench: probing timed out" in capsys.readouterr().err
        assert not out.exists()


class TestColdStart:
    def test_import_and_build_load_no_runner_modules(self):
        """Building and solving a model loads none of the modules that only
        the experiment runner uses; they are imported where they run."""
        root = Path(__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "import fdsearch, fdsearch.bench as b\n"
            "for s in ('msq:7', 'knap-cop:1-4', 'knap-csp:1-4'):\n"
            "    model = b.build_benchmark(s)\n"
            "b.solve(model, 'abs', restart=b.parse_restart('geo:1.1'), max_failures=5)\n"
            "runner_only = ('concurrent.futures', 'multiprocessing', 'argparse',\n"
            "               'csv', 'statistics', 'logging')\n"
            "print(' '.join(m for m in runner_only if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=root,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""

"""``tools/trace_diff.py``'s exit codes on small hand-written result lines,
``tools/surface.py``'s counts on a tiny package, ``tools/linehits.py``'s
collection and report on a tiny module, ``tools/tree_digest.py`` on the
package and on a copy that branches differently, ``tools/opcount.py``'s
counts on one small solve, ``tools/ab.py`` on a copy whose trees differ
from their pins, ``tools/revs.py``'s loader and the REV usage errors of
every tool that takes one, and a check for unused imports."""

import ast
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import linehits  # noqa: E402
import opcount  # noqa: E402
import revs  # noqa: E402
import trace_diff  # noqa: E402


def result(metrics):
    """A result line holding ``{name: (value, unit)}`` metrics."""
    return {
        "correct": True, "attempted": 36, "failed": 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


BASE = {
    "engine.fixpoints": (1200, "count"),
    "propagators.linear_leq.prune_ratio": (0.05, "ratio"),
    "trace.overhead_ratio": (0.5, "ratio"),
    "engine.self_s": (0.7, "s"),
}


@pytest.fixture
def write(tmp_path):
    def write(name, content):
        path = tmp_path / name
        if not isinstance(content, str):
            content = "some log line\n" + json.dumps(content) + "\n\n"
        path.write_text(content)
        return str(path)

    return write


def test_equal_lines_exit_zero(write, capsys):
    assert trace_diff.main([write("a", result(BASE)), write("b", result(BASE))]) == 0
    assert "0 differ" in capsys.readouterr().out


def test_a_differing_count_exits_one_and_is_named(write, capsys):
    moved = {**BASE, "engine.fixpoints": (1201, "count")}
    assert trace_diff.main([write("a", result(BASE)), write("b", result(moved))]) == 1
    out = capsys.readouterr().out
    assert "engine.fixpoints: 1200 -> 1201" in out
    assert "1 differ" in out


def test_times_and_the_overhead_ratio_are_not_compared(write):
    moved = {**BASE, "trace.overhead_ratio": (0.9, "ratio"), "engine.self_s": (0.4, "s")}
    assert trace_diff.main([write("a", result(BASE)), write("b", result(moved))]) == 0


def test_a_metric_in_one_file_only_exits_one(write, capsys):
    extra = {**BASE, "search.failures": (7, "count")}
    assert trace_diff.main([write("a", result(BASE)), write("b", result(extra))]) == 1
    assert "search.failures: missing -> 7" in capsys.readouterr().out


@pytest.mark.parametrize("count", (0, 1, 3))
def test_wrong_argument_count_exits_two(write, count):
    assert trace_diff.main([write("a", result(BASE))] * count) == 2


@pytest.mark.parametrize("content", (None, "", "\n\n", "hello\n", "[1, 2]\n"))
def test_bad_file_exits_two_naming_it(write, tmp_path, capsys, content):
    good = write("good", result(BASE))
    bad = str(tmp_path / "missing") if content is None else write("bad", content)
    assert trace_diff.main([good, bad]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and bad in err


def test_surface_counts_lines_code_lines_and_exports(tmp_path):
    """14 lines: 7 of code, 3 of docstrings, 2 of comments alone and 2
    blank, and one export.  A string that is not a whole statement is
    code."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        '"""A tiny\npackage."""\n'
        "\n"
        "# re-exported\n"
        "from .mod import f\n"
        "\n"
        "__all__ = [\n"
        '    "f",\n'
        "]\n"
    )
    (pkg / "mod.py").write_text(
        "def f(x):\n"
        '    """Return x plus 15."""\n'
        '    y = "not a docstring"  # a trailing comment\n'
        "    return x + len(y)\n"
        "# end\n"
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "surface.py"), str(tmp_path / "src")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == ["lines 14", "code 7", "exports pkg 1"]


TWO_FUNCTIONS = (
    '"""A module of two functions."""\n'
    "\n"
    "\n"
    "def used(x):\n"
    "    if x < 0:\n"
    "        return -x\n"
    "    return x\n"
    "\n"
    "\n"
    "def unused():\n"
    '    """Never called."""\n'
    "    raise NotImplementedError\n"
)


def test_linehits_lists_the_lines_no_call_ran(tmp_path):
    """``used(3)`` runs every line but the negative branch; ``unused`` is
    defined but never called.  The tracer is on only while the module is
    imported and ``used`` runs."""
    path = tmp_path / "two.py"
    path.write_text(TWO_FUNCTIONS)
    assert linehits.executable_lines(path) == {1, 4, 5, 6, 7, 10, 12}
    spec = importlib.util.spec_from_file_location("two", path)
    module = importlib.util.module_from_spec(spec)
    with linehits.LineTracer([path]) as tracer:
        spec.loader.exec_module(module)
        module.used(3)
    module.used(-3)  # after the tracer: not counted
    assert tracer.hits == {path.resolve(): {1, 4, 5, 7, 10}}
    missed = linehits.never_run(tracer.hits)
    assert missed == [
        (path.resolve(), 6, "return -x"),
        (path.resolve(), 12, "raise NotImplementedError"),
    ]
    out = io.StringIO()
    assert linehits.report(missed, out) is False  # "return -x" is not allowed
    assert out.getvalue().splitlines() == [
        f"{path.resolve()}:6: return -x",
        f"{path.resolve()}:12: raise NotImplementedError",
        "never-run 2",
    ]
    out = io.StringIO()
    assert linehits.report(missed[1:], out) is True
    assert out.getvalue().splitlines()[-1] == "never-run 1"


def unused_imports(source):
    """The names ``source`` imports, other than from ``__future__``, that
    no ``Name`` node reads and that ``__all__`` does not list."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def run_tree_digest(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tree_digest.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_tree_digest_matches_the_committed_digests():
    done = run_tree_digest("--check")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "differs" not in done.stdout


@pytest.fixture
def largest_value_copy(tmp_path):
    """A directory holding a copy of the package whose default value
    choice is the largest value, not the least."""
    shutil.copytree(ROOT / "src" / "fdsearch", tmp_path / "fdsearch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "fdsearch" / "heuristics.py"
    source = path.read_text()
    assert source.count("return store.domains[x].min") == 1
    path.write_text(source.replace("return store.domains[x].min", "return store.domains[x].max"))
    return tmp_path


def test_tree_digest_tells_a_changed_tree(largest_value_copy):
    """The copy explores other trees: every digest differs."""
    done = run_tree_digest(str(largest_value_copy), "--check")
    assert done.returncode == 1
    assert done.stdout.count("differs: ") == 3


def test_ab_exits_one_on_a_tree_that_differs_from_its_pin(largest_value_copy):
    """The repository's package against the copy: the copy's first wdeg
    solve leaves its pinned tree, and the run stops there with exit 1."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT / "src"),
         str(largest_value_copy), "--workload", "knap-csp", "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1
    assert f"{largest_value_copy} wdeg:" in done.stderr and "!= pinned" in done.stderr
    assert done.stdout == ""


@pytest.mark.skipif(
    subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                   capture_output=True).returncode != 0,
    reason="not a git checkout",
)
def test_load_imports_a_git_revision_under_its_own_name(tmp_path):
    package = revs.load(revs.source("HEAD", tmp_path), "rev_head")
    assert package.__name__ == "rev_head" and sys.modules["rev_head"] is package
    assert Path(package.__file__).parent == (tmp_path / "src" / "fdsearch").resolve()
    assert callable(package.solve) and callable(package.bench.build_benchmark)


SRC = str(ROOT / "src")  # a partner REV that needs no git
REV_TOOLS = {
    "ab.py A": ["ab.py", "{rev}", SRC, "--workload", "knap-csp"],
    "ab.py B": ["ab.py", SRC, "{rev}", "--workload", "knap-csp"],
    "opcount.py": ["opcount.py", "--workload", "knap-csp", "{rev}"],
    "tree_digest.py": ["tree_digest.py", "{rev}"],
    "surface.py": ["surface.py", "{rev}"],
}


@pytest.mark.parametrize("tool, rev", [
    (tool, rev) for tool in REV_TOOLS for rev in ("nosuchrev", "missing", "empty")
    if (tool, rev) != ("surface.py", "empty")  # it measures a directory of any packages
])
def test_an_unknown_rev_is_a_usage_error(tmp_path, tool, rev):
    """A REV that is neither a directory nor a git revision, or a directory
    without the package, exits 2 with one line that names it, before any
    solve."""
    if rev != "nosuchrev":
        rev = str(tmp_path / rev)
    if rev.endswith("empty"):
        Path(rev).mkdir()
    script, *args = REV_TOOLS[tool]
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *(a.format(rev=rev) for a in args)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    err = done.stderr.strip()
    assert len(err.splitlines()) == 1 and rev in err


def test_opcount_gives_the_same_counts_twice():
    """The opcode counts of one small solve repeat exactly, and they cover
    the engine, the filters and the store, not the tool's own frames.  A
    first untraced solve grows the process-wide table of logarithms, so
    neither counted solve grows it; the tool counts in a fresh process,
    where every run grows it alike."""
    import fdsearch
    from fdsearch.bench import build_benchmark

    model = build_benchmark("msq:3")
    package = Path(fdsearch.__file__).parent

    def run():
        fdsearch.solve(model, "abs", seed=1, max_failures=20)

    run()
    runs = [opcount.count_opcodes(package, run) for _ in range(2)]
    assert runs[0] == runs[1]
    assert {"engine.Engine.propagate", "propagators._Linear.propagate",
            "domain.DomainStore.restore_to"} <= runs[0].keys()
    assert not any(name.startswith("opcount") for name in runs[0])


def test_unused_imports_finds_what_nothing_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from math import pi as PI, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(os.path.sep, PI)\n"
    )
    assert unused_imports(source) == ["sys", "tau"]


def test_no_unused_imports():
    """Over the package, its tests, tools and demos; the benchmark harness
    under ``perfbench/`` is left out."""
    found = {
        str(path.relative_to(ROOT)): names
        for folder in ("src", "tests", "tools", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}

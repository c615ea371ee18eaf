"""``perfbench/spans.py`` reports every propagator kind under its own name,
and names and restores the same heuristic kinds as the package."""

import ast
import importlib.util
from pathlib import Path

import fdsearch
from fdsearch import BinaryKnapsackAtmost, BinaryLess, LinearLeq, solve
from fdsearch.bench import build_benchmark
from fdsearch.heuristics import HEURISTICS
from fdsearch.propagators import _Linear

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_rows_are_traced_under_their_own_kinds():
    """The knapsack and ``x < y`` are ``<=`` rows that inherit
    ``_Linear.propagate``.  Their calls must show under their own kinds,
    not under ``linear_leq``, which neither model posts, and the uninstall
    must leave both classes with the unwrapped inherited method."""
    rec = spans.Recorder()
    uninstall = spans.install(fdsearch, rec)
    try:
        solve(build_benchmark("msq:4"), "wdeg", seed=0, max_failures=50)
        solve(build_benchmark("knap-cop:1-2"), "wdeg", seed=0, max_failures=50)
    finally:
        uninstall()
    totals = spans.summarize(rec.names, rec.arrays(), lambda sid: 0)[0]
    for kind in ("binary_less", "binary_knapsack_atmost", "linear_eq"):
        assert totals[f"propagators.{kind}"].calls > 0
    assert totals["propagators.binary_knapsack_atmost"].pruned > 0
    assert "propagators.linear_leq" not in totals
    for cls in (BinaryLess, BinaryKnapsackAtmost, LinearLeq):
        assert "propagate" not in cls.__dict__
        assert cls.propagate is _Linear.propagate


def test_benchmark_names_the_package_heuristics():
    """The benchmark states the heuristic kinds, and the span table their
    classes, apart from ``HEURISTICS``; a kind added to the package must be
    added there too, or it is neither run nor traced.  ``perfbench/run.py``
    is read, not imported: importing it loads the package from its own
    checkout."""
    assert spans.HEURISTIC_CLASSES == {k: cls.__name__ for k, cls in HEURISTICS.items()}
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    runs = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["HEURISTICS"]
    ]
    assert runs == [tuple(HEURISTICS)]


def test_uninstall_restores_the_heuristic_methods():
    """Inherited methods (wdeg's ``initialize`` and ``select_value``) are
    wrapped on the class itself and removed again by ``uninstall``."""
    wdeg = HEURISTICS["wdeg"]
    assert "initialize" not in wdeg.__dict__ and "select_value" not in wdeg.__dict__
    before = {
        (cls, m): getattr(cls, m)
        for cls in HEURISTICS.values() for m in spans.HEURISTIC_METHODS
    }
    own = {(cls, m) for cls, m in before if m in cls.__dict__}
    uninstall = spans.install(fdsearch, spans.Recorder())
    assert all(getattr(cls, m) is not fn for (cls, m), fn in before.items())
    uninstall()
    assert {(cls, m): getattr(cls, m) for cls, m in before} == before
    assert {(cls, m) for cls, m in before if m in cls.__dict__} == own

"""``perfbench/spans.py`` reports every propagator kind under its own name."""

import importlib.util
from pathlib import Path

import fdsearch
from fdsearch import BinaryKnapsackAtmost, BinaryLess, LinearLeq, solve
from fdsearch.bench import build_benchmark
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

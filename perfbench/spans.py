"""Spans around fdsearch's layers, recorded from outside the package.

``install`` replaces public methods of the solver's classes with wrappers
that record one span per call: name, start, end, parent span and the id
of the solve it belongs to, plus a small integer outcome.  The calls that
are too frequent and too cheap for a span (domain shrink operations,
``push_level`` and the trail entries a restore undoes) are only counted.
Spans live in flat arrays in memory; ``Recorder.write`` saves them when
the run ends and ``read_spans`` loads them back.  Self time is a span's
duration minus the time covered by its child spans.

The wrappers only observe: they pass arguments and results through
unchanged, so a traced solve explores the same tree as an untraced one.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

# span outcomes (the ``aux`` field)
NO_CHANGE, PRUNED, FAILED = 0, 1, 2

HEURISTIC_CLASSES = {
    "abs": "ActivitySearch",
    "ibs": "ImpactSearch",
    "wdeg": "WeightedDegreeSearch",
}
HEURISTIC_METHODS = ("initialize", "select_variable", "select_value", "on_search_fixpoint")
PROPAGATOR_CLASSES = (
    "LinearEq", "LinearLeq", "AllDifferent",
    "BinaryLess", "BinaryKnapsackAtmost", "ObjectiveBound",
)
SHRINK_OPS = ("assign", "remove_value", "remove_bits", "tighten_min", "tighten_max")

_FIELDS = (("name", "i"), ("parent", "i"), ("solve", "i"),
           ("start", "d"), ("end", "d"), ("aux", "i"))


def _propagator_outcome(args, changed) -> int:
    if changed is None:
        return FAILED
    return PRUNED if changed else NO_CHANGE


def _fixpoint_outcome(args, result) -> int:
    if result.failed is not None:
        return FAILED
    return PRUNED if result.affected else NO_CHANGE


class Recorder:
    """Flat, append-only span storage plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for field, code in _FIELDS:
            setattr(self, field, array(code))
        self.stack = [-1]
        self.solve_id = -1
        self.counters: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> dict[str, array]:
        return {field: getattr(self, field) for field, _ in _FIELDS}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def counter(self, name: str) -> list[int]:
        """A one-element list the wrappers increment in place."""
        return self.counters.setdefault(name, [0])

    def wrap(self, fn, name: str, outcome=None):
        """``fn`` with a span around every call; ``outcome(args, result)``
        gives the span's aux value."""
        nid = self.name_id(name)
        names, parents, solves = self.name, self.parent, self.solve
        starts, ends, auxs = self.start, self.end, self.aux
        stack = self.stack
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            solves.append(rec.solve_id)
            starts.append(0.0)
            ends.append(0.0)
            auxs.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if outcome is not None:
                auxs[i] = outcome(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then the span arrays in ``_FIELDS`` order
        (native byte order, ``len(self)`` items each)."""
        header = dict(meta, names=self.names, count=len(self),
                      fields=[list(f) for f in _FIELDS],
                      counters={k: v[0] for k, v in self.counters.items()})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self.arrays().values():
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Inverse of ``Recorder.write``: (header, field name -> array)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[field] = arr
    return header, arrays


def _count_calls(fn, calls: list[int]):
    def counted(*args):
        calls[0] += 1
        return fn(*args)

    counted.__wrapped__ = fn
    return counted


def _count_shrinks(fn, calls: list[int], shrunk: list[int], SHRUNK):
    def counted(*args):
        out = fn(*args)
        calls[0] += 1
        if out is SHRUNK:
            shrunk[0] += 1
        return out

    counted.__wrapped__ = fn
    return counted


def _count_restored(fn, restored: list[int]):
    def counted(*args):
        undo = fn(*args)
        restored[0] += len(undo)
        return undo

    counted.__wrapped__ = fn
    return counted


def install(fd, rec: Recorder):
    """Wrap the layers of the imported package ``fd``; returns a function
    that puts the original methods back."""
    domain, engine, heuristics, propagators = fd.domain, fd.engine, fd.heuristics, fd.propagators
    patches = []  # (class, attribute, wrapper)
    patches.append((engine.Engine, "propagate", rec.wrap(
        engine.Engine.propagate, "engine.propagate", _fixpoint_outcome)))
    for cls_name in PROPAGATOR_CLASSES:
        cls = getattr(propagators, cls_name)
        patches.append((cls, "propagate", rec.wrap(
            cls.propagate, f"propagators.{cls.kind}", _propagator_outcome)))
    store = domain.DomainStore
    patches.append((store, "restore_to", rec.wrap(store.restore_to, "domain.restore_to")))
    patches.append((store, "search_space_log_size", rec.wrap(
        store.search_space_log_size, "domain.search_space_log_size")))
    patches.append((store, "push_level", _count_calls(
        store.push_level, rec.counter("domain.push_level.calls"))))
    calls, shrunk = rec.counter("domain.shrink_ops"), rec.counter("domain.shrunk")
    for op in SHRINK_OPS:
        patches.append((store, op, _count_shrinks(
            getattr(store, op), calls, shrunk, domain.SHRUNK)))
    patches.append((domain.Trail, "pop_to", _count_restored(
        domain.Trail.pop_to, rec.counter("domain.trail_entries_restored"))))
    for kind, cls_name in HEURISTIC_CLASSES.items():
        cls = getattr(heuristics, cls_name)
        for method in HEURISTIC_METHODS:
            patches.append((cls, method, rec.wrap(
                getattr(cls, method), f"heuristics.{kind}.{method}")))

    saved = [(cls, attr, cls.__dict__.get(attr)) for cls, attr, _ in patches]
    for cls, attr, wrapper in patches:
        setattr(cls, attr, wrapper)

    def uninstall() -> None:
        for cls, attr, original in reversed(saved):
            if original is None:
                delattr(cls, attr)  # the method was inherited
            else:
                setattr(cls, attr, original)

    return uninstall


class Totals:
    """Aggregate of the spans of one name."""

    __slots__ = ("calls", "total_s", "self_s", "pruned", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.pruned = 0
        self.failed = 0


def summarize(names: list[str], arrays: dict[str, array], group_of_solve) -> dict:
    """Totals per span name, per group: ``group_of_solve(solve_id)`` maps a
    span's solve id (-1 outside solves) to its group, or None to drop it.

    A span's self time is its duration minus the durations of its direct
    children, which lie inside it because spans nest on one thread."""
    starts, ends, parents = arrays["start"], arrays["end"], arrays["parent"]
    own = array("d", (e - s for s, e in zip(starts, ends)))
    child = array("d", bytes(8 * len(own)))
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += own[i]
    groups: dict = {}
    for i, (nid, sid, aux) in enumerate(zip(arrays["name"], arrays["solve"], arrays["aux"])):
        group = group_of_solve(sid)
        if group is None:
            continue
        by_name = groups.setdefault(group, {})
        t = by_name.get(names[nid])
        if t is None:
            t = by_name[names[nid]] = Totals()
        t.calls += 1
        t.total_s += own[i]
        t.self_s += own[i] - child[i]
        if aux == PRUNED:
            t.pruned += 1
        elif aux == FAILED:
            t.failed += 1
    return groups

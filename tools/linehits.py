#!/usr/bin/env python3
"""List the lines of the package that the tests never run.

    python3 tools/linehits.py

Installs a line tracer limited to ``src/fdsearch/*.py`` before anything
imports ``fdsearch``, then runs the tests in this process with hypothesis
seeded to 0 and acceptance criterion 5, the slowest test, deselected
for time.  Prints each executable line that never ran as
``path:line: text`` and ends with ``never-run N``.  The executable lines
are those the compiled code objects map instructions to (``co_lines()``).
Code run in a child process is not seen.

Exits 1 when pytest fails, when ``fdsearch`` is imported from somewhere
else, or when a never-run line's text is not in ``ALLOWED``: a line that
no test can reach in this process.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Iterable, TextIO

from revs import ROOT, load

PACKAGE = ROOT / "src" / "fdsearch"
PYTEST_ARGS = [
    "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
    "-k", "not criterion_5", "tests",
]
ALLOWED = frozenset({
    "import argparse",  # under TYPE_CHECKING
    "sys.exit(main())",  # a module run as a script, in a child process
    "raise NotImplementedError",  # a base-class method every subclass defines
})


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some instruction of ``path``'s code maps to;
    line 0, which a module's first instruction has from 3.11 on, is left
    out."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineTracer:
    """Record the lines run in ``paths`` while the context is open, on this
    thread and on threads started meanwhile; ``hits`` maps each path to
    its line numbers.  The previous trace functions are put back on exit."""

    def __init__(self, paths: Iterable[Path]):
        self.hits: dict[Path, set[int]] = {Path(p).resolve(): set() for p in paths}
        self._local: dict[str, object] = {}  # co_filename -> local tracer or None

    def _tracer(self, hits: set[int]):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self._local[name]
        except KeyError:
            hits = self.hits.get(Path(os.path.realpath(name)))
            local = self._local[name] = None if hits is None else self._tracer(hits)
            return local

    def __enter__(self) -> "LineTracer":
        self._saved = sys.gettrace(), threading.gettrace()
        sys.settrace(self._global)
        threading.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def never_run(hits: dict[Path, set[int]]) -> list[tuple[Path, int, str]]:
    """``(path, line, stripped text)`` for each executable line not in
    ``hits``, by path and line."""
    missed = []
    for path in sorted(hits):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits[path]):
            missed.append((path, line, text[line - 1].strip()))
    return missed


def report(missed: list[tuple[Path, int, str]], out: TextIO) -> bool:
    """Print the never-run lines and their count; True when every one of
    them is allowed."""
    for path, line, text in missed:
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        out.write(f"{shown}:{line}: {text}\n")
    out.write(f"never-run {len(missed)}\n")
    return all(text in ALLOWED for _, _, text in missed)


def main() -> int:
    if "fdsearch" in sys.modules:
        print("fdsearch was imported before the tracer", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    import pytest

    with LineTracer(sorted(PACKAGE.glob("*.py"))) as tracer:
        load(ROOT / "src")  # as fdsearch, the name the tests import
        code = pytest.main(PYTEST_ARGS)
    module = sys.modules.get("fdsearch")
    if module is None or Path(module.__file__).resolve().parent != PACKAGE:
        print(f"fdsearch was not imported from {PACKAGE}", file=sys.stderr)
        return 1
    allowed = report(never_run(tracer.hits), sys.stdout)
    return 0 if code == 0 and allowed else 1


if __name__ == "__main__":
    sys.exit(main())

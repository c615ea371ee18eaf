#!/usr/bin/env python3
"""Count the bytecode instructions the solver executes on a benchmark workload.

    python3 tools/opcount.py --workload knap-csp            # the repository's src/
    python3 tools/opcount.py --workload msq --solves 2 REV

Runs the first K pool solves (solve seeds 0 to K-1) of each heuristic of
a ``perfbench`` workload, with the workload's model, restart policy and
failure cap, under a ``sys.settrace`` tracer that counts every opcode
executed in a function of the ``fdsearch`` package, per qualified
function name.  REV is as ``tools/revs.py`` defines it.  Each tree is
checked against ``perfbench/pins.json``.

The counts do not depend on the host or its load: two runs of the same
code give the same numbers, which makes them a noise-free companion to the
timed benchmark.  They do depend on the bytecode, so they differ between
Python versions; the ``python`` field keys them by ``sys.version_info[:2]``.
Tracing costs about 40 times the untraced solve time.

Prints one JSON object shaped like a ``perfbench/run.py`` result line, so
``tools/trace_diff.py`` can compare two of them: ``correct``, ``attempted``,
``failed``, ``python`` and ``metrics``, which holds ``opcodes.total``, one
``opcodes.<module>`` total per module of the package and one
``opcodes.<module>.<qualified name>`` count per function, each with unit
``count``.  Exits 1 when a tree differs from its pin.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from revs import ROOT, PinnedPool, load, source
from workloads import WORKLOADS  # on the path that revs puts perfbench on


def count_opcodes(package_dir: Path, run) -> Counter:
    """Call ``run()`` and count the opcodes executed in each function whose
    source file is under ``package_dir``: qualified name -> count."""
    prefix = str(package_dir.resolve())
    by_code: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            frame.f_trace_opcodes = True
            return local
        return None

    outer = sys.gettrace()  # a line tracer running the tests, say
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(outer)
    counts: Counter = Counter()
    for code, n in by_code.items():
        module = Path(code.co_filename).stem
        counts[f"{module}.{getattr(code, 'co_qualname', code.co_name)}"] += n
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--solves", type=int, default=1, help="pool solves per heuristic")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if not 1 <= args.solves <= w.pool:
        parser.error(f"--solves must be between 1 and {w.pool}")
    with tempfile.TemporaryDirectory() as tmp:
        fd = load(source(args.src, Path(tmp)))
        pool = PinnedPool(fd, w)
        problems = []

        def run():
            for h in w.heuristics:
                for seed in range(args.solves):
                    _, drift = pool.solve(h, seed)
                    if drift:
                        problems.append(drift)

        counts = count_opcodes(Path(fd.__file__).parent, run)
    metrics = {"opcodes.total": sum(counts.values())}
    for name, n in counts.items():
        layer = f"opcodes.{name.split('.', 1)[0]}"
        metrics[layer] = metrics.get(layer, 0) + n
    metrics.update((f"opcodes.{name}", n) for name, n in sorted(counts.items()))
    attempted = len(w.heuristics) * args.solves
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(problems),
        "python": "%d.%d" % sys.version_info[:2], "workload": w.name, "solves": args.solves,
        "metrics": {name: {"value": n, "unit": "count"} for name, n in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

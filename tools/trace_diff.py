#!/usr/bin/env python3
"""Check that two traced perfbench runs searched the same way.

    python3 perfbench/run.py --workload msq --seed 0 --trace 1 | tail -1 > parent.json
    python3 perfbench/run.py --workload msq --seed 0 --trace 1 | tail -1 > change.json
    python3 tools/trace_diff.py parent.json change.json

Each file holds the JSON result line of a ``perfbench/run.py --trace 1``
run (the last non-empty line is read).  Every metric whose unit is
``count`` or ``ratio`` is compared, together with the ``correct``,
``attempted`` and ``failed`` fields.  ``trace.overhead_ratio`` is left out:
it is a quotient of two wall times, so it moves between runs of the same
code.  Exits 0 when everything compared is equal, 1 after listing the
names that differ or that only one file has, and 2 on a usage error or
when a file is missing, empty or does not end in a JSON object.
"""

from __future__ import annotations

import json
import sys

COMPARED_UNITS = ("count", "ratio")
TIMED = {"trace.overhead_ratio"}
FIELDS = ("correct", "attempted", "failed")


class BadInput(Exception):
    pass


def load(path: str) -> dict:
    try:
        with open(path) as f:
            lines = [line for line in f if line.strip()]
    except OSError as exc:
        raise BadInput(f"{path}: {exc.strerror}") from None
    if not lines:
        raise BadInput(f"{path}: no result line")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        raise BadInput(f"{path}: the last line is not a JSON object")
    return result


def compared(result: dict) -> dict:
    """The values to compare, by name."""
    values = {name: result.get(name) for name in FIELDS}
    for name, metric in result.get("metrics", {}).items():
        if metric["unit"] in COMPARED_UNITS and name not in TIMED:
            values[name] = metric["value"]
    return values


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        old, new = (compared(load(path)) for path in argv)
    except BadInput as exc:
        print(f"trace_diff: {exc}", file=sys.stderr)
        return 2
    differ = [
        name for name in sorted(old.keys() | new.keys())
        if name not in old or name not in new or old[name] != new[name]
    ]
    for name in differ:
        print(f"{name}: {old.get(name, 'missing')} -> {new.get(name, 'missing')}")
    print(f"{len(old.keys() | new.keys()) - len(differ)} equal, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

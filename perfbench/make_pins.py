#!/usr/bin/env python3
"""Solve every pool entry of every workload once and write ``pins.json``.

    python3 perfbench/make_pins.py

Run it from the repository root, only when a change is meant to alter
search trees (or when a workload's cap, restart or pool changes).  It
refuses to write pins for a solve that fails the result checks.
"""

import json
import sys

from run import Runner, load_fdsearch
from workloads import PINS_PATH, WORKLOADS


def main() -> int:
    fd = load_fdsearch()
    pins = {}
    for w in WORKLOADS.values():
        pool = [(h, seed) for h in w.heuristics for seed in range(w.pool)]
        runner = Runner(fd, w, pool, {})
        runner.run_pass(False)
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        trees = {f"{h}:{seed}": list(runner.records[(h, seed)].tree) for h, seed in pool}
        pins[w.name] = {"cap": w.cap, "restart": w.restart, "trees": trees}
        print(f"{w.name}: {len(trees)} trees pinned")
    entries = []  # one line per tree keeps diffs readable
    for name, entry in pins.items():
        trees = ",\n".join(f"   {json.dumps(k)}: {json.dumps(t)}" for k, t in entry["trees"].items())
        entries.append(f' {json.dumps(name)}: {{"cap": {entry["cap"]}, '
                       f'"restart": {json.dumps(entry["restart"])}, "trees": {{\n{trees}\n }}}}')
    PINS_PATH.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

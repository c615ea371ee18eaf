#!/usr/bin/env python3
"""Digest the search trees a source tree's solver explores on random models.

    python3 tools/tree_digest.py            # the repository's src/
    python3 tools/tree_digest.py SRC_DIR
    python3 tools/tree_digest.py --check    # exit 1 unless equal to DIGESTS

Seed ``i`` (0 to 299) draws one model from ``random.Random(i)`` with the
generator ``i % 3`` of ``GENERATORS``, taken from ``tests/oracles.py``.
A model that ``Model.audit`` rejects is skipped, and the skip is hashed.
Every other model is solved with abs, ibs and wdeg, each with no restarts
and with ``RestartPolicy.geometric(1.5, 2)``, at seed ``i`` and
``max_failures=300``.  Each solve hashes its status, counts, objective
and best assignment, and the ``failed`` propagator and the sorted
``affected`` variables of every fixpoint it ran, root and probes
included.  A change that keeps every search tree keeps every digest.

Prints one line per generator: its name, digest, models solved and models
skipped.  With ``--check`` it then compares the digests with ``DIGESTS``
and exits 1 on a difference.  It needs only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATORS = ("random_csp", "random_mixed_model", "random_planted_sums")
KINDS = ("abs", "ibs", "wdeg")
MODELS = 300
MAX_FAILURES = 300
DIGESTS = {
    "random_csp": "9f1d6746f2bc615e",
    "random_mixed_model": "f487c123cbbd8b3d",
    "random_planted_sums": "c7943e6b37d2981d",
}


def load(src: Path):
    """Import fdsearch from ``src`` and the model generators of
    ``tests/oracles.py``, which import that fdsearch."""
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import fdsearch
    import oracles

    if Path(fdsearch.__file__).resolve().parent != (src / "fdsearch").resolve():
        raise SystemExit(f"imported fdsearch from {fdsearch.__file__}, not from {src}")
    return fdsearch, oracles


def digests(fd, oracles) -> dict[str, tuple[str, int, int]]:
    """Generator name -> (digest, models solved, models skipped)."""
    fixpoints: list = []
    real_propagate = fd.engine.Engine.propagate

    def recorded(*args):
        result = real_propagate(*args)
        fixpoints.append((result.failed, sorted(result.affected)))
        return result

    fd.engine.Engine.propagate = recorded
    policies = (fd.RestartPolicy.none(), fd.RestartPolicy.geometric(1.5, 2))
    hashes = {name: hashlib.sha256() for name in GENERATORS}
    counts = {name: [0, 0] for name in GENERATORS}
    try:
        for i in range(MODELS):
            name = GENERATORS[i % len(GENERATORS)]
            model = getattr(oracles, name)(random.Random(i))
            try:
                model.audit()
            except fd.ModelError:
                hashes[name].update(f"{i} skipped\n".encode())
                counts[name][1] += 1
                continue
            counts[name][0] += 1
            for kind in KINDS:
                for policy in policies:
                    fixpoints.clear()
                    s = fd.solve(model, kind, restart=policy, seed=i, max_failures=MAX_FAILURES)
                    tree = (i, kind, policy.rho, s.status.value, s.choice_points, s.failures,
                            s.restarts, s.probes, s.best_objective, s.best_assignment, fixpoints)
                    hashes[name].update(f"{tree!r}\n".encode())
    finally:
        fd.engine.Engine.propagate = real_propagate
    return {name: (hashes[name].hexdigest()[:16], *counts[name]) for name in GENERATORS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--check", action="store_true", help="compare with DIGESTS")
    args = parser.parse_args(argv)
    got = digests(*load(Path(args.src)))
    for name, (digest, solved, skipped) in got.items():
        print(f"{name} {digest} solved={solved} skipped={skipped}")
    if not args.check:
        return 0
    differ = [name for name in GENERATORS if got[name][0] != DIGESTS[name]]
    for name in differ:
        print(f"differs: {name} (committed {DIGESTS[name]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Load a revision of the solver, and solve a benchmark pool with it.

A REV, as every tool here takes it, is either a directory holding the
``fdsearch`` package (such as the repository's ``src``), imported in
place, or a git revision, whose ``src`` is unpacked with ``git archive``
into a scratch directory (no checkout, no change to ``.git``).  A REV that
is neither is a usage error: the tool prints one line naming it and exits 2.

``load`` imports a package under a name of its own, so two revisions can
sit side by side in one interpreter.  ``PinnedPool`` solves the pool of a
``perfbench`` workload with one revision and checks each tree against
``perfbench/pins.json``.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import load_pins, pinned_trees, tree_of  # noqa: E402


def _usage_error(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def source(rev: str, scratch: Path) -> Path:
    """The source directory of ``rev``: ``rev`` itself when it is a
    directory, else the ``src`` of that git revision unpacked under
    ``scratch``."""
    if Path(rev).is_dir():
        return Path(rev)
    done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if done.returncode:
        _usage_error(f"{rev}: neither a directory nor a git revision with a src directory")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(scratch, filter="data")
        else:
            archive.extractall(scratch)
    return scratch / "src"


def load(src: Path, name: str = "fdsearch", package: str = "fdsearch"):
    """Import ``src/<package>`` as a package named ``name``, with its
    ``bench`` module when it has one (the package does not import it)."""
    path = (src / package).resolve()
    if not (path / "__init__.py").is_file():
        _usage_error(f"{src}: holds no {package} package")
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    if (path / "bench.py").is_file():
        importlib.import_module(f"{name}.bench")
    return module


class PinnedPool:
    """One revision's model and restart policy of workload ``w``, built
    once with that revision's ``bench``, and the pins of the pool."""

    def __init__(self, fd, w):
        self.fd, self.w = fd, w
        self.model = fd.bench.build_benchmark(w.selector)
        self.restart = fd.bench.parse_restart(w.restart)
        self.pins = pinned_trees(w, load_pins())

    def solve(self, heuristic: str, seed: int):
        """``(stats, drift)``: ``drift`` is None, or a message when the
        tree differs from its pin."""
        stats = self.fd.solve(self.model, heuristic, restart=self.restart, seed=seed,
                              max_failures=self.w.cap)
        key = f"{heuristic}:{seed}"
        tree, pinned = tree_of(stats), self.pins.get(key)
        if pinned is None or tree == pinned:
            return stats, None
        return stats, f"{key}: tree {tree} != pinned {pinned}"

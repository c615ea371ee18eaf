"""Time one cold set-up: import fdsearch from ``src/`` and build models.

    python3 perfbench/setup_probe.py <repo root> <selector> [<selector> ...]

Prints the seconds from just before ``import fdsearch`` to the end of the
last ``fdsearch.bench.build_benchmark`` call; interpreter start-up is not
included.  ``run.py`` starts it several times and reports the median.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
from fdsearch.bench import build_benchmark  # noqa: E402

for selector in sys.argv[2:]:
    build_benchmark(selector)
print(repr(time.perf_counter() - t0))

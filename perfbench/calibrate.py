"""A fixed calibration loop that measures how fast the host is right now.

The host is shared: the same operation takes up to twice as long when
neighbours load the core, and CPU time rises with wall time, so the slowdown
is not time spent descheduled. The benchmark times this loop between its
operations and scales every timing by ``K_REF / mean loop time``. A slow
spell then slows the loop and the operations alike and cancels out, while a
change to `mas` moves only the operations.

The loop mixes the two kinds of work `mas` does: pure-Python dict, tuple and
sort work (synthesis, the CLI) and small numpy array arithmetic (abstraction,
integration). It is part of the benchmark's definition: changing the loop or
``K_REF`` changes every normalised figure, so compare runs only across
commits that share this file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# about the loop's time on an uncontended 2 vCPU Xeon with CPython 3.11.7
# and numpy 2.4.6, so that normalised figures read close to seconds there
K_REF = 0.045


def loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    t0 = perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(40000):
        key = (i % 977, i % 31)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    a = np.arange(4000.0).reshape(40, 100)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
        a.sum(axis=1)
    return perf_counter() - t0


def probe(repeats: int = 3) -> float:
    """Median loop time after one discarded warm-up pass."""
    loop()
    return statistics.median(loop() for _ in range(repeats))

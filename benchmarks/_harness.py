"""Timing helpers shared by the ``record_*.py`` benchmark scripts.

The scripts run as files (``python benchmarks/record_join.py``), so this
directory is first on ``sys.path`` and they import it as ``_harness``.
"""

from __future__ import annotations

import time


def best_of(fn, repeats: int, inner: int = 1) -> float:
    """Best wall time of ``fn`` over ``repeats`` runs, in milliseconds.

    Each run calls ``fn`` ``inner`` times back to back and counts the mean
    of those calls, which lifts sub-millisecond operations above the
    timer's resolution.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best * 1000.0

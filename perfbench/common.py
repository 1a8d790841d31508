"""Percentiles, memory and the environment stamp shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
from typing import Dict, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact sample percentile (nearest rank) of raw samples, ``q`` in [0, 100].

    Nearest rank returns an observed value, never a bucket edge or an
    interpolation between histogram bounds.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spec_hash(spec) -> str:
    """A short stable hash of a world spec (its dataclass repr)."""
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()[:16]


def environment_stamp(seed: int, spec_digest: str) -> Dict[str, object]:
    """What every record carries so numbers are comparable across machines."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
        "spec_hash": spec_digest,
        "seed": seed,
    }


"""A fixed reference computation that measures how fast the CPU is right now.

Shared machines drift between fast and slow phases that last seconds and
change the speed of small-array numpy code by up to 1.9x.  Timing this
kernel next to every task lets the benchmark report each task in
calibration units, which cancels the drift.  The kernel mixes the kinds of
work edmkit does (small distance scans and sorts, small least-squares
solves, boxing Python floats) and imports nothing from edmkit, so no
change to the package can change it.
"""

from __future__ import annotations

import time

import numpy as np
# bound here so that tracing, which patches numpy.linalg.lstsq, never sees the kernel
from numpy.linalg import lstsq

_RNG = np.random.default_rng(20240601)
_VECTORS = _RNG.normal(size=(64, 4))
_TIMES = np.arange(64)
_DESIGNS = [_RNG.normal(size=(48, 5)) for _ in range(24)]
_TARGET = _RNG.normal(size=48)


def kernel() -> float:
    total = 0.0
    for i in [*range(64)] * 3:
        distances = np.abs(_VECTORS - _VECTORS[i]).sum(axis=1)
        nearest = np.lexsort((_TIMES, distances))[:5]
        total += float(distances[nearest].sum())
    for design in _DESIGNS:
        coefficients, *_ = lstsq(design, _TARGET, rcond=1e-10)
        total += float(coefficients[0])
    values = tuple(float(v) * 0.5 for v in range(9000))
    total += float(np.asarray(values, dtype=float).sum())
    return total


def timed_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

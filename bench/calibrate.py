"""Calibration kernel: a fixed mix of interpreted Python, a KD-tree query and
vectorised numpy, timed in the process being measured.

The host this benchmark was written on gives its two vCPUs speeds that
change by up to 1.5x within seconds (measured with sweep_designs: 52% range
over one minute), far above any bound a benchmark could set. Timing this
kernel next to every request, in the same process, tracks those changes:
scaling a request's time by REFERENCE_S over the kernel's time cut the range
of the same measurement to 12%. Reported times are therefore at reference
speed, the speed at which one kernel run takes REFERENCE_S; the raw times
are printed beside them.

The kernel imports nothing from lissscan, so no change to the package can
change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# About what one kernel run took on the host this was written on (2 vCPUs,
# Python 3.11, numpy 2.4, scipy 1.17) when it ran at full speed.
REFERENCE_S = 0.006

_rng = np.random.default_rng(0)
_POINTS = _rng.random((1000, 2))
_QUERIES = _rng.random((4096, 2))
_CENTERS = np.linspace(-1.0, 1.0, 32)
_SAMPLES = _rng.uniform(-1.0, 1.0, (2, 500))
_ANGLES = np.arange(20_000) * 0.1


def kernel() -> float:
    """Seconds one kernel run takes: interpreted Python, a KD-tree build and
    query as in the fill factor, row-wise nearest-sample search as in the
    optimizer, and vectorised trigonometry as in the samplers."""
    start = time.perf_counter()
    total = 0
    for k in range(40_000):
        total += k * k
    cKDTree(_POINTS).query(_QUERIES)
    dx2 = (_CENTERS[:, None] - _SAMPLES[0][None, :]) ** 2
    dy2 = (_CENTERS[:, None] - _SAMPLES[1][None, :]) ** 2
    for _ in range(2):
        for row in dx2:
            np.argmin(row[None, :] + dy2, axis=1)
    float(np.cos(_ANGLES).sum())
    return time.perf_counter() - start


def speed(runs: int = 3) -> float:
    """Median kernel time over a few runs."""
    return statistics.median(kernel() for _ in range(runs))

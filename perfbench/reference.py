"""Reference tasks: fixed work, timed next to what the benchmark measures.

On a shared 2-core VM the speed the host gives a process swings by 1.3-1.8x
between fast and slow phases that last from seconds to several minutes,
which no affordable run length averages out.  Timing a fixed task of the
same kind of work right next to each measurement, and dividing by it,
takes most of that swing out.  Neither task touches nanomech, so no change
to the program moves them.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

_VALUES = [random.Random(0).random() for _ in range(2000)]
_MATRIX = (np.random.default_rng(1).random((600, 600))
           + 1j * np.random.default_rng(2).random((600, 600)))
_RHS = np.ones(600, dtype=complex)


def format_task():
    """17-digit float formatting, the work of the CSV and JSON writers."""
    ",".join(f"{v:.17g}" for v in _VALUES)


def lapack_task():
    """A complex dense LAPACK solve, the work of the full steady state."""
    np.linalg.solve(_MATRIX, _RHS)


def reference_s(task, samples=5):
    """Median wall time of `samples` runs of a reference task."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        task()
        times.append(perf_counter() - t0)
    return statistics.median(times)

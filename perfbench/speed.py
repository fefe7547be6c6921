"""Host-speed probe for the h2w benchmark.

The benchmark runs on a few cores of a shared host whose speed swings by
about ±20% within seconds, as neighbours come and go.  Wall times alone then
differ between runs of the same code by more than a regression bound.  To
take that swing out, a fixed reference loop (interpreter arithmetic, dict
lookups and small dense linear algebra, the mix h2w itself runs) is timed
throughout a run, and every time the benchmark reports is scaled by
``REFERENCE_S / mean(reference loop time)``: the time the work would take on
a host where the loop takes ``REFERENCE_S``.  The loop is benchmark code, so
a change to h2w moves the scaled times exactly as it moves the raw ones.

During the timed loop a ``SIGALRM`` interval timer runs the reference loop
every ``INTERVAL_S`` of wall time, between the program's bytecodes, so the
samples cover the run evenly.  The time spent in the handler is subtracted
from the operation it interrupted.  Set-up, which runs in child processes,
is scaled by reference loops timed just before and after each child.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# mean reference-loop time on the host the benchmark was written on (2 cores
# of an x86-64 VM, numpy on one BLAS thread); it only sets the scale
REFERENCE_S = 0.004
INTERVAL_S = 0.05
_MATRIX = np.random.default_rng(0).standard_normal((40, 40))
_TABLE = {(i, i % 13): i / 3.0 for i in range(3_000)}
_KEYS = list(_TABLE)


def reference_loop():
    """A fixed amount of work, independent of h2w.  It allocates no objects
    the cyclic garbage collector tracks, so it never sets off a collection
    of the program's heap."""
    total = 0
    for i in range(24_000):
        total += i * i % 7
    weight = 0.0
    for key in _KEYS:
        weight += _TABLE[key]
    for _ in range(12):
        np.linalg.svd(_MATRIX, compute_uv=False)
        weight += float((_MATRIX @ _MATRIX).sum())
    return total + weight


def time_reference(times=1):
    """Durations of ``times`` back-to-back reference loops."""
    out = []
    for _ in range(times):
        start = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - start)
    return out


class SpeedProbe:
    """Samples the reference loop on a wall-clock timer while active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        # a collection due now is the program's work: leave it to the program
        collecting = gc.isenabled()
        gc.disable()
        (duration,) = time_reference()
        if collecting:
            gc.enable()
        self.samples.append(duration)
        self.spent += duration

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Multiply a measured time by this to get reference-speed time."""
        return REFERENCE_S / statistics.fmean(self.samples)

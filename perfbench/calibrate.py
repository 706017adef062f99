"""Host-speed calibration of the end-to-end times.

On a shared host, co-tenants slow this machine by up to ~1.6x for
seconds to minutes at a time.  Repeating work inside a run and taking
medians removes the short swings, but not a slow stretch that covers a
whole run.  Each run therefore times a fixed probe — an interpreter
loop, a sort, and float32 vector math with a gather, none of it program
code — before and after each set-up and each unit of work, and rescales
that set-up's or unit's time to a host on which the probe takes
``REFERENCE_S``:

    calibrated time = measured time * REFERENCE_S / mean(probe readings just before and after)

(rates are divided by the same factor).  A change to the program moves
the measured times but not the probe, so it shows in full; a slower
host moves both.  Reports keep the raw values and every probe reading.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracer import clock

#: Probe time on the reference host (a 2-vCPU Xeon with no co-tenant load).
REFERENCE_S = 0.005

#: The cores of the run, fixed when the benchmark's process starts
#: (before any process pins itself to one of them).
ALL_CORES = frozenset(os.sched_getaffinity(0))

_SORTED = np.random.default_rng(0).random(100_000)
_VECTOR = np.random.default_rng(1).random(262_144).astype(np.float32)
_INDEX = (_VECTOR * 1e6).astype(np.int64) % _VECTOR.size


def probe() -> float:
    """The probe on every core this process may use, averaged: a run's
    processes are spread over the cores, and co-tenants slow each core
    differently.  The process's own core set is restored afterwards."""
    cores = os.sched_getaffinity(0)
    readings = []
    try:
        for core in sorted(ALL_CORES):
            os.sched_setaffinity(0, {core})
            readings.append(_probe_here())
    finally:
        os.sched_setaffinity(0, cores)
    return sum(readings) / len(readings)


def _probe_here() -> float:
    """Fastest of three runs of the fixed probe work, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        total = 0
        for value in range(100_000):
            total += value
        np.sort(_SORTED)
        weights = np.exp(-_VECTOR * _VECTOR) * _VECTOR
        weights.sum()
        np.take(_VECTOR, _INDEX)
        best = min(best, clock() - start)
    return best


def scale(readings: list[float]) -> float:
    """Factor from this run's host to the reference host (times multiply)."""
    return REFERENCE_S / statistics.fmean(readings)

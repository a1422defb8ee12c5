"""Reference probe: a fixed piece of work that uses no mpemba code, timed
by the runner while the pass process waits, to measure how fast the
cores the pass runs on are right now.

On a shared host the speed of one core drifts by a third and more over
minutes (other tenants, frequency), and a wall-clock rate drifts with it.
The benchmark divides each measured time by the ``slowness`` (probe time /
``NOMINAL_S``) of the probes around it, so its times read as if the host
ran at the reference speed, and a change of the program still moves them
in full. The probe mixes what the workloads spend their time on:
interpreted Python, many small numpy calls, and streaming a complex array
much larger than the caches.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Tuple

import numpy as np

NOMINAL_S = 0.2             # probe time at the reference speed; never change it
ROUNDS = 5
EVERY_S = 1.0               # probe at the first pause this long after the last probe
_SMALL = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
_LARGE_ELEMENTS = 1 << 21   # 32 MB of complex128


def _round(large: np.ndarray) -> tuple:
    """Seconds of each part of one round: interpreted Python, small numpy
    calls, and streaming a complex array much larger than the caches."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    a = _SMALL
    for _ in range(600):
        a = np.tanh(a @ _SMALL * 0.01) + 0.5
    t2 = time.perf_counter()
    b = large
    for _ in range(2):
        b = b * (1.0 + 1e-9j)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def probe(cpus: List[int]) -> float:
    """Seconds the fixed reference work takes now, the mean over ``cpus``
    (run on each in turn; the two vCPUs of a shared host drift apart).
    Each part is timed by its median of ROUNDS rounds, so that a single
    preemption does not read as a slow host. Leaves this process's
    affinity at ``cpus``."""
    large = np.ones(_LARGE_ELEMENTS, dtype=np.complex128)
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        rounds = [_round(large) for _ in range(ROUNDS)]
        times.append(ROUNDS * sum(statistics.median(r[k] for r in rounds) for k in range(3)))
    os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def slowness(probe_s: float) -> float:
    """How much slower than the reference speed the host runs (> 1: slower)."""
    return probe_s / NOMINAL_S


def scaled(t0: float, t1: float, refs: List[Tuple[float, float]]) -> float:
    """Seconds from ``t0`` to ``t1`` at the reference speed. ``refs`` holds
    (time, probe seconds) pairs in time order; the slowness is that of the
    mean of the last probe at or before ``t0`` and the first at or after ``t1``."""
    before = [p for t, p in refs if t <= t0]
    after = [p for t, p in refs if t >= t1]
    return (t1 - t0) / slowness((before[-1] + after[0]) / 2)

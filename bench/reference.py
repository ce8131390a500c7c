"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine, other tenants slow every process by a factor
that changes from second to second and, over minutes, by up to half.  The
benchmark times this loop next to the work it measures: each operation of a
round is preceded by one sample, and each set-up is surrounded by samples.
A timing is then divided by its slowdown, the median of the samples around
it over ``floor``, the fastest sample taken in the same process, so that a
metric reads as the time the work takes when the machine runs at its quiet
speed.  The floor is the process's own, because the loop's quiet time
differs by a few percent between processes (where its objects lie in
memory).  The loop does the kind of work the library does (tuple keys, dict
updates) and is small enough to stay in cache.  Interleaved with a
Freudenthal computation of about 7 ms, its 2-second medians tracked that
computation's with a log-log slope of 0.99 (correlation 0.96).
"""

from __future__ import annotations

import statistics
from time import perf_counter

WARM_UP = 5  # samples taken and dropped by ``samples``
WINDOW = 5  # operations on either side whose samples give an operation's slowdown


def _loop():
    d = {}
    for i in range(400):
        key = (i & 31, i >> 5)
        d[key] = d.get(key, 0) + i
    return d


def sample() -> float:
    """The fastest of three timings of the loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        _loop()
        best = min(best, perf_counter() - t)
    return best


def samples(count: int) -> list:
    """``count`` samples after a short warm-up."""
    for _ in range(WARM_UP):
        sample()
    return [sample() for _ in range(count)]


def slowdown(samples, floor: float) -> float:
    """How much slower than ``floor`` the machine ran while ``samples`` were taken."""
    return statistics.median(samples) / floor


def op_slowdowns(per_op, floor: float) -> list:
    """Each operation's slowdown, from one sample taken just before each operation.

    It uses the samples of the WINDOW operations on either side, because a
    single sample is noisy and a slow spell lasts seconds.
    """
    return [slowdown(per_op[max(0, i - WINDOW):i + WINDOW + 1], floor)
            for i in range(len(per_op))]

"""Host-speed calibration: a fixed pure-Python reference timed beside each job.

This benchmark runs on shared hosts whose speed drifts by tens of percent from
one second to the next. Every reported time is therefore calibrated: a job's
raw time is multiplied by ``REF_NOMINAL_S / r``, where ``r`` is the mean of
the reference timings taken just before and just after the job, raised to
EXPONENT (below). A slowdown of the host lengthens the raw time and ``r``
alike and cancels; a change to
prismlab does not touch the reference and shows in full. The reference
multiplies elements of Q[u]/(u^3 + 3u + 3) held as Fraction tuples, the same
kind of work as prismlab's field arithmetic, and imports nothing from prismlab.
"""
from __future__ import annotations

import time
from fractions import Fraction as Q

# The reference's median duration on the host of the recorded baseline
# (README.md), so calibrated times read as milliseconds on that host.
REF_NOMINAL_S = 0.002
# Two reference timings within this share of each other show the same host
# speed; the host's slow state reads about 1.8 times its fast one.
STEADY_SHARE = 0.15
# Between the host's two speed states the reference slows by about 1.8 times
# and prismlab's jobs by 1.6 to 1.75 times (1.7 on average), so a job sees
# the reference's slowdown to this power: 1.8 ** 0.9 = 1.7.
EXPONENT = 0.9

_E = (Q(3), Q(3), Q(0))
_X = tuple((Q(i - 3, 2 + i % 3), Q(2 * i - 5, 3), Q(1 - i, 4)) for i in range(6))


def _mul(a, b):
    prod = [Q(0)] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in (4, 3):
        c = prod[k]
        prod[k] = Q(0)
        for i in range(3):
            prod[k - 3 + i] -= c * _E[i]
    return tuple(prod[:3])


def reference():
    """Seconds taken by one fixed batch of reference multiplications."""
    t0 = time.perf_counter()
    for a in _X:
        for b in _X:
            _mul(a, b)
    return time.perf_counter() - t0


def calibrate(raw, before, after):
    """``raw`` seconds of work as they would read on the baseline host, from
    the reference timings taken just before and just after it."""
    return raw * (2 * REF_NOMINAL_S / (before + after)) ** EXPONENT


def steady(before, after):
    """Whether the host kept its speed from ``before`` to ``after``, so that
    the time between them can be calibrated."""
    return abs(after - before) <= STEADY_SHARE * min(before, after)

"""Fixed reference work timed between operations, to read the host's speed.

The host this benchmark was written on is a shared virtual machine whose
speed drifts by tens of percent within a minute, more than any allowed
bound.  The operations' times are therefore also reported in units of
this reference: a fixed piece of work owned by the benchmark, never by the
program, so a faster program reads faster while a slower host slows both
sides alike.

One unit is the same kind of work the oracle does, in two halves of about
equal time: a scalar Numerov recurrence over a Python list of 2001 nodes
at twelve energies, and a Numerov recurrence carried for 181 complex
energies at once over 500 nodes.  After every operation the benchmark
runs whole units until they have taken ``SHARE`` of that operation's
time, so the samples spread evenly over the run and each operation has a
sample just before and just after it.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: reference time taken after each operation, as a share of its time
SHARE = 0.25

_H = 0.0015
_SCALAR_V = [math.sin(0.003 * j) for j in range(2001)]
_SCALAR_E = [0.5 * k for k in range(1, 13)]
_VECTOR_V = np.sin(0.003 * np.arange(500))
_VECTOR_E = 6.0 + 0.02 * np.arange(-90, 91)


def _scalar():
    total = 0.0
    for energy in _SCALAR_E:
        c = [1.0 - _H * _H * (v - energy) / 12.0 for v in _SCALAR_V]
        ym, yc = 0.0, _H
        for j in range(1, len(c) - 1):
            ym, yc = yc, ((12.0 - 10.0 * c[j]) * yc - c[j - 1] * ym) / c[j + 1]
        total += yc
    return total


def _vector():
    v, e = _VECTOR_V, _VECTOR_E
    cm = 1.0 - _H * _H * (v[0] - e) / 12.0
    cc = 1.0 - _H * _H * (v[1] - e) / 12.0
    ym = np.ones(e.size, dtype=complex)
    yc = ym.copy()
    for j in range(1, v.size - 1):
        cp = 1.0 - _H * _H * (v[j + 1] - e) / 12.0
        ym, yc = yc, ((12.0 - 10.0 * cc) * yc - cm * ym) / cp
        cm, cc = cc, cp
    return yc


def unit():
    """One unit of reference work; its result only keeps it from being skipped."""
    return _scalar() + _vector()[0]


class Reference:
    """Unit count and time of the reference samples of one run."""

    def __init__(self):
        unit()  # first call pays for allocation and caches, not measured
        self.samples: list[tuple[int, float]] = []  # (units, seconds)

    def sample(self, op_s: float) -> None:
        """Run whole units for SHARE of an operation's time op_s, at least one."""
        t0 = time.perf_counter()
        units = 0
        while True:
            unit()
            units += 1
            dt = time.perf_counter() - t0
            if dt >= SHARE * op_s:
                break
        self.samples.append((units, dt))

    def unit_s(self, first: int = 0, stop: int | None = None) -> float:
        """Unit time over samples[first:stop]."""
        part = self.samples[first:stop]
        return sum(s for _, s in part) / sum(u for u, _ in part)

"""Machine-speed calibration: time dqm's work in reference seconds.

The shared 2-CPU machine this benchmark was built on switches between a fast
and a slow state for periods of 5 to 20 s; in the slow state the same Python
code takes about 1.5 times as long, in CPU time as much as in wall time.  A
timing is therefore scaled by the speed of the machine measured next to it:

    reference seconds = measured seconds * REF_NOMINAL_S / t_ref

where t_ref is the time reference() takes just before and just after the
timed work.  reference() is a fixed mix of the kinds of work dqm does
(complex scalar arithmetic through numpy, Horner loops, double-double float
arithmetic, small calls, and Horner and reductions over small arrays); it
lives in the benchmark's files and never changes with the program, so a
faster dqm still reads faster.

Work that starts a fresh interpreter (set-up, the CLI calls) is dominated by
interpreter start-up and imports, which the in-process loop does not track.
It is scaled the same way by a reference child instead: a fresh interpreter
running this file, which imports numpy and runs reference() CHILD_LOOPS
times (ChildClock).
"""

from __future__ import annotations

import cmath
import math
import os
import sys
import time

import numpy as np

REF_NOMINAL_S = 0.75e-3     # one reference() in the fast state of that machine
REFRESH_S = 0.1             # re-measure the speed after this much work
LOOPS = 80                  # scalar iterations of one reference()
ARRAY_LOOPS = 12            # 96-point array iterations of one reference()
CHILD_LOOPS = 20
REF_CHILD_NOMINAL_S = 0.25  # one reference child in the fast state of that machine
_COEFFS = tuple(complex(1.0 / (k + 1), 0.1 * k) for k in range(12))
_COEFFS_ARRAY = np.array(_COEFFS)
_NODES = np.linspace(0.01, 3.0, 96)
_SPLIT = 134217729.0        # 2**27 + 1, Dekker's splitter


def _two_prod(a: float, b: float):
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _horner(coeffs, x):
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def reference():
    """Fixed interpreter and small-array work taking about REF_NOMINAL_S on the
    fast machine: scalar complex arithmetic, Horner and double-double loops,
    then Horner and reductions over 96-point arrays as the quadrature does."""
    acc = 0j
    hi = lo = 0.0
    for i in range(LOOPS):
        x = 0.3 + 0.001 * i
        z = np.exp(1j * x)
        acc += _horner(_COEFFS, complex((z + 1.0 / z) / 2.0))
        acc += cmath.sqrt(complex(x, 1.0)) * math.log1p(x)
        for k in range(4):
            p, e = _two_prod(x, 1.0 + k * 1e-3)
            hi, s = _two_sum(hi, p)
            lo += s + e
    for i in range(ARRAY_LOOPS):
        x = _NODES + 0.001 * i
        z = np.exp(1j * x)
        acc += np.sum(np.abs(_horner(_COEFFS_ARRAY, (z + 1.0 / z) / 2.0)) ** 2 * np.cos(x))
    return acc, hi, lo


def ref_seconds() -> float:
    """Median of three timed reference() calls."""
    clock = time.perf_counter
    times = []
    for _ in range(3):
        t0 = clock()
        reference()
        times.append(clock() - t0)
    return sorted(times)[1]


class SpeedClock:
    """Scale factors REF_NOMINAL_S / t_ref, re-measured after REFRESH_S of work."""

    def __init__(self):
        self.factor = REF_NOMINAL_S / ref_seconds()
        self.stamp = time.perf_counter()

    def now(self) -> float:
        if time.perf_counter() - self.stamp >= REFRESH_S:
            self.factor = REF_NOMINAL_S / ref_seconds()
            self.stamp = time.perf_counter()
        return self.factor

    def scaled(self, seconds: float, before: float) -> float:
        """seconds of work begun at factor `before`, in reference seconds."""
        return seconds * 0.5 * (before + self.now())


class ChildClock:
    """Speed of fresh interpreters, from reference children run around the work."""

    def __init__(self, run_child):
        self.run_child = run_child      # callable: argv -> raw seconds
        self.recent = []                # the last reference times, oldest first
        self.fresh = False              # the last reference ran just before now

    def sample(self) -> float:
        ref = self.run_child([sys.executable, os.path.abspath(__file__)])
        self.recent = (self.recent + [ref])[-3:]
        self.fresh = True
        return ref

    def before(self) -> None:
        """Make sure a reference child ran just before the timed child."""
        if not self.fresh:
            self.sample()

    def scaled(self, seconds: float) -> float:
        """A child timed since before(), in reference seconds: scaled by the
        median of the reference after it and the two before (one child's
        reference time jitters by several per cent; the speed states last
        seconds)."""
        self.sample()
        return seconds * REF_CHILD_NOMINAL_S / sorted(self.recent)[len(self.recent) // 2]

    def other_child(self) -> None:
        """An untimed child ran: the last reference is no longer next to the work."""
        self.fresh = False


if __name__ == "__main__":
    for _ in range(CHILD_LOOPS):
        reference()

"""Fixed work that does not use thetasep, timed between passes to gauge the host's speed.

The host this benchmark was written on shares its cores with other
tenants, and runs the same code up to 2x slower in phases that last from
seconds to minutes.  A run therefore times a yardstick before and after
every measured interval (a pass over a deck, or one set-up interpreter)
and scales the interval by NOMINAL_NS / (mean of the two readings): every
reported time is the time the program would take on the host at the
speed at which the yardstick takes its nominal time.

Different code slows down by different amounts, so there are two
yardsticks, and each workload uses the one its own time is made of:

- `scalar`: complex scalar arithmetic with calls, lists and dicts, plus
  numpy calls on 64-point arrays, for `sweep` and `deep`, whose time is
  the Python code of `zeros` and `core` around small contour arrays;
- `grid`: complex array arithmetic on lemma-sized grids, for `battery`,
  whose time is mostly the `lemmas` grid kernels.

A plain integer loop tracked `sweep` and `deep` much worse than `scalar`
(see bench/README.md).  The code of both yardsticks is fixed; a change to
the library cannot move them.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

_CONTOUR = np.linspace(0.0, 2.0 * math.pi, 64)
_PSI = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
_OMEGA = np.linspace(math.pi / 2, math.pi, 60)


def _term(z, j):
    return z ** j / (1.0 + j)


def scalar():
    total = 0j
    table = {}
    for k in range(1500):
        z = cmath.rect(0.5 + k * 1e-4, k * 0.01)
        terms = [_term(z, j) for j in range(10)]
        table[k % 97] = terms
        total += sum(terms) + abs(z) * cmath.exp(1j * k)
    for k in range(600):
        points = np.exp(1j * _CONTOUR) * (0.5 + k * 1e-4)
        total += float(np.angle(points[1:] / points[:-1]).sum()) + float(np.abs(points).max())
    return total


def grid():
    """A truncated q-series on 8 grids of 60 x 720 points, the shape of the k1 direct scan."""
    total = 0.0
    for rho in np.linspace(0.05, 0.6, 8):
        z = rho ** -0.5 * np.exp(1j * (_PSI[None, :] + 0.5 * _OMEGA[:, None]))
        q = rho * np.exp(1j * _OMEGA)[:, None]
        term, series, power = np.ones_like(z), np.ones_like(z), np.ones_like(q)
        for _ in range(9):
            power = power * q
            term = term * z
            series = series + power * term
        total += float(np.abs(series).min())
    return total


# Median time of each yardstick on the host described in bench/README.md (2 vCPUs
# of a shared Intel Xeon, Python 3.11, numpy 2.4); only the scale of reported times
# depends on them.
YARDSTICKS = {"scalar": (scalar, 18_000_000), "grid": (grid, 34_000_000)}


class Gauge:
    """Readings of one yardstick around consecutive measured intervals."""

    def __init__(self, kind):
        self.work, self.nominal_ns = YARDSTICKS[kind]
        self.work()  # warm-up
        self.readings = [self._read()]

    def _read(self):
        start = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - start

    def scale(self):
        """Factor to nominal host speed for the interval since the last reading; reads again."""
        self.readings.append(self._read())
        return self.nominal_ns / ((self.readings[-2] + self.readings[-1]) / 2)

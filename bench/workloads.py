"""The three benchmark workloads: how inputs are drawn, the op, and its check.

Each workload draws decks of op inputs from a seeded random stream, runs
one op through the library's public functions, and judges the answer.
Every pass over a workload gets a fresh deck of the same stratified shape:
position i of a deck always belongs to the same stratum (for example the
same k and modulus band), but its input is new, so no op repeats an
earlier one and a cache keyed on the input never hits.  Functions are
looked up on their module at call time (for example
`zeros.verify_separation`), so the wrappers `tracer.installed` puts there
see every call.
"""

from __future__ import annotations

import cmath
import json
import math
import time
import warnings

import mpmath

import thetasep
from thetasep import cli, zeros

# A located zero passes the mpmath re-check when its independently computed
# scaled residual |theta| / sum|terms| is below ten times the library's own
# Newton tolerance of 1e-10.
MP_RESIDUAL_TOL = 1e-9
# Battery margins must stay this close to the ones recorded from this tree.
MARGIN_TOL = 1e-9


class Workload:
    """Running a deck of ops.

    Subclasses supply cells, run, check and setup_source, and YARDSTICK: the
    kind of fixed work in yardstick.py whose speed their own time follows.
    """

    def deck(self, rng):
        """A fresh deck: (position, op) pairs in a random order drawn from `rng`."""
        ops = self.cells(rng)
        return [(int(i), ops[i]) for i in rng.permutation(len(ops))]

    def expected_failure(self, op, error):
        """Whether `error` is a known defect of the library for this op, not a wrong answer."""
        return False

    def timed(self, op):
        """One op; returns (result, ThetaError or None, latency in ns, RuntimeWarnings).

        numpy RuntimeWarnings are recorded per op, neither printed nor
        ignored; entering catch_warnings resets the once-per-location
        registry, so an op raises the same count every time it runs.
        """
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", RuntimeWarning)
            start = time.perf_counter_ns()
            try:
                result, error = self.run(op), None
            except thetasep.ThetaError as exc:
                result, error = None, exc
            latency = time.perf_counter_ns() - start
        return result, error, latency, sum(issubclass(w.category, RuntimeWarning) for w in caught)

    def run_pass(self, deck, tally, tracer=None):
        """Run every op of the deck once.

        Returns (latency in ns of each deck position, RuntimeWarnings).
        """
        latencies, total_warnings = [0] * len(deck), 0
        for position, op in deck:
            if tracer is not None:
                tracer.begin_op(position)
            result, error, latency, n_warnings = self.timed(op)
            tally.add(self, op, result, error, n_warnings)
            latencies[position] = latency
            total_warnings += n_warnings
        return latencies, total_warnings


class Sweep(Workload):
    """Interactive `zeros` traffic: one verify_separation per op.

    q is uniform by area on D(0.6) (the left half-disk |q| <= 0.6) joined
    with the right half of the disk |q| <= C0; k_max runs over 1..8.  A
    deck holds every k_max with AREA_STRATA values of q, one drawn in each
    equal-area stratum of the region.
    """

    AREA_STRATA = 16
    YARDSTICK = "scalar"
    _left = math.pi * 0.6 ** 2 / 2          # area of D(0.6)
    _right = math.pi * thetasep.C0 ** 2 / 2  # right half of |q| <= C0; its left half is in D(0.6)

    def cells(self, rng):
        return [(self._q((i + 1.0 - rng.random()) / self.AREA_STRATA, rng.random()), k_max)
                for k_max in range(1, 9) for i in range(self.AREA_STRATA)]

    def _q(self, v, u):
        """q for area fraction v in (0, 1] of the region and argument fraction u."""
        area = v * (self._left + self._right)
        if area <= self._left:
            return cmath.rect(0.6 * math.sqrt(area / self._left), math.pi / 2 + math.pi * u)
        return cmath.rect(thetasep.C0 * math.sqrt((area - self._left) / self._right),
                          -math.pi / 2 + math.pi * u)

    def run(self, op):
        q, k_max = op
        return zeros.verify_separation(thetasep.QParameter(q), k_max, on_error="record")

    def check(self, op, rep):
        """(answer ok, (q, located zero) to re-check with mpmath or None)."""
        q, k_max = op
        ok = (rep.strongly_separated and not rep.notes and not rep.warnings
              and all(rep.counts.get(k) == 1 for k in range(1, k_max + 1)))
        rec = rep.records.get(k_max)
        return ok, (None if rec is None else (q, rec.location))

    def setup_source(self):
        """The op a fresh interpreter runs for setup_s: a fixed one, the same for every seed."""
        return ("from thetasep import zeros\n"
                "rep = zeros.verify_separation(thetasep.QParameter(-0.3+0.3j), 4, "
                "on_error='record')\n"
                "sys.exit(0 if rep.strongly_separated else 1)\n")


class Deep(Workload):
    """Scan cells at the edge of the domain: count in the k-th annulus, then locate.

    k runs over 10..40 and |q| over the midpoints of MODULUS_STRATA equal
    strata of [0.05, 0.5], each moved by a relative JITTER drawn from the
    seed, so that no two ops share a modulus; arg(q) is drawn on
    [pi/2, 3pi/2].  For k >= 26 at small |q| the contour sums overflow and
    the op fails with BudgetExceeded after the full term budget; these ops
    stay in on purpose.  Whether an op overflows depends on |q| and k only,
    and the jitter is too small to move it, so the failing share of every
    deck is the same: 30 of 124 ops.
    """

    MODULUS_STRATA = 4
    YARDSTICK = "scalar"
    JITTER = 1e-3
    # Per modulus stratum, the smallest k whose op overflows in this tree (41: none
    # up to k = 40).  Only these ops may fail, and only with BudgetExceeded; an op
    # here that succeeds is judged like any other.
    OVERFLOW_FROM_K = (26, 31, 36, 41)

    def cells(self, rng):
        return [(cmath.rect(self._modulus(i, rng.random()), math.pi / 2 + math.pi * rng.random()),
                 k, i)
                for k in range(10, 41) for i in range(self.MODULUS_STRATA)]

    def _modulus(self, stratum, u):
        middle = 0.05 + 0.45 * (stratum + 0.5) / self.MODULUS_STRATA
        return middle * (1.0 + self.JITTER * (2.0 * u - 1.0))

    def expected_failure(self, op, error):
        _, k, stratum = op
        return isinstance(error, thetasep.BudgetExceeded) and k >= self.OVERFLOW_FROM_K[stratum]

    def run(self, op):
        # the same two calls as one cell of `thetasep scan`
        q, k, _ = op
        q = thetasep.QParameter(q)
        count = zeros.count_zeros_in_annulus(q, zeros.Annulus.for_index(k))
        return count, zeros.locate_zero(q, k)

    def check(self, op, result):
        count, rec = result
        return count == 1 and rec.annulus_ok, (op[0], rec.location)

    def setup_source(self):
        """A fixed op that succeeds, the same for every seed."""
        return ("from thetasep import zeros\n"
                "q = thetasep.QParameter(-0.33125+0j)\n"
                "zeros.count_zeros_in_annulus(q, zeros.Annulus.for_index(20))\n"
                "zeros.locate_zero(q, 20)\n")


class Battery(Workload):
    """`thetasep verify --lemma all --format json --out FILE`, run in-process.

    It has no inputs, so its deck is the one op and does not depend on the
    seed.  The pass exits 1 because the `Q` floor is false; every other
    check must pass with the margins in battery_reference.json.
    """

    YARDSTICK = "grid"

    def __init__(self, out_path, reference_path):
        self.out_path = str(out_path)
        with open(reference_path, encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def argv(self):
        return ["verify", "--lemma", "all", "--format", "json", "--out", self.out_path]

    def cells(self, rng):
        return [None]

    def run(self, op):
        return cli.main(self.argv())

    def check(self, op, code):
        with open(self.out_path, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        failing = sorted(name for name, rep in results.items() if not rep["passed"])
        margins = {name: rep["margins"] for name, rep in results.items()}
        return code == 1 and failing == ["Q"] and margins_match(margins, self.reference), None

    def setup_source(self):
        return ("from thetasep import cli\n"
                f"sys.exit(0 if cli.main({self.argv()!r}) == 1 else 1)\n")


def margins_match(margins, reference, tol=MARGIN_TOL):
    if margins.keys() != reference.keys():
        return False
    return all(margins[c].keys() == reference[c].keys()
               and all(abs(margins[c][m] - reference[c][m]) <= tol for m in reference[c])
               for c in reference)


def mp_failures(located):
    """The (q, z, residual) of located zeros whose mpmath residual is too large."""
    checked = ((q, z, mp_scaled_residual(q, z)) for q, z in located)
    return [(q, z, r) for q, z, r in checked if not r <= MP_RESIDUAL_TOL]


def mp_scaled_residual(q, z, dps=40):
    """|theta(q, z)| / sum_j |q^{j(j+1)/2} z^j| summed in mpmath, independent of core."""
    with mpmath.workdps(dps):
        q, z = mpmath.mpc(q), mpmath.mpc(z)
        total, scale, term = mpmath.mpc(1), mpmath.mpf(1), mpmath.mpc(1)
        qj = mpmath.mpc(1)
        j = 0
        while True:
            j += 1
            qj *= q
            ratio = qj * z
            if abs(ratio) < 0.5 and abs(term) < mpmath.mpf(10) ** (-dps) * scale:
                return float(abs(total) / scale)
            term *= ratio
            total += term
            scale += abs(term)

"""Argument-principle zero counting and contour-moment location of the zeros of theta(q, .).

For q in the left half-disk the k-th zero sits near -q^{-k}; each one is
isolated inside the modulus annulus |q|^{-k+1/2} < |z| < |q|^{-k-1/2} (the
punctured disk |z| < |q|^{-3/2} for k = 1) whenever separation holds.  Zeros
inside a circle are counted by the argument principle: the 256 samples of
theta on each circle are one inverse FFT of the series terms (core's
`circle_terms`, folded by `fold_terms`), all circles of a call are rows of
one preallocated block and one 2-D pass, the phase increments between
neighbours below pi/2 are summed as an array, and only the other intervals
are bisected, one scalar evaluation per new point.

`verify_separation` also takes z theta' at the same samples, from a second
folded row of each circle in the same FFT pass.  The first moment
s1(r) = (1/N) sum_n z_n (z_n theta'_n) / theta_n is the trapezoid rule for
(1/2 pi i) times the integral of z theta'/theta around |z| = r (Delves and
Lyness, Math. Comp. 21, 1967): the sum of the zeros inside, to an error that
shrinks geometrically in N.  An annulus that holds one zero therefore has it
at s1(r_k) - s1(r_{k-1}).  That estimate z is checked on the terms c_j the
outer circle r_k already summed for its FFT, kept in its units 2^-E: one
Horner pass in w = z / r_k gives theta(z), theta'(z) and the scale
sum_j |c_j| |w|^j, within a rounding bound gamma_4J times that scale.  No
series is summed again at z, and Newton polishes the estimate only when it
misses the residual tolerance (or lies on or outside r_k).  Any other
annulus, and a bare `locate_zero`, runs Newton from the asymptotic position
-q^{-k}.

Near the k-th zero the term moduli grow like |q|^{-k^2/2}, past the float
range for k >= 25 at |q| = 0.1.  The series kernel behind the contour terms
and Newton therefore carries a binary exponent: values and scales are stored
times 2^-exponent.  Each Newton iterate takes theta and theta' from one pass
over the terms (core's `eval_theta_and_dz`), in one exponent, so the step
f / f', like the phases and the scaled modulus |theta| / scale, ignores it.

Residuals are backward-relative: |theta(z)| divided by the sum of the term
moduli at z.  The raw modulus |theta(z)| has an irreducible rounding floor
of about `scale * eps` (the series reaches 1e15 at desk-scale inputs), so
only the scaled residual is meaningful across the whole (q, k) range; the
raw value is recorded alongside, as inf where it leaves the float range.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    C0,
    DEFAULT_BUDGET,
    QParameter,
    as_q,
    circle_terms,
    eval_theta,
    eval_theta_and_dz,
    eval_theta_dz,  # noqa: F401  (kept importable: bench/tracer.py wraps zeros.eval_theta_dz)
    fold_terms,
    ldexp_complex,
)
from .errors import BudgetExceeded, ContourTooClose, DomainError, NoConvergence

# Below this scaled modulus the argument principle is considered unreliable.
CONTOUR_SAFETY = 1e-6

# Phase resolution machinery.
INITIAL_SAMPLES = 256
MAX_BISECTION_DEPTH = 12
WINDING_INTEGRALITY = 1e-3

MAX_NEWTON_ITERATIONS = 50


@dataclass(frozen=True)
class Annulus:
    """The region |q|^{-inner} < |z| < |q|^{-outer} for a fixed q.

    With `degenerate` set (requires inner == 0) the region is the punctured
    disk 0 < |z| < |q|^{-outer} instead.
    """

    inner_exponent: float
    outer_exponent: float
    degenerate: bool = False

    def __post_init__(self):
        if not self.outer_exponent > self.inner_exponent >= 0.0:
            raise DomainError(
                f"need outer > inner >= 0, got ({self.inner_exponent}, {self.outer_exponent})")
        if self.degenerate and self.inner_exponent != 0.0:
            raise DomainError("degenerate annulus requires inner_exponent == 0")

    @classmethod
    def for_index(cls, k):
        """Separation annulus of the k-th zero (punctured disk when k = 1)."""
        if k < 1:
            raise DomainError(f"k must be a positive integer, got {k!r}")
        if k == 1:
            return cls(0.0, 1.5, degenerate=True)
        return cls(k - 0.5, k + 0.5)

    def inner_radius(self, q):
        return 0.0 if self.degenerate else as_q(q).modulus ** -self.inner_exponent

    def outer_radius(self, q):
        return as_q(q).modulus ** -self.outer_exponent

    def contains(self, q, z):
        m = abs(z)
        return self.inner_radius(q) < m < self.outer_radius(q)


@dataclass(frozen=True)
class WindingResult:
    count: int
    samples_used: int
    min_modulus_on_contour: float  # scaled: min |theta| / scale over the samples


@dataclass(frozen=True)
class ZeroRecord:
    k: int
    location: complex
    residual: float          # |theta(location)| / scale  (backward-relative); in
                             # verify_separation, with newton_iterations 0, from the Horner
                             # check on the outer circle's terms, else from Newton's last pass
    annulus_ok: bool
    newton_iterations: int   # Newton steps from the seed; in verify_separation, polish
                             # steps from the moment estimate (0 when the Horner check of
                             # the estimate met the tolerance: no series pass was made)
    converged: bool
    theta_abs: float         # raw |theta(location)|, inf beyond the float range
    derivative_abs: float    # raw |theta'(location)|, likewise


@dataclass
class SeparationReport:
    q: complex
    k_max: int
    counts: dict = field(default_factory=dict)          # k -> int or None
    records: dict = field(default_factory=dict)         # k -> ZeroRecord or None
    combined_mid_count: int | None = None               # zeros with |q|^{-3/2} < |z| < |q|^{-7/2}
    strongly_separated: bool = False
    warnings: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)           # k -> error message


def winding_number(q, radius, initial_samples=INITIAL_SAMPLES, budget=DEFAULT_BUDGET):
    """Number of zeros of theta(q, .) inside |z| = radius, by phase tracking.

    Phase increments between neighbouring samples are computed as one
    array; those below pi/2 are summed, the others are refined by bisection
    until each is below pi/2 (depth-capped).  On intervals longer than
    2pi / (4 (n* + 1)), n* the index of the largest term on the circle, an
    increment must also lie within pi/2 of that term's own turn, or a coarse
    grid could read a turn of 2pi + d as d.  The accumulated phase must land
    within 1e-3 * 2pi of an integer multiple.  Raises ContourTooClose when
    the scaled modulus drops below the safety floor (a zero hugs the
    circle), BudgetExceeded when the phase cannot be resolved despite
    healthy moduli.  The one-circle case of `winding_numbers`.
    """
    (result,) = winding_numbers(q, [radius], initial_samples, budget)
    if isinstance(result, Exception):
        raise result
    return result


def winding_numbers(q, radii, initial_samples=INITIAL_SAMPLES, budget=DEFAULT_BUDGET):
    """`winding_number` for several circles at once; one entry per radius.

    An entry is the circle's WindingResult, or the ContourTooClose,
    BudgetExceeded or OverflowError that circle raised.  The initial samples
    of all circles are rows of one inverse FFT, and their increments, guard
    masks, phase totals and minimum moduli are computed as 2-D arrays; a
    circle whose series fails takes no row, and the row of a circle with a
    zero sample is replaced before any division.  Only the intervals that
    are not fine are bisected, circle by circle, one scalar evaluation per
    new point.
    """
    return _contours(q, radii, initial_samples, budget)[0]


def _contours(q, radii, initial_samples, budget, moments=False):
    """`winding_numbers`, and with `moments` the first moment s1 and the terms of each circle.

    Each circle's folded terms are written into its row of one zeroed
    block, in the order of the circles whose series succeed.  With
    `moments` a row is a (2, N) pair whose second row folds z theta'
    (core's `fold_terms`), and s1(r) = (1/N) sum_n z_n (z_n theta'_n) /
    theta_n over the N initial samples, the sum of the zeros inside
    |z| = r; theta and z theta' come from the same inverse FFT, so the
    exponent cancels in the ratio.  Returns the results, the moments and
    the circles' (terms, EvalResult) from core's `circle_terms`; a moment
    is None where the circle failed, its terms where its series did.
    """
    q = as_q(q)
    for radius in radii:
        if not (radius > 0 and math.isfinite(radius)):
            raise DomainError(f"radius must be positive and finite, got {radius!r}")
    n0 = max(int(initial_samples), 16)
    results, sums, terms = [None] * len(radii), [None] * len(radii), [None] * len(radii)
    block = np.zeros((len(radii), 2, n0) if moments else (len(radii), n0), dtype=complex)
    circles = []  # per row of the block: (index, scale, exponent)
    for i, radius in enumerate(radii):
        try:
            terms[i] = kept, res = circle_terms(q, radius, budget)
        except (BudgetExceeded, OverflowError) as exc:
            results[i] = exc
        else:
            fold_terms(kept, block[len(circles)])
            circles.append((i, res.scale, res.exponent))
    if not circles:
        return results, sums, terms
    samples = np.fft.ifft(block[:len(circles)], axis=-1, norm="forward")
    vals = samples[:, 0] if moments else samples
    minima = np.min(np.abs(vals), axis=1) / np.array([scale for _, scale, _ in circles])
    # a circle through an exact zero fails in _resolve_phase; no array divides by its samples
    vals[minima == 0.0] = 1.0
    n_stars = [max(0, math.floor(math.log(radii[i]) / -math.log(q.modulus)))  # last |q|^n r >= 1
               for i, _, _ in circles]
    # the least depth with n0 * 2^depth >= 4 (n* + 1)
    min_depths = [(-(-4 * (n_star + 1) // n0) - 1).bit_length() for n_star in n_stars]
    next_vals = np.concatenate((vals[:, 1:], vals[:, :1]), axis=1)
    increments = np.angle(next_vals / vals)
    fine = np.abs(increments) < math.pi / 2
    guarded = np.array(min_depths) > 0
    if guarded.any():
        turn = np.array(n_stars, dtype=float)[:, None] * 2.0 * math.pi / n0
        fine &= (np.abs(increments - turn) < math.pi / 2) | ~guarded[:, None]
    totals = np.sum(increments, axis=1, where=fine).tolist()

    step = 2.0 * math.pi / n0
    stacks = [[] for _ in circles]
    if not fine.all():
        for row, j in np.argwhere(~fine).tolist():
            a1 = (j + 1) * step if j + 1 < n0 else 2.0 * math.pi
            stacks[row].append((j * step, vals[row, j], a1, next_vals[row, j], 0))
    for row, (i, scale, exponent) in enumerate(circles):
        try:
            results[i] = _resolve_phase(q, radii[i], stacks[row], totals[row], float(minima[row]),
                                        n0, n_stars[row], min_depths[row], scale, exponent, budget)
        except (ContourTooClose, BudgetExceeded, OverflowError) as exc:
            results[i] = exc
    if moments:
        first = ((samples[:, 1] / vals) @ _unit_roots(n0) / n0
                 * [radii[i] for i, _, _ in circles]).tolist()
        for row, (i, _, _) in enumerate(circles):
            if isinstance(results[i], WindingResult):
                sums[i] = first[row]
    return results, sums, terms


@functools.lru_cache(maxsize=4)
def _unit_roots(n):
    """z_n / r = e^{2 pi i n / N} at the N samples of a circle (read-only: it is shared)."""
    roots = np.exp(2j * math.pi / n * np.arange(n))
    roots.flags.writeable = False
    return roots


def _resolve_phase(q, radius, stack, total, min_scaled, samples, n_star, min_depth,
                   scale, exponent, budget):
    """Bisect the intervals on `stack` of one circle and check its accumulated phase.

    `total` and `min_scaled` cover the fine intervals and the initial
    samples; bisection samples are carried into the units 2^exponent of the
    circle's array.
    """
    while True:
        if min_scaled == 0.0:
            raise ContourTooClose(f"theta vanishes on the contour |z| = {radius:g}",
                                  radius=radius, min_modulus=0.0)
        if not stack:
            break
        a0, v0, a1, v1, depth = stack.pop()
        increment = cmath.phase(v1 / v0)
        if abs(increment) < math.pi / 2 and (
                depth >= min_depth or abs(increment - n_star * (a1 - a0)) < math.pi / 2):
            total += increment
            continue
        local = min(abs(v0), abs(v1)) / scale
        if depth >= MAX_BISECTION_DEPTH:
            if local < 1e-3:
                raise ContourTooClose(
                    f"unresolved phase jump near angle {0.5 * (a0 + a1):.6f} on "
                    f"|z| = {radius:g} (scaled modulus {local:.2e}): probable zero on contour",
                    radius=radius, min_modulus=local)
            raise BudgetExceeded(
                f"phase not resolvable on |z| = {radius:g} at bisection depth {depth}")
        am = 0.5 * (a0 + a1)
        res = eval_theta(q, radius * cmath.exp(1j * am), budget)
        vm = ldexp_complex(res.value, res.exponent - exponent)
        samples += 1
        min_scaled = min(min_scaled, abs(vm) / scale)
        stack.append((a0, v0, am, vm, depth + 1))
        stack.append((am, vm, a1, v1, depth + 1))

    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > WINDING_INTEGRALITY:
        raise BudgetExceeded(
            f"accumulated phase {w:.6f} turns on |z| = {radius:g} is not integral")
    if min_scaled < CONTOUR_SAFETY:
        raise ContourTooClose(
            f"min scaled |theta| on |z| = {radius:g} is {min_scaled:.2e} < {CONTOUR_SAFETY:g}",
            radius=radius, min_modulus=min_scaled)
    return WindingResult(int(round(w)), samples, min_scaled)


def count_zeros_in_annulus(q, annulus, budget=DEFAULT_BUDGET):
    """Zeros (with multiplicity) strictly between the two boundary circles."""
    q = as_q(q)
    radii = [annulus.outer_radius(q)]
    if not annulus.degenerate:
        radii.append(annulus.inner_radius(q))
    counts = []
    for result in winding_numbers(q, radii, budget=budget):
        if isinstance(result, Exception):
            raise result
        counts.append(result.count)
    return counts[0] - sum(counts[1:])


def _raw_abs(modulus, exponent):
    """modulus * 2^exponent, inf where that leaves the float range."""
    try:
        return math.ldexp(modulus, exponent)
    except OverflowError:
        return math.inf


def _newton(q, seed, residual_tol, max_iterations, budget):
    """Newton iteration for theta(q, .) = 0; returns (record fields, converged).

    Converged: scaled residual below residual_tol within max_iterations steps,
    or after a step below rounding.
    """
    z = complex(seed)
    iterations, tiny = 0, False
    while True:
        f, fp = eval_theta_and_dz(q, z, budget)
        scaled = abs(f.value) / f.scale
        converged = scaled < residual_tol and (tiny or iterations < max_iterations)
        if converged or tiny or iterations == max_iterations or fp.value == 0:
            return (z, scaled, _raw_abs(abs(f.value), f.exponent),
                    _raw_abs(abs(fp.value), fp.exponent), iterations, converged)
        step = f.value / fp.value
        z -= step
        iterations += 1
        tiny = abs(step) <= 4.0 * 2.2e-16 * abs(z)


def locate_zero(q, k, residual_tol=1e-10, max_iterations=MAX_NEWTON_ITERATIONS,
                budget=DEFAULT_BUDGET, seed=None):
    """Locate the k-th zero by Newton refinement from `seed`, by default the asymptotic -q^{-k}.

    Raises NoConvergence if the tolerance is not met.
    """
    q = as_q(q)
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if seed is None:
        seed = -q.value ** (-k)
    annulus = Annulus.for_index(k)
    return _zero_record(q, k, seed, (annulus.inner_radius(q), annulus.outer_radius(q)),
                        residual_tol, max_iterations, budget)


def _zero_record(q, k, seed, radii, residual_tol, max_iterations, budget):
    """The ZeroRecord of the k-th zero by Newton from `seed`; NoConvergence if it misses.

    `radii` are the inner and outer radii of the k-th annulus, |q|^{-(k -+ 1/2)}
    (inner 0 for k = 1).
    """
    z, residual, raw, dmod, iterations, ok = _newton(q, seed, residual_tol,
                                                     max_iterations, budget)
    if not ok:
        raise NoConvergence(
            f"Newton did not reach residual {residual_tol:g} for k = {k} "
            f"(best scaled residual {residual:.2e} after {iterations} iterations)",
            k=k, iterations=iterations)
    inner, outer = radii
    return ZeroRecord(k=k, location=z, residual=residual,
                      annulus_ok=inner < abs(z) < outer,
                      newton_iterations=iterations, converged=True,
                      theta_abs=raw, derivative_abs=dmod)


def _horner(terms, w):
    """(sum_j c_j w^j, sum_j j c_j w^(j-1), sum_j |c_j| |w|^j) by Horner's rule over the c_j.

    For J terms the computed first sum is within gamma_4J sum_j |c_j| |w|^j
    of the exact one, gamma_m = m u / (1 - m u): Horner's bound for real
    arithmetic is gamma_2J times that sum (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 5.1), and a complex product
    is within sqrt(2) gamma_2 of the exact one (section 3.6), so each step
    contributes at most (1 + 2 sqrt(2)) u < 4u.  The other two sums carry
    rounding errors of the same order.
    """
    backwards = reversed(terms)
    value = next(backwards)
    slope, modulus, scale = 0j, abs(w), abs(value)
    for c in backwards:
        slope = slope * w + value
        value = value * w + c
        scale = scale * modulus + abs(c)
    return value, slope, scale


def _checked_estimate(k, z, circle, radii, residual_tol):
    """The ZeroRecord of a moment estimate z of the k-th zero if it meets `residual_tol`, else None.

    `circle` holds the terms c_j of the outer circle |z| = r_k and their
    EvalResult (core's `circle_terms`), in its units 2^-E, and `radii` the
    annulus radii (inner, r_k).  theta(z) = sum_j c_j w^j with w = z / r_k
    takes one Horner pass, with theta'(z) = sum_j j c_j w^(j-1) / r_k and
    the scale sum_j |c_j| |w|^j.  Inside the circle |w| < 1, so the
    circle's tail bound also bounds the terms the pass drops and joins the
    scale.  An estimate on or outside the circle gets None.
    """
    inner, outer = radii
    modulus = abs(z)
    if not modulus < outer:
        return None
    terms, res = circle
    value, slope, scale = _horner(terms, z / outer)
    residual = abs(value) / (scale + res.tail_bound)
    if not residual < residual_tol:
        return None
    # |slope| / r_k can underflow where |theta'| = 2^E |slope| / r_k does not: divide by the
    # mantissa of r_k and move its binary exponent into E
    mantissa, binary = math.frexp(outer)
    return ZeroRecord(k=k, location=z, residual=residual, annulus_ok=inner < modulus,
                      newton_iterations=0, converged=True,
                      theta_abs=_raw_abs(abs(value), res.exponent),
                      derivative_abs=_raw_abs(abs(slope) / mantissa, res.exponent - binary))


def verify_separation(q, k_max, residual_tol=1e-10, budget=DEFAULT_BUDGET, on_error="raise"):
    """Count and locate the zeros for k = 1..k_max and check the annulus conditions.

    Declares strong separation iff every annulus holds exactly one zero and
    every located zero satisfies its modulus condition.  The zero of an
    annulus that holds one is the difference of the first moments of its
    boundary circles.  It is checked by one Horner pass over the terms its
    outer circle summed for the contour (`_checked_estimate`), and polished
    by Newton from the estimate only if it misses `residual_tol` or does not
    lie inside that circle; any other annulus runs `locate_zero`.  With
    on_error="record", per-k contour/convergence failures are noted in the
    report instead of raised.
    """
    q = as_q(q)
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max!r}")
    if on_error not in ("raise", "record"):
        raise DomainError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    report = SeparationReport(q=q.value, k_max=k_max)
    if not (q.in_left_half_disk(0.6) or q.in_punctured_disk(C0)):
        msg = (f"q = {q.value!r} is outside both the left half-disk of radius 0.6 "
               f"and the disk |q| <= {C0}; separation is not guaranteed there")
        warnings.warn(msg, stacklevel=2)
        report.warnings.append(msg)

    windings, moments = {0: 0}, {0: 0j}
    radii, circles = {}, {}
    for k in range(1, k_max + 1):
        try:
            radii[k] = q.modulus ** -(k + 0.5)
        except OverflowError as exc:  # the radius itself leaves the float range
            circles[k] = exc
    results, sums, terms = _contours(q, list(radii.values()), INITIAL_SAMPLES, budget,
                                     moments=True)
    circles.update(zip(radii, results))
    moments.update(zip(radii, sums))
    terms = dict(zip(radii, terms))
    for k in range(1, k_max + 1):
        result = circles[k]
        if isinstance(result, Exception):
            if on_error == "raise":
                result.k = k
                raise result
            windings[k] = None
            report.notes[k] = f"contour |z| = |q|^-{k + 0.5}: {result}"
        else:
            windings[k] = result.count

    for k in range(1, k_max + 1):
        below, above = windings[k - 1], windings[k]
        report.counts[k] = None if (below is None or above is None) else above - below
        try:
            if report.counts[k] == 1:  # both circles counted, so both have a moment
                estimate = moments[k] - moments[k - 1]
                if not q.value.imag:  # the lone zero of an annulus is then its own conjugate
                    estimate = complex(estimate.real)
                annulus = (radii.get(k - 1, 0.0), radii[k])  # |q|^{-(k -+ 1/2)}, 0 for k = 1
                report.records[k] = (
                    _checked_estimate(k, estimate, terms[k], annulus, residual_tol)
                    or _zero_record(q, k, estimate, annulus, residual_tol,
                                    MAX_NEWTON_ITERATIONS, budget))
            else:
                report.records[k] = locate_zero(q, k, residual_tol=residual_tol, budget=budget)
        except (NoConvergence, ContourTooClose, BudgetExceeded, OverflowError) as exc:
            if on_error == "raise":
                exc.k = k
                raise
            report.records[k] = None
            report.notes[k] = report.notes.get(k, "") + f" locate k={k}: {exc}"

    if k_max >= 3 and windings.get(1) is not None and windings.get(3) is not None:
        report.combined_mid_count = windings[3] - windings[1]
    report.strongly_separated = all(
        report.counts.get(k) == 1
        and report.records.get(k) is not None
        and report.records[k].annulus_ok
        and report.records[k].converged
        for k in range(1, k_max + 1))
    return report


def trace_zero_ray(arg_q, k, r_start, r_end, steps, residual_tol=1e-10,
                   budget=DEFAULT_BUDGET):
    """Follow the k-th zero as |q| sweeps [r_start, r_end] along a fixed ray.

    Each step seeds Newton from the previous zero (the first from -q^{-k});
    NoConvergence is re-raised with the failing |q| attached.
    """
    if not math.pi / 2 - 1e-12 <= arg_q <= 3 * math.pi / 2 + 1e-12:
        raise DomainError(f"arg_q must lie in [pi/2, 3pi/2], got {arg_q!r}")
    if not 0.0 < r_start <= r_end <= 0.6:
        raise DomainError(f"need 0 < r_start <= r_end <= 0.6, got ({r_start}, {r_end})")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps!r}")
    radii = [r_start] if (steps == 1 or r_start == r_end) else \
        list(np.linspace(r_start, r_end, steps))
    records = []
    seed = None
    for r in radii:
        q = QParameter.from_polar(r, arg_q)
        try:
            rec = locate_zero(q, k, residual_tol=residual_tol, budget=budget, seed=seed)
        except NoConvergence as exc:
            exc.radius = r
            raise
        records.append(rec)
        seed = rec.location
    return records

"""Argument-principle zero counting and Newton location of the zeros of theta(q, .).

For q in the left half-disk the k-th zero sits near -q^{-k}; each one is
isolated inside the modulus annulus |q|^{-k+1/2} < |z| < |q|^{-k-1/2} (the
punctured disk |z| < |q|^{-3/2} for k = 1) whenever separation holds.  Zeros
inside a circle are counted by the argument principle: the 256 samples of
theta on each circle are one inverse FFT of the series terms (core's
`circle_coefficients`), all circles of a call are rows of one 2-D pass, the
phase increments between neighbours below pi/2 are summed as an array, and
only the other intervals are bisected, one scalar evaluation per new point.
Locations are refined by Newton's method seeded from the asymptotic
position.

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
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    C0,
    DEFAULT_BUDGET,
    QParameter,
    as_q,
    circle_coefficients,
    eval_theta,
    eval_theta_and_dz,
    eval_theta_dz,  # noqa: F401  (kept importable: bench/tracer.py wraps zeros.eval_theta_dz)
    ldexp_complex,
)
from .errors import BudgetExceeded, ContourTooClose, DomainError, NoConvergence

# Below this scaled modulus the argument principle is considered unreliable.
CONTOUR_SAFETY = 1e-6

# Phase resolution machinery.
INITIAL_SAMPLES = 256
MAX_BISECTION_DEPTH = 12
WINDING_INTEGRALITY = 1e-3


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
    residual: float          # |theta(location)| / scale  (backward-relative)
    annulus_ok: bool
    newton_iterations: int
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
    q = as_q(q)
    for radius in radii:
        if not (radius > 0 and math.isfinite(radius)):
            raise DomainError(f"radius must be positive and finite, got {radius!r}")
    n0 = max(int(initial_samples), 16)
    results = [None] * len(radii)
    circles, rows = [], []  # per row of the sample array: (index, scale, exponent)
    for i, radius in enumerate(radii):
        try:
            row, scale, exponent = circle_coefficients(q, radius, n0, budget)
        except (BudgetExceeded, OverflowError) as exc:
            results[i] = exc
        else:
            circles.append((i, scale, exponent))
            rows.append(row)
    if not rows:
        return results
    vals = np.fft.ifft(np.array(rows), axis=1, norm="forward")
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
    return results


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


def _raw_abs(res):
    """|value| of an EvalResult in absolute units, inf where that leaves the float range."""
    try:
        return math.ldexp(abs(res.value), res.exponent)
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
            return z, scaled, _raw_abs(f), _raw_abs(fp), iterations, converged
        step = f.value / fp.value
        z -= step
        iterations += 1
        tiny = abs(step) <= 4.0 * 2.2e-16 * abs(z)


def locate_zero(q, k, residual_tol=1e-10, max_iterations=50, budget=DEFAULT_BUDGET, seed=None):
    """Locate the k-th zero by Newton refinement from the asymptotic seed -q^{-k}.

    Raises NoConvergence if the tolerance is not met; callers may retry with
    a sharper seed (see verify_separation's annulus-bisection fallback).
    """
    q = as_q(q)
    if k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if seed is None:
        seed = -q.value ** (-k)
    z, residual, raw, dmod, iterations, ok = _newton(q, seed, residual_tol,
                                                     max_iterations, budget)
    if not ok:
        raise NoConvergence(
            f"Newton did not reach residual {residual_tol:g} for k = {k} "
            f"(best scaled residual {residual:.2e} after {iterations} iterations)",
            k=k, iterations=iterations)
    annulus = Annulus.for_index(k)
    return ZeroRecord(k=k, location=z, residual=residual,
                      annulus_ok=annulus.contains(q, z),
                      newton_iterations=iterations, converged=True,
                      theta_abs=raw, derivative_abs=dmod)


def _bisection_seed(q, k, budget, levels=6):
    """Narrow the k-th annulus by winding counts and return a refined seed.

    Splits [r_in, r_out] at geometric means, keeping the sub-annulus that
    holds a zero; the seed's phase comes from the asymptotic -q^{-k}.
    """
    annulus = Annulus.for_index(k)
    lo = annulus.inner_radius(q)
    if lo == 0.0:
        lo = q.modulus ** 0.5  # harmless positive floor inside the punctured disk
    hi = annulus.outer_radius(q)
    w_lo = winding_number(q, lo, budget=budget).count
    for _ in range(levels):
        mid = math.sqrt(lo * hi)
        w_mid = winding_number(q, mid, budget=budget).count
        if w_mid > w_lo:
            hi = mid
        else:
            lo, w_lo = mid, w_mid
    phase = cmath.phase(-q.value ** (-k))
    return cmath.rect(math.sqrt(lo * hi), phase)


def _locate_with_fallback(q, k, residual_tol, budget):
    try:
        return locate_zero(q, k, residual_tol=residual_tol, budget=budget)
    except NoConvergence:
        seed = _bisection_seed(q, k, budget)
        return locate_zero(q, k, residual_tol=residual_tol, budget=budget, seed=seed)


def verify_separation(q, k_max, residual_tol=1e-10, budget=DEFAULT_BUDGET, on_error="raise"):
    """Count and locate the zeros for k = 1..k_max and check the annulus conditions.

    Declares strong separation iff every annulus holds exactly one zero and
    every located zero satisfies its modulus condition.  With
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

    windings = {0: 0}
    radii, circles = {}, {}
    for k in range(1, k_max + 1):
        try:
            radii[k] = q.modulus ** -(k + 0.5)
        except OverflowError as exc:  # the radius itself leaves the float range
            circles[k] = exc
    circles.update(zip(radii, winding_numbers(q, list(radii.values()), budget=budget)))
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
            report.records[k] = _locate_with_fallback(q, k, residual_tol, budget)
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

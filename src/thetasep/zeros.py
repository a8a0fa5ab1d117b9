"""Argument-principle zero counting and Newton location of the zeros of theta(q, .).

For q in the left half-disk the k-th zero sits near -q^{-k}; each one is
isolated inside the modulus annulus |q|^{-k+1/2} < |z| < |q|^{-k-1/2} (the
punctured disk |z| < |q|^{-3/2} for k = 1) whenever separation holds.  Zeros
inside a circle are counted by the argument principle: theta is summed at
256 points of the circle in one array pass, the phase increments between
neighbours below pi/2 are summed as an array, and only the other intervals
are bisected, one scalar evaluation per new point.  Locations are refined
by Newton's method seeded from the asymptotic position.

Near the k-th zero the term moduli grow like |q|^{-k^2/2}, past the float
range for k >= 25 at |q| = 0.1.  Both series kernels used here (core's
contour array `theta_on_circle` and its scalar kernel behind `eval_theta`)
therefore carry a binary exponent: values and scales are stored times
2^-exponent.  Phases, Newton steps f / f' (times 2^(e_f - e_f')) and the
scaled modulus |theta| / scale do not depend on it.

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
    eval_theta,
    eval_theta_dz,
    ldexp_complex,
    theta_on_circle,
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
    until each is below pi/2 (depth-capped).  The accumulated phase must
    land within 1e-3 * 2pi of an integer multiple.  Raises ContourTooClose
    when the scaled modulus drops below the safety floor (a zero hugs the
    circle), BudgetExceeded when the phase cannot be resolved despite
    healthy moduli.
    """
    q = as_q(q)
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    n0 = max(int(initial_samples), 16)
    angles = np.linspace(0.0, 2.0 * math.pi, n0, endpoint=False)
    vals, scale, exponent = theta_on_circle(q, radius, angles, budget)
    samples = n0
    min_scaled = float(np.min(np.abs(vals))) / scale
    if min_scaled == 0.0:
        raise ContourTooClose(f"theta vanishes on the contour |z| = {radius:g}",
                              radius=radius, min_modulus=0.0)

    def point(angle):
        res = eval_theta(q, radius * cmath.exp(1j * angle), budget)
        return ldexp_complex(res.value, res.exponent - exponent)

    next_vals = np.roll(vals, -1)
    increments = np.angle(next_vals / vals)
    fine = np.abs(increments) < math.pi / 2
    total = float(np.sum(increments[fine]))
    stack = []
    for i in np.flatnonzero(~fine):
        a1 = angles[i + 1] if i + 1 < n0 else 2.0 * math.pi
        stack.append((angles[i], vals[i], a1, next_vals[i], 0))
    while stack:
        a0, v0, a1, v1, depth = stack.pop()
        increment = cmath.phase(v1 / v0)
        if abs(increment) < math.pi / 2:
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
        vm = point(am)
        samples += 1
        min_scaled = min(min_scaled, abs(vm) / scale)
        if min_scaled == 0.0:
            raise ContourTooClose(f"theta vanishes on the contour |z| = {radius:g}",
                                  radius=radius, min_modulus=0.0)
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
    outer = winding_number(q, annulus.outer_radius(q), budget=budget)
    if annulus.degenerate:
        return outer.count
    inner = winding_number(q, annulus.inner_radius(q), budget=budget)
    return outer.count - inner.count


def _raw_abs(res):
    """|value| of an EvalResult in absolute units, inf where that leaves the float range."""
    try:
        return math.ldexp(abs(res.value), res.exponent)
    except OverflowError:
        return math.inf


def _newton(q, seed, residual_tol, max_iterations, budget):
    """Newton iteration for theta(q, .) = 0; returns (record fields, converged)."""
    z = complex(seed)
    iterations = 0
    for _ in range(max_iterations):
        f = eval_theta(q, z, budget)
        scaled = abs(f.value) / f.scale
        if scaled < residual_tol:
            fp = eval_theta_dz(q, z, budget)
            return z, scaled, _raw_abs(f), _raw_abs(fp), iterations, True
        fp = eval_theta_dz(q, z, budget)
        if fp.value == 0:
            break
        step = ldexp_complex(f.value / fp.value, f.exponent - fp.exponent)
        z -= step
        iterations += 1
        if abs(step) <= 4.0 * 2.2e-16 * abs(z):
            f = eval_theta(q, z, budget)
            scaled = abs(f.value) / f.scale
            fp = eval_theta_dz(q, z, budget)
            return z, scaled, _raw_abs(f), _raw_abs(fp), iterations, scaled < residual_tol
    f = eval_theta(q, z, budget)
    fp = eval_theta_dz(q, z, budget)
    return z, abs(f.value) / f.scale, _raw_abs(f), _raw_abs(fp), iterations, False


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
    for k in range(1, k_max + 1):
        try:
            windings[k] = winding_number(q, q.modulus ** -(k + 0.5), budget=budget).count
        except (ContourTooClose, BudgetExceeded, OverflowError) as exc:
            if on_error == "raise":
                exc.k = k
                raise
            windings[k] = None
            report.notes[k] = f"contour |z| = |q|^-{k + 0.5}: {exc}"

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

"""Zeros of theta(q, .): counted by Rouche in closed form or by the argument principle, and located.

For q in the left half-disk the k-th zero sits near -q^{-k}; each one is
isolated inside the modulus annulus |q|^{-k+1/2} < |z| < |q|^{-k-1/2} (the
punctured disk |z| < |q|^{-3/2} for k = 1) whenever separation holds.

An annulus is counted in closed form where it can be, by Rouche's theorem
against theta* = theta + G = Q U R (Jacobi's triple product), whose zeros
-q^{-m} are known exactly: where |G| < |theta*| on both boundary circles,
theta has as many zeros between them as theta*, one for each integer m
between the two exponents.  Both sides are bounded from |q| and |Q(q)|
alone, in logs, with a proven rounding allowance (`count_zeros_in_annulus`
holds the proof), so no series is summed.

Every other count, and every winding number, is proven by the argument
principle: the 256 samples of theta on each circle are one inverse FFT of
the series terms (core's `circle_terms`), all circles of a call are rows of
one block that core's `fold_terms` fills in one call and one 2-D pass
transforms (`_contours`), an arc whose two samples clear a proven pad is
decided in that pass (`_resolve_phase`), and only the other arcs are
bisected, one Horner pass over the circle's kept terms a new point.

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
misses the residual tolerance.  An estimate outside its annulus, any other
annulus, and a bare `locate_zero` run Newton from the asymptotic position
-q^{-k}.


Near the k-th zero the term moduli grow like |q|^{-k^2/2}, past the float
range for k >= 25 at |q| = 0.1.  Core's `circle_terms` therefore carries a
binary exponent: a circle's terms, tail and scale are stored times 2^-E.
Every value of theta at a point (a bisection midpoint, a moment estimate,
a Newton iterate) is one Horner pass (`_horner`) over the kept terms of a
circle, in that circle's units, so the phases, the Newton step f / f' and
the scaled modulus |theta| / scale ignore E.

Newton points also skip the terms far below the largest one, by the shift
identity (from theta(q, z) = 1 + q z theta(q, q z) applied J times)

    theta(q, z) = sum_{j<J} c_j + q^{J(J+1)/2} z^J theta(q, q^J z),

c_j = q^{j(j+1)/2} z^j.  With t_j = ln(|q|^j |z|), |c_{j-1} / c_j| = e^{-t_j},
so where |q| / |x| <= 1/2, x = q^J z, the head sum_{j<J} |c_j| is at most
|c_J| / (|x| - |q|).  J is the largest index for which that bound is at most
HEAD_FRACTION = 2^-53 of the largest term (`_head_shift`); after the sum the
bound is checked against the kept series' own scale (`_head_bound`), and
where it fails the point is summed unshifted, as with J = 0.  A Newton
iterate z takes the kept terms c_i of theta(q, q^J |z|) and one Horner pass
at w = z / |z|: theta(q, q^J z) = sum_i c_i w^i and its slope
J theta / z + sum_i i c_i w^{i-1} / |z|; the factor q^{J(J+1)/2} z^J cancels
in the step and the residual.  Every counting and moment circle sums theta
unshifted, from j = 0.

Residuals are backward-relative: |theta(z)| divided by the sum of the term
moduli at z.  The raw modulus |theta(z)| has an irreducible rounding floor
of about `scale * eps` (the series reaches 1e15 at desk-scale inputs), so
only the scaled residual is meaningful across the whole (q, k) range; the
raw value is recorded alongside, as inf where it leaves the float range.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
import operator
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import (
    C0,
    DEFAULT_BUDGET,
    as_q,
    circle_terms,
    eval_Q,
    eval_theta,  # noqa: F401  (kept importable: bench/tracer.py wraps zeros.eval_theta
    eval_theta_dz,  # noqa: F401  and zeros.eval_theta_dz)
    fold_terms,
    require_finite,
)
from .errors import BudgetExceeded, ContourTooClose, DomainError, NoConvergence

# A shifted Newton sum drops the head sum_{j<J} |c_j| only where its proven bound is at most
# this fraction of the scale of the terms it keeps: below the rounding of that sum.
HEAD_FRACTION = 2.0 ** -53
_LN2 = math.log(2.0)
_LOG_KEPT_FLOOR = math.log(2.0 / HEAD_FRACTION)  # 54 ln 2: see `_head_shift`
_LOG_MIN_NORMAL = -math.log(sys.float_info.min)  # |q|^J is normal while J ln(1/|q|) is below
# Relative allowance on the computed head bound for the roundings of q^J, x = q^J z, |x| and
# the bound itself: q^J is a product of at most 2 log2 J rounded factors, or an exp/log pair
# with an error of about |J log q| u <= 710 u, far below 2^-30 either way.
_HEAD_ROUNDING = 1.0 + 2.0 ** -30

# A count also needs every sample's scaled modulus at least this.
CONTOUR_SAFETY = 1e-6

# Contour sampling: initial samples per circle, and the most halvings of an arc.
INITIAL_SAMPLES = 256
MAX_BISECTION_DEPTH = 12

MAX_NEWTON_ITERATIONS = 50
# Below this |q| the rounding of a moment estimate, about 2^-52 r_k, passes the inner radius
# |q| r_k of its annulus, so an estimate that fails its Horner check is no Newton seed.
MOMENT_SEED_MIN_MODULUS = 2.0 ** -48


def _positive_index(value, name):
    """`value` as an int >= 1; DomainError for anything else, a float with an integer value too."""
    try:
        index = operator.index(value)
    except TypeError:
        index = 0
    if index < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return index


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
        k = _positive_index(k, "k")
        if k == 1:
            return cls(0.0, 1.5, degenerate=True)
        return cls(k - 0.5, k + 0.5)

    def inner_radius(self, q):
        return 0.0 if self.degenerate else _radius(q, self.inner_exponent)

    def outer_radius(self, q):
        return _radius(q, self.outer_exponent)

    def contains(self, q, z):
        m = abs(z)
        return self.inner_radius(q) < m < self.outer_radius(q)


def _radius(q, exponent):
    """|q|^-exponent; OverflowError naming the radius where it leaves the float range."""
    try:
        return as_q(q).modulus ** -exponent
    except OverflowError:
        raise OverflowError(f"the radius |q|^-{exponent} leaves the float range") from None


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


# A counting circle of `_contours`: its place among the radii, its kept terms and their EvalResult
# (core's `circle_terms`), m, M1 and allowance (`_resolve_phase`).
_Circle = namedtuple("_Circle", "index terms res m slope allowance")


def _head_shift(q, modulus):
    """Newton's shift J on |z| = modulus: the largest whose head is provably negligible.

    With a = -ln|q|, b = ln|z| and t_j = ln(|q|^j |z|) = b - a j, the ratio
    |c_{j-1} / c_j| is e^{-t_j}.  In units of |c_J| the head sum_{j<J} |c_j|
    is therefore at most 1 / (|x| - |q|) = e^{-t_J} / (1 - rho), |x| = e^{t_J},
    where rho = |q| / |x| = e^{-t_{J-1}} bounds its backward ratios, and the
    largest kept term is |c_{n*} / c_J| = e^{t_{J+1} + ... + t_{n*}}, with
    n* = floor(b / a).  J is the largest index with rho <= 1/2 (then
    1 / (1 - rho) <= 2) and head <= HEAD_FRACTION times that term, that is
    t_{J-1} >= ln 2 and t_J + ... + t_{n*} >= ln(2 / HEAD_FRACTION); 0 where
    no J >= 1 has both or |q|^J is not a normal float.  With s = t_{n*} and m = n* - J the sum is
    g(m) = (m + 1)(s + a m / 2), so m is the least root of a quadratic.
    `_head_bound` proves the head on the computed sum.
    """
    a, b = -math.log(q.modulus), math.log(modulus)
    n_star = math.floor(b / a)
    if n_star < 1:
        return 0
    s = b - a * n_star
    half = 0.5 * a + s  # g(m) = a m^2 / 2 + half m + s
    m = max(0, math.ceil((math.sqrt(half * half - 2.0 * a * (s - _LOG_KEPT_FLOOR)) - half) / a))
    if (m + 1) * (s + 0.5 * a * m) < _LOG_KEPT_FLOOR:  # the rounding of the root
        m += 1
    elif m and m * (s + 0.5 * a * (m - 1)) >= _LOG_KEPT_FLOOR:
        m -= 1
    m = max(m, math.ceil((_LN2 - s) / a) - 1)  # t_{J-1} = s + a (m + 1) >= ln 2
    shift = n_star - m
    return shift if shift > 0 and a * shift < _LOG_MIN_NORMAL else 0


def _head_bound(q, x, res):
    """The head dropped by the shift to x = q^J z, in units of the kept sum's result `res`, or None.

    Terms c_{J+i} = c_J q^{i(i+1)/2} x^i, so sum_{j>=J} c_j = c_J theta(q, x),
    and the head sum_{j<J} |c_j| is at most |c_J| / (|x| - |q|) (see
    `_head_shift`).  In the units 2^-exponent of `res`, which sums
    theta(q, x) from t_0 = 1, that is the returned bound.  None where the
    backward ratio |q| / |x| passes 1/2 or the bound passes HEAD_FRACTION of
    the kept scale, so that the shift must not be taken.
    """
    modulus = abs(x)
    if not modulus >= 2.0 * q.modulus:
        return None
    head = math.ldexp(_HEAD_ROUNDING / (modulus - q.modulus), -res.exponent)
    return head if head <= HEAD_FRACTION * res.scale else None


def _shifted_circle(q, radius, shift, budget):
    """(terms, result, J, head): the kept terms of a Newton point's circle |z| = radius.

    With `shift` = J >= 1, the caller's `_head_shift`, the terms are those of
    theta(q, x) at the centre x = q^J radius, and head is their scaled
    dropped head (`_head_bound`, as a share of the kept scale); a Horner pass
    over them at w = z / radius gives theta(q, z) / (q^{J(J+1)/2} z^J) up to
    the head.  Where J is 0, the head check fails or the shifted sum raises,
    it is the unshifted circle: the terms of theta(q, radius), J = 0 and
    head 0.
    """
    if shift:
        centre = q.value ** shift * radius
        try:
            kept, res = circle_terms(q, centre, budget)
        except (BudgetExceeded, OverflowError):
            pass
        else:
            head = _head_bound(q, centre, res)
            if head is not None:
                return kept, res, shift, head / res.scale
    kept, res = circle_terms(q, radius, budget)
    return kept, res, 0, 0.0


def winding_number(q, radius, initial_samples=INITIAL_SAMPLES, budget=DEFAULT_BUDGET):
    """Number of zeros of theta(q, .) inside |z| = radius, proven by `_resolve_phase`'s pads.

    Raises ContourTooClose when the scaled modulus drops below the safety
    floor or an arc fails its pad at the depth cap with a small modulus (a
    zero hugs the circle), BudgetExceeded when it fails there with a
    healthy one.  The one-circle case of `winding_numbers`.
    """
    (result,) = winding_numbers(q, [radius], initial_samples, budget)
    if isinstance(result, Exception):
        raise result
    return result


def winding_numbers(q, radii, initial_samples=INITIAL_SAMPLES, budget=DEFAULT_BUDGET):
    """`winding_number` for several circles at once; one entry per radius.

    An entry is the circle's WindingResult, or the ContourTooClose,
    BudgetExceeded or OverflowError that circle raised.  The circles are
    rows of one 2-D pass (`_contours`); a circle whose series fails takes no
    row, and a row with a zero sample is replaced before any division.
    """
    return _contours(q, radii, initial_samples, budget)[0]


def _contours(q, radii, initial_samples, budget, moments=False):
    """`winding_numbers`, and with `moments` the first moment s1 and the terms of each circle.

    Each radius sums theta unshifted.  The terms of the circles whose series succeed, in
    their order, become the rows of one block by one call of core's `fold_terms`, and the
    block takes one inverse FFT.  With `moments` a row is a (2, N) pair whose second row folds
    z theta', and
    s1(r) = (1/N) sum_n z_n (z_n theta'_n) / theta_n over the N initial
    samples, the sum of the zeros inside |z| = r; theta and z theta' come
    from the same inverse FFT, so the exponent cancels in the ratio.  The
    arcs take `_resolve_phase`'s test as one array, with m = n* (the last n
    with |q|^n r >= 1); those that fail go onto per-circle heaps for it.
    Each circle's M1 comes from its series pass (core's `circle_terms` with
    pivot m), not from a second pass over its terms; -ln|q| and the FFT's
    share of eps are formed once a call.
    Returns the results, the moments and each radius's `_Circle`: its kept
    terms and their EvalResult (core's `circle_terms`); a moment is None
    where the circle failed, its `_Circle` where its series did.
    """
    q = as_q(q)
    for radius in radii:
        if not (radius > 0 and math.isfinite(radius)):
            raise DomainError(f"radius must be positive and finite, got {radius!r}")
    n0 = max(int(initial_samples), 16)
    results, sums, taken = [None] * len(radii), [None] * len(radii), [None] * len(radii)
    circles = []  # the _Circle of each row
    # -ln|q|, and the inverse FFT's share of eps / scale for n0 samples (see `_resolve_phase`)
    a, fft = -math.log(q.modulus), 2.0 ** -48 * math.log2(n0) * math.sqrt(n0)
    for i, radius in enumerate(radii):
        m = max(0, math.floor(math.log(radius) / a))
        try:
            kept, res, slope = circle_terms(q, radius, budget, pivot=m)
        except (BudgetExceeded, OverflowError) as exc:
            results[i] = exc
        else:
            circles.append(_Circle(i, kept, res, m, slope, res.tail_bound + res.scale * (
                2.0 ** -52 * (len(kept) + 6) ** 2 + fft)))
            taken[i] = circles[-1]
    if not circles:
        return results, sums, taken
    samples = np.fft.ifft(fold_terms([c.terms for c in circles], n0, moments), axis=-1,
                          norm="forward")
    vals = samples[:, 0] if moments else samples
    moduli = np.abs(vals)
    lows = moduli.min(axis=1).tolist()
    minima = [low / circle.res.scale for low, circle in zip(lows, circles)]
    if 0.0 in minima:
        # a circle through an exact zero fails its contour floor; no array divides by its samples
        vals[[low == 0.0 for low in minima]] = 1.0
    step = 2.0 * math.pi / n0
    pads = [c.slope * 0.5 * step + c.allowance for c in circles]
    next_vals = np.concatenate((vals[:, 1:], vals[:, :1]), axis=1)
    ratios = next_vals / vals
    ratios *= np.exp([-1j * step * c.m for c in circles])[:, None]
    increments = np.arctan2(ratios.imag, ratios.real)  # np.angle without its wrapper
    totals = increments.sum(axis=1).tolist()
    width = 1 << MAX_BISECTION_DEPTH  # an initial arc in `_resolve_phase`'s angle units
    arcs = [[] for _ in circles]
    for row in [row for row, (low, pad) in enumerate(zip(lows, pads)) if low <= pad]:
        # an arc fails where a sample at either end is within the pad: its increment is taken back
        inside = np.flatnonzero(moduli[row] <= pads[row]).tolist()
        for j in sorted({(j + end) % n0 for j in inside for end in (-1, 0)}):
            totals[row] -= increments[row, j]
            if minima[row]:  # else the floor refuses the circle
                ends = vals[row, j], next_vals[row, j]
                arcs[row].append((min(map(abs, ends)), j * width, (j + 1) * width, *ends))
    for row, circle in enumerate(circles):
        try:
            results[circle.index] = _resolve_phase(radii[circle.index], arcs[row], totals[row],
                                                   minima[row], n0, circle)
        except (ContourTooClose, BudgetExceeded, OverflowError) as exc:
            results[circle.index] = exc
    if moments:
        first = ((samples[:, 1] / vals) @ _unit_roots(n0)
                 * [radii[c.index] for c in circles]).tolist()
        for row, circle in enumerate(circles):
            if isinstance(results[circle.index], WindingResult):
                sums[circle.index] = first[row]
    return results, sums, taken


@functools.lru_cache(maxsize=4)
def _unit_roots(n):
    """(z_n / r) / N = e^{2 pi i n / N} / N at the N samples of a circle (read-only: shared)."""
    roots = np.exp(2j * math.pi / n * np.arange(n)) / n
    roots.flags.writeable = False
    return roots


def _resolve_phase(radius, arcs, total, min_scaled, n0, circle):
    """Decide the `arcs` of one circle that failed the array test, by bisection; its WindingResult.

    The `circle` (see `_contours`) keeps terms c_j at bins j in units 2^-E, so its samples are
    those of v(psi) = sum_j c_j e^{i j psi}, within tail of T(psi) = theta(q, r e^{i psi}) / 2^E.
    A computed sample is within
    eps = scale (2^-52 (L + 6)^2 + 2^-48 sqrt(N) log2 N) of v for L terms and N samples.  In
    core's `circle_terms` c_j is c_{j-1} (q^j r), q^j a running product, so c_j carries
    at most (j^2 + 3j) / 2 complex products, each of relative error 2.25 u or less, u = 2^-53:
    with j < L, under 1.14 (L^2 + L) u |c_j|, in all under 0.57 of the first part.  Its rest,
    0.43 (L + 6)^2 2^-52 scale, covers the folds (under (L / N + 1) u scale), the shortfall of
    the computed M1 times w / 2 < 0.2 (under (L + 1) u M1 <= (L^2 + L) u scale) and the
    roundings of the pad and the test (a few u scale).  An inverse FFT is within
    log2(N) (u + gamma_4 (sqrt 2 + u)) sqrt(N) scale of the exact sums (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 24.1), covered by the second part.  A
    midpoint takes neither folds nor the FFT: it is one Horner pass (`_horner`) over the c_j
    at the computed w = e^{i psi}.  Each angle is an exact integer times the rounded
    2 pi / D, so within 3u 2 pi < 19u, and cmath.exp adds under 2u: w is within 21u of
    e^{i psi}, which moves sum_j c_j w^j by under 21 L u scale (1 + 21 L u).  Horner's
    rounding is under gamma_4L (1 + 2u)^L scale.  For L u < 2^-20 that is under 12.6 L 2^-52
    scale, and eps less the term roundings, M1 and the pad leaves at least (0.33 L^2 +
    5.06 L + 12.48 + 256) 2^-52 scale, the 256 from the second part at N >= 16; the
    difference, a quadratic in L of discriminant 7.54^2 - 4 0.33 268.48 < 0, is positive at
    every L.  So allowance = tail + eps bounds |sample - T| at every sample, initial or
    midpoint.

    M1 is formed in core's `circle_terms` loop from each running |c_j|, rescaled with the scale
    (pivot m): the products and sums, in order, of the sum over the kept c_j, so the share
    above holds as it did for that sum.  A kept term that is subnormal enters M1 with its
    modulus before that rounding, within 2^-1074 |j - m| of it, far inside the same share.

    With g = e^{-i m psi} v, |g'| <= M1 = sum_j |j - m| |c_j| (`slope`).  An arc [a, b] of
    width w passes when min(|v_a|, |v_b|) > M1 w / 2 + allowance: on its first half
    e^{-i m psi} T lies within that pad of e^{-i m a} v_a, in a disc that misses 0, and on its
    second around e^{-i m b} v_b.  So T has no zero on the arc, and from one sample to the next
    the phase of e^{-i m psi} T moves by under pi / 2 in each disc, in all by the principal
    angle of (v_b / v_a) e^{-i m w}; around the circle these add up to T's turn less 2 pi m.
    So m plus `total` over 2 pi is an integer up to the sum's rounding: the zeros inside, by the
    argument principle.  Of the failing `arcs`, (min(|v_a|, |v_b|), a, b, v_a, v_b), the one
    with the least sample is bisected first (a heap), to MAX_BISECTION_DEPTH, so a circle the
    pads cannot decide raises within a few passes; a decided one takes all its arcs either way.
    A midpoint is one Horner pass, in the circle's own units; an angle is an integer i of
    2 pi / D, D = N 2^MAX_BISECTION_DEPTH.  `total` and `min_scaled` cover the arcs passed in
    the array and the initial samples; a count also needs min_scaled >= CONTOUR_SAFETY.
    """
    scale = circle.res.scale
    samples, units = n0, n0 << MAX_BISECTION_DEPTH
    turn = 2.0 * math.pi / units
    heapq.heapify(arcs)
    while arcs:
        local, i0, i1, v0, v1 = heapq.heappop(arcs)
        width = (i1 - i0) * turn
        if local > circle.slope * 0.5 * width + circle.allowance:
            total += cmath.phase(v1 / v0 * cmath.exp(-1j * circle.m * width))
            continue
        if i1 - i0 == 1:  # at MAX_BISECTION_DEPTH
            local /= scale
            if local < 1e-3:
                raise ContourTooClose(
                    f"unresolved phase jump near angle {0.5 * (i0 + i1) * turn:.6f} on "
                    f"|z| = {radius:g}: an arc of width 2 pi / {units} still has a sample within "
                    f"its pad (scaled modulus {local:.2e})", radius=radius, min_modulus=local)
            raise BudgetExceeded(f"phase not resolvable on |z| = {radius:g} at the depth cap")
        im = (i0 + i1) // 2
        vm = _horner(circle.terms, cmath.exp(1j * im * turn))[0]
        samples += 1
        min_scaled = min(min_scaled, abs(vm) / scale)
        heapq.heappush(arcs, (min(abs(v0), abs(vm)), i0, im, v0, vm))
        heapq.heappush(arcs, (min(abs(vm), abs(v1)), im, i1, vm, v1))

    if min_scaled < CONTOUR_SAFETY:
        raise ContourTooClose(
            f"min scaled |theta| on |z| = {radius:g} is {min_scaled:.2e} < {CONTOUR_SAFETY:g}",
            radius=radius, min_modulus=min_scaled)
    return WindingResult(circle.m + round(total / (2.0 * math.pi)), samples, min_scaled)


def count_zeros_in_annulus(q, annulus, budget=DEFAULT_BUDGET):
    """Zeros (with multiplicity) strictly between the two boundary circles.

    Both radii are formed first, so a radius past the float range raises its
    OverflowError.  A non-degenerate annulus is then counted in closed form
    where it can be (`_rouche_count`), by Rouche's theorem against
    theta* = theta + G = Q U R (core's `eval_theta_star`), with
    G(q, z) = sum_{j>=1} q^{j(j-1)/2} z^{-j}.  theta and theta* are
    holomorphic on z != 0, so on a neighbourhood of the closed annulus.  Where
    |G| < |theta*| on both boundary circles, theta = theta* - G has no zero on
    them and, by the argument principle on the boundary (the outer circle less
    the inner one), as many zeros in the annulus as theta*.  Those of theta*
    are the zeros of U, -q^{-m} of modulus |q|^{-m} (m >= 1, each simple), and
    those of R, -q^{m-1}, of modulus at most 1, which no annulus the test
    passes meets (its exponents are not integers, so the inner one is above
    0).  So the count is #{m >= 1 : inner < m < outer}, with no series summed.

    The test on |z| = |q|^{-s}, with a = -ln|q|, n = floor(s) and f = s - n in
    (0, 1) (an integer s fails it: a zero of theta* may lie on the circle):

    * |G| <= sum_{j>=1} |q|^{j(j-1)/2 + j s} <= |q|^s / (1 - |q|^{1+s}), as the
      ratio of term j + 1 to term j is |q|^{j+s} <= |q|^{1+s}.
    * |U| = prod_{j>=1} |1 + z q^j|, |z q^j| = |q|^{j-s}.  For j <= n the factor
      is at least e^{a(s-j)} (1 - |q|^{s-j}), where s - j runs over f + i, i < n,
      and the e^{a(s-j)} multiply to e^{a (n f + n(n-1)/2)}; for j > n it is at
      least 1 - |q|^{j-s}, where j - s runs over 1 - f + i, i >= 0.
    * |R| = prod_{j>=1} |1 + q^{j-1} / z| >= prod_{i>=0} (1 - |q|^{s+i}).
    * |Q| >= |v| (1 - 2^-52 (N + 6)^2 kappa) - 2B for `eval_Q`'s value v of N
      factors and tail bound B (`_log_q_floor`).

    With P(c, n) = sum_{i<n} ln(1 - |q|^{c+i}) (`_log_factors` bounds it from
    below; n = inf for the last two) that gives
    ln|theta*| >= ln|Q|_lo + a (n f + n(n-1)/2) + P(f, n) + P(1 - f) + P(s) and
    ln|G| <= -a s - ln(1 - |q|^{1+s}) (`_circle_bounds`), and the circle passes
    where the first exceeds the second by more than the rounding allowance of
    both.

    Allowance, u = 2^-53.  Only the computed lower bound exceeding its exact
    value, or the upper one falling short of its, could pass a circle in
    error, and the allowance bounds both.  The computed |q| is within 2u of
    |q|, relative, so -ln of it within 2u (a + 1.01) of a; with
    D = n f + n(n-1)/2 + s (each part exact but for two roundings) the two
    products by a are within u (5.1 a D + 2.1 D) in all.  ln|Q|_lo is within
    u (2 |ln Q| + 24): its bound on |Q| takes four roundings of parts at most
    2.05 times it, and the log one.  Each P exceeds its exact value by at
    most u ((K + 3) |P| + 6 (E + 2 + 1 / (1 - |q|)) Y + 1 / (1 - |q|))
    (`_log_factors`, for its K, E and Y), and g = ln(1 - y), y = |q|^{1+s}, by at most
    u (2 |g| + 4.5 (s + 2) y / (1 - y) + 1), as P's terms do.  The five
    additions and the difference of the bounds add 6u times the sum of the
    moduli of their parts.  In all the computed difference exceeds the exact
    one by at most u (11.1 a D + 2.1 D + 8 |ln Q| + 25 + sum_P ((K + 9) |P| +
    6 (E + 2 + 1 / (1 - |q|)) Y + 1 / (1 - |q|)) + 8 |g| + 4.5 (s + 2) y / (1 - y)),
    and the allowance, 2^-48 = 32u times a D + D + |ln Q| + 8 + the
    `_log_factors` shares (K + 1) |P| + (E + 2 + 1 / (1 - |q|)) Y + 1 / (1 - |q|)
    + (s + 3) (|g| + y / (1 - y)), is more than that.  So the computed lower
    bound less the allowance is at most ln|theta*|, and the computed upper
    bound plus it at least ln|G|.

    An annulus the test cannot decide (the punctured disk of k = 1, an
    integer exponent, |q| near 1 where the bounds are too weak, or an `eval_Q`
    that raises or whose bound is not proven) counts both circles by the
    argument principle, as one `_contours` block; the outer circle's failure
    is raised first.
    """
    q = as_q(q)
    radii = [annulus.outer_radius(q)]
    if not annulus.degenerate:
        radii.append(annulus.inner_radius(q))
        count = _rouche_count(q, annulus.inner_exponent, annulus.outer_exponent, budget)
        if count is not None:
            return count
    counts = []
    for result in winding_numbers(q, radii, budget=budget):
        if isinstance(result, Exception):
            raise result
        counts.append(result.count)
    return counts[0] - sum(counts[1:])


def _rouche_count(q, inner, outer, budget):
    """The zeros of theta(q, .) in |q|^-inner < |z| < |q|^-outer, or None where Rouche cannot tell.

    The count floor(outer) - floor(inner) where both circles pass
    `count_zeros_in_annulus`'s test: the lower bound of ln|theta*| less the
    upper bound of ln|G| above their allowance.
    """
    ln_q = _log_q_floor(q, budget)
    if ln_q is None:
        return None
    for s in (inner, outer):
        bounds = _circle_bounds(q, s, ln_q)
        if bounds is None or not bounds[0] - bounds[1] > bounds[2]:
            return None
    return math.floor(outer) - math.floor(inner)


def _log_q_floor(q, budget):
    """ln of a proven lower bound of |Q(q)|, from `eval_Q`; None where that bound is not proven.

    `eval_Q`'s value v of N factors is within 2^-52 (N + 6)^2 kappa |v| of the
    exact partial product, and B falls short of that product's own tail by a
    relative (N + 8 + |q| / (1 - |q|)) 2.25 u (1 + S) at most, S < 1/4, so
    the tail is under 2B (core's `_product_eval`, for N < 2047 factors of
    normal modulus, |q|^N > e^-700, and B <= |v| / 4).  So
    |Q| >= |v| (1 - 2^-52 (N + 6)^2 kappa) - 2B.  kappa = max(1, 2 w / (N^2 + 3N))
    takes w <= |q| (2 - |q|) / (1 - |q|)^3, as |1 - q^j| >= 1 - |q|.
    """
    try:
        product = eval_Q(q, budget)
    except (BudgetExceeded, OverflowError):
        return None
    factors, value, tail = product.terms_used, abs(product.value), product.tail_bound
    m = q.modulus
    if not (factors < 2047 and -math.log(m) * factors < 700.0 and tail <= 0.25 * value):
        return None
    kappa = max(1.0, 2.0 * m * (2.0 - m) / ((1.0 - m) ** 3 * (factors * factors + 3 * factors)))
    return math.log(value * (1.0 - 2.0 ** -52 * (factors + 6) ** 2 * kappa) - 2.0 * tail)


def _circle_bounds(q, s, ln_q):
    """(lower bound of ln|theta*|, upper bound of ln|G|, allowance) on |z| = |q|^-s, or None.

    `ln_q` is `_log_q_floor`'s; `count_zeros_in_annulus` derives both bounds and
    the allowance, which covers the rounding of both and of their difference.
    """
    n = math.floor(s)
    f = s - n
    if not f:
        return None
    m = q.modulus
    a = -math.log(m)
    degree = f * n + 0.5 * (n * (n - 1))
    (p1, w1), (p2, w2), (p3, w3) = (_log_factors(m, f, n), _log_factors(m, 1.0 - f),
                                    _log_factors(m, s))
    y = m ** (1.0 + s)
    g = math.log1p(-y)
    allowance = 2.0 ** -48 * (a * (degree + s) + degree + s + abs(ln_q) + 8.0 + w1 + w2 + w3
                              + (s + 3.0) * (y / (1.0 - y) - g))
    return ln_q + a * degree + p1 + p2 + p3, -a * s - g, allowance


def _log_factors(m, c, n=math.inf):
    """(P, share): a lower bound P of sum_{i<n} ln(1 - y_i), y_i = m^{c+i}, and its allowance share.

    The K terms with y_i >= 1/4 (y_i falls with i) are taken by `log1p`; the
    rest, from i0 = K on, by -ln(1 - y) <= y / (1 - y) and y_i <= y_{i0} m^{i-i0}:
    their sum is at most T = y_{i0} / ((1 - y_{i0}) (1 - m)), and none is taken
    where i0 = n.  y_0 is m^c, and each later y_i one product by m.

    Rounding, u = 2^-53: y_i is within 4.5 u (e_i + 1) of |q|^{e_i}, relative,
    for the exponent e_i = c + i (the computed |q| is within 2u, its power
    within 2u more, each product 3u, and a rounded c moves m^c by at most
    u a c <= u ln 4 where y >= 1/4; where y < 1/4 that part moves T by under
    u a c e^{-a c} 4 / (3 (1 - m)) < u / (1 - m), as x e^{-x} <= 1/e).  As
    ln(1 + x) <= x, the computed ln(1 - y_i) exceeds ln(1 - y_i) by at most
    4.5 u (e_i + 1) y_i / (1 - y_i), whatever y_i's size, and log1p adds 2u of
    its value; the K additions add K u |P|.  T falls short of its exact value
    by at most u T (6 (E + 1) + 2.1 / (1 - m) + 4), E = c + K: y's error
    enters 4/3 times, and the 1 / (1 - m) is the rounding of m in 1 - m.
    With Y = K y_0 / (1 - y_0) + T, at least the sum of the y / (1 - y) of all
    terms, P exceeds its exact value by at most
    u ((K + 3) |P| + 6 (E + 2 + 1 / (1 - m)) Y + 1 / (1 - m)), and the share
    is (K + 1) |P| + (E + 2 + 1 / (1 - m)) Y + 1 / (1 - m).  A y_0 that rounds to 1 (c below
    about u / a) gives P = -inf with an infinite share: the circle fails.
    """
    y = first = m ** c
    if first == 1.0:
        return -math.inf, math.inf
    total, k = 0.0, 0
    while y >= 0.25 and k < n:
        total += math.log1p(-y)
        y *= m
        k += 1
    spread, inverse = k * first / (1.0 - first) if k else 0.0, 1.0 / (1.0 - m)
    if k < n:
        tail = y * inverse / (1.0 - y)
        total -= tail
        spread += tail
    return total, (k + 1) * -total + (c + k + 2.0 + inverse) * spread + inverse


def _raw_abs(modulus, exponent, log2_factor=0.0):
    """modulus * 2^(exponent + log2_factor), inf where that leaves the float range."""
    whole = math.floor(log2_factor)
    try:
        return math.ldexp(modulus * 2.0 ** (log2_factor - whole), exponent + whole)
    except OverflowError:
        return math.inf


def _moduli(value, slope, res, radius, log2_factor=0.0):
    """Raw (|theta|, |theta'|) at z = radius w from a Horner pass at w; inf beyond the float range.

    They are 2^(E + log2_factor) times |value| and |slope| / radius.  |slope| / radius can
    underflow where |theta'| does not: divide by the mantissa of the radius and move its
    binary exponent into E.
    """
    mantissa, binary = math.frexp(radius)
    return (_raw_abs(abs(value), res.exponent, log2_factor),
            _raw_abs(abs(slope) / mantissa, res.exponent - binary, log2_factor))


def _newton(q, seed, residual_tol, max_iterations, budget):
    """Newton iteration for theta(q, .) = 0; returns (record fields, converged).

    Each iterate z takes the kept terms c_i of the circle |z| (`_shifted_circle`
    with `_head_shift`'s J), so theta(z) = c_J 2^E sum_i c_i w^i up to
    the head, with w = z / |z| and c_J = q^{J(J+1)/2} z^J.  One Horner pass
    (`_horner`) at w gives that sum, S = sum_i i c_i w^{i-1} and the scale;
    theta'(z) = c_J 2^E (J value / w + S) / |z|.  The factor c_J 2^E cancels
    in the step and in the scaled residual |value| / (scale + tail), as in
    `_checked_estimate`; the raw moduli are rebuilt from log2 |c_J|.  At z = 0
    the terms are those of |z| = 1, at w = 0.  Converged: scaled residual
    below residual_tol within max_iterations steps, or after a step below
    rounding; an iterate that would leave the float range ends it unconverged.
    A seed with a part that is not finite raises DomainError.
    """
    z = require_finite(seed, "seed")
    iterations, tiny = 0, False
    while True:
        radius = abs(z) or 1.0
        terms, res, shift, _ = _shifted_circle(q, radius, _head_shift(q, radius), budget)
        w = z / radius
        value, slope, scale = _horner(terms, w)
        if shift:
            slope += shift * value / w
        scaled = abs(value) / (scale + res.tail_bound)
        converged = scaled < residual_tol and (tiny or iterations < max_iterations)
        step = radius * (value / slope) if slope else math.inf
        if converged or tiny or iterations == max_iterations or not cmath.isfinite(z - step):
            log2_factor = shift * ((shift + 1) / 2 * math.log2(q.modulus) + math.log2(radius))
            return (z, scaled, *_moduli(value, slope, res, radius, log2_factor), iterations,
                    converged)
        z -= step
        iterations += 1
        tiny = abs(step) <= 4.0 * 2.2e-16 * abs(z)


def check_residual_tol(residual_tol):
    """DomainError unless the residual tolerance lies in (0, inf): Newton could never meet it."""
    if not 0.0 < residual_tol < math.inf:
        raise DomainError(f"residual tolerance must lie in (0, inf), got {residual_tol!r}")


def locate_zero(q, k, residual_tol=1e-10, max_iterations=MAX_NEWTON_ITERATIONS,
                budget=DEFAULT_BUDGET, seed=None):
    """Locate the k-th zero by Newton refinement from `seed`, by default the asymptotic -q^{-k}.

    Raises NoConvergence if the tolerance is not met, OverflowError if the
    default seed leaves the float range, and DomainError for a k that is not
    a positive integer, a seed that is not finite or a tolerance outside
    (0, inf).
    """
    q = as_q(q)
    k = _positive_index(k, "k")
    check_residual_tol(residual_tol)
    if seed is None:
        try:
            seed = -q.value ** (-k)
        except (OverflowError, ZeroDivisionError):  # q^-k is inf, or q^k underflowed to 0
            raise OverflowError(f"the Newton seed -q^-{k} leaves the float range") from None
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
    theta_abs, derivative_abs = _moduli(value, slope, res, outer)
    return ZeroRecord(k=k, location=z, residual=residual, annulus_ok=inner < modulus,
                      newton_iterations=0, converged=True,
                      theta_abs=theta_abs, derivative_abs=derivative_abs)


def verify_separation(q, k_max, residual_tol=1e-10, budget=DEFAULT_BUDGET, on_error="raise"):
    """Count and locate the zeros for k = 1..k_max and check the annulus conditions.

    Declares strong separation iff every annulus holds exactly one zero and
    every located zero satisfies its modulus condition.  The zero of an
    annulus that holds one is the difference of the first moments of its
    boundary circles.  If it lies inside the annulus, it is checked by one
    Horner pass over the terms its outer circle summed for the contour
    (`_checked_estimate`), and polished by Newton from the estimate only if
    it misses `residual_tol` (by Newton from -q^-k at |q| <=
    MOMENT_SEED_MIN_MODULUS); any other annulus runs `locate_zero`.  With
    on_error="record", per-k contour/convergence failures are noted in the
    report instead of raised; the first k whose circle |q|^-(k+1/2) leaves the
    float range ends the work with one note for k..k_max.  A tolerance outside
    (0, inf) raises DomainError.
    """
    q = as_q(q)
    k_max = _positive_index(k_max, "k_max")
    check_residual_tol(residual_tol)
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
        except OverflowError:  # and so does every later radius: one note for k..k_max
            circles[k] = OverflowError(f"the radius leaves the float range for k = {k}..{k_max}")
            break
    results, sums, taken = _contours(q, list(radii.values()), INITIAL_SAMPLES, budget,
                                     moments=True)
    circles.update(zip(radii, results))
    moments.update(zip(radii, sums))
    terms = {k: (circle.terms, circle.res) for k, circle in zip(radii, taken) if circle}
    for k in sorted(circles):
        result = circles[k]
        if isinstance(result, Exception):
            if on_error == "raise":
                result.k = k
                raise result
            windings[k] = None
            report.notes[k] = f"contour |z| = |q|^-{k + 0.5}: {result}"
        else:
            windings[k] = result.count

    for k in radii:
        below, above = windings[k - 1], windings[k]
        report.counts[k] = None if (below is None or above is None) else above - below
        annulus = (radii.get(k - 1, 0.0), radii[k])  # |q|^{-(k -+ 1/2)}, 0 for k = 1
        # with count 1 both circles were counted, so both have a moment
        estimate = moments[k] - moments[k - 1] if report.counts[k] == 1 else math.nan
        if not q.value.imag:  # the lone zero of an annulus is then its own conjugate
            estimate = complex(estimate.real)
        try:
            report.records[k] = annulus[0] < abs(estimate) < annulus[1] and (
                _checked_estimate(k, estimate, terms[k], annulus, residual_tol)
                or q.modulus > MOMENT_SEED_MIN_MODULUS and _zero_record(
                    q, k, estimate, annulus, residual_tol, MAX_NEWTON_ITERATIONS, budget)
            ) or locate_zero(q, k, residual_tol=residual_tol, budget=budget)
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

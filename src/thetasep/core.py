"""Evaluation of the partial theta series and its triple-product factorization.

The central object is theta(q, z) = sum_{j>=0} q^{j(j+1)/2} z^j, entire in z
for 0 < |q| < 1.  Alongside it this module evaluates

* theta_dagger(q, z) = sum_{j>=0} q^{j(j-1)/2} z^j      (= theta(q, z/q)),
* G(q, z)            = sum_{j>=1} q^{j(j-1)/2} z^{-j},
* the two-sided series theta_star = theta + G, and its product form
  theta_star = Q * U * R with
      Q = prod_{j>=1} (1 - q^j),
      U = prod_{j>=1} (1 + z q^j),
      R = prod_{j>=1} (1 + q^{j-1} / z),
* the z-derivative of theta, alone or with theta from the same pass over
  its terms (for Newton refinement of zeros).

Every evaluation returns an `EvalResult` whose `tail_bound` is a proven
majorant of the dropped tail: for the series, term-modulus ratios are
eventually geometric, and for the products the dropped log-factors are
bounded by a geometric sum.  Series sums carry a binary exponent, so term
moduli far beyond the float range (theta near its k-th zero grows like
|q|^{-k^2/2}) are summed without overflow.  All functions are pure and
thread-safe.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DomainError, ZeroArgument

# Radius below which strong modulus-separation of the zeros of theta(q, .) is
# already established; quoted as an input, not recomputed.
C0 = 0.2078750206

# Before a term whose modulus would pass _RESCALE_AT is added, a series sum is
# multiplied by 2^-_RESCALE_BITS and the bits move into its exponent.
_RESCALE_BITS = 600
_RESCALE_AT = 2.0 ** _RESCALE_BITS


def _rescale(modulus, ratio, exponent, tolerance):
    """One rescale step of a series sum whose next term, modulus * ratio, would pass _RESCALE_AT.

    Returns the factor by which to multiply the sum, its last term, its
    compensation and its scale; the new exponent; and the tail tolerance in
    units of 2^exponent, floored at the smallest normal float (a scaled
    tail below it loses precision; the returned tail_bound stays honest).
    Raises OverflowError when the term or the ratio itself leaves the float
    range, as no rescaling then keeps the next term finite.
    """
    if modulus == math.inf or ratio == math.inf:
        raise OverflowError("a term of the series leaves the float range")
    exponent += _RESCALE_BITS
    return 2.0 ** -_RESCALE_BITS, exponent, max(math.ldexp(tolerance, -exponent),
                                                 sys.float_info.min)


def ldexp_complex(value, exponent):
    """value * 2^exponent, exact; OverflowError if a part leaves the float range."""
    return complex(math.ldexp(value.real, exponent), math.ldexp(value.imag, exponent))


def require_finite(z, name="value"):
    """Coerce to complex and reject non-finite components."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must have finite real and imaginary parts, got {z!r}")
    return z


@dataclass(frozen=True)
class SeriesBudget:
    """Truncation budget: target bound on the dropped tail plus a hard term cap."""

    tolerance: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (isinstance(self.tolerance, (int, float)) and self.tolerance > 0
                and math.isfinite(self.tolerance)):
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 2):
            raise DomainError(f"max_terms must be an integer >= 2, got {self.max_terms!r}")


DEFAULT_BUDGET = SeriesBudget()


@dataclass(frozen=True)
class QParameter:
    """Base point q with 0 < |q| < 1, cached polar form, and region predicates."""

    value: complex
    modulus: float = field(init=False)
    argument: float = field(init=False)

    def __post_init__(self):
        v = require_finite(self.value, "q")
        m = abs(v)
        if not 0.0 < m < 1.0:
            raise DomainError(f"|q| must lie in (0, 1), got |q| = {m!r}")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "argument", cmath.phase(v))

    @classmethod
    def from_polar(cls, modulus, argument):
        return cls(cmath.rect(modulus, argument))

    def conjugate(self):
        return QParameter(self.value.conjugate())

    def in_left_half_disk(self, radius):
        """Membership in {0 < |q| <= radius, arg(q) in [pi/2, 3pi/2]}.

        The boundary rays arg = +-pi/2 are included; a relative slack absorbs
        the rounding of cmath.rect(r, pi/2).
        """
        return self.modulus <= radius + 1e-15 and self.value.real <= 1e-12 * self.modulus

    def in_punctured_disk(self, radius):
        return self.modulus <= radius + 1e-15


def as_q(q):
    """Accept either a QParameter or a raw complex-like value."""
    return q if isinstance(q, QParameter) else QParameter(q)


@dataclass(frozen=True)
class EvalResult:
    """A computed value together with a certified truncation bound.

    `scale` is the sum of the included term moduli (plus the tail bound): the
    conditioning scale of the evaluation.  |value| is meaningless below
    roughly `scale` times machine epsilon, so residual-style quantities
    should be measured relative to `scale`.

    `value`, `tail_bound` and `scale` are stored times 2^-exponent.  The
    exponent is 0 whenever they fit in a float, and a positive multiple of
    600 only for a series result beyond the float range; ratios such as
    |value| / scale and the phase of value do not depend on it.
    """

    value: complex
    tail_bound: float
    terms_used: int
    scale: float
    exponent: int = 0


def _series_eval(first, p, q, x, budget, what, kept=None, ratio_weight=False, derivative=False):
    """Sum t_0 + t_1 + ... with t_0 = first, t_j = t_{j-1} s_j and s_j = p q^{j-1} x.

    With `ratio_weight`, s_j also carries a factor (j + 1) / j.  The step
    moduli must be nonincreasing, so once r = |s_n| < 1/2 the dropped tail
    is below |t_{n-1}| r / (1 - r).  Sums are Kahan-compensated, rescaled
    before a term would pass _RESCALE_AT (see `_rescale`), and returned with
    the exponent folded back when it fits.  A list `kept` receives the
    included terms, in units of 2^-exponent, and then nothing is folded.
    With `derivative` (x = z != 0) the pass also sums j t_j, whose tail is
    below |t_{n-1}| r (n / (1 - r) + r / (1 - r)^2), and returns two results
    with one exponent: the sum as it stops alone, and sum_j j t_j / z once
    that tail divided by |z| is below tolerance too.
    """
    total = term = first
    comp = 0j
    modulus = scale = abs(first)
    used, exponent, frozen = 1, 0, None
    tolerance, max_terms = budget.tolerance, budget.max_terms
    if kept is not None:
        kept.append(first)
    weighted, weighted_comp, weighted_scale = 0j, 0j, 0.0  # sum_j j t_j, with `derivative`
    while True:
        pending = p * x
        p *= q
        if ratio_weight:
            pending *= (used + 1) / used
        r = abs(pending)
        bound = modulus * r
        if r < 0.5:
            tail = bound / (1.0 - r)
            if tail <= tolerance:
                frozen = frozen or (total, tail, used, scale + tail)
                if not derivative:
                    return _shared_exponent([frozen], exponent, kept is None)[0]
                weighted_tail = tail * (used + r / (1.0 - r))
                z_modulus = abs(x)
                if weighted_tail / z_modulus <= tolerance:
                    return _shared_exponent(
                        [frozen, (weighted / x, weighted_tail / z_modulus, used - 1,
                                  (weighted_scale + weighted_tail) / z_modulus)], exponent)
        if used >= max_terms:
            raise BudgetExceeded(
                f"{what}: tail not below {budget.tolerance:g} within {max_terms} terms")
        while bound > _RESCALE_AT:
            factor, exponent, tolerance = _rescale(modulus, r, exponent, budget.tolerance)
            term *= factor
            total *= factor
            comp *= factor
            scale *= factor
            modulus *= factor
            bound = modulus * r
            if kept:
                kept[:] = [t * factor for t in kept]
            weighted, weighted_comp, weighted_scale = (
                weighted * factor, weighted_comp * factor, weighted_scale * factor)
        term *= pending
        used += 1
        modulus = abs(term)
        scale += modulus
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if kept is not None:
            kept.append(term)
        if derivative:
            j = used - 1
            weighted_scale += j * modulus
            y = j * term - weighted_comp
            t = weighted + y
            weighted_comp = (t - weighted) - y
            weighted = t


def _shared_exponent(parts, exponent, fold=True):
    """EvalResults of (value, tail, terms, scale) parts in one exponent, folded into all or none."""
    if exponent and fold:
        try:
            return [EvalResult(ldexp_complex(v, exponent), math.ldexp(t, exponent), n,
                               math.ldexp(s, exponent)) for v, t, n, s in parts]
        except OverflowError:
            pass
    return [EvalResult(v, t, n, s, exponent) for v, t, n, s in parts]


def eval_theta(q, z, budget=DEFAULT_BUDGET):
    """sum_{j>=0} q^{j(j+1)/2} z^j with a certified geometric tail bound."""
    q = as_q(q)
    z = require_finite(z, "z")
    # t_j / t_{j-1} = q^j z
    return _series_eval(1.0 + 0j, (1.0 + 0j) * q.value, q.value, z, budget, "theta")


def eval_theta_dagger(q, z, budget=DEFAULT_BUDGET):
    """sum_{j>=0} q^{j(j-1)/2} z^j = 1 + z + q z^2 + q^3 z^3 + ...

    Evaluated by its own series rather than as theta(q, z/q), which avoids
    cancellation near |z| = |q|^{-1/2}.
    """
    q = as_q(q)
    z = require_finite(z, "z")
    # t_j / t_{j-1} = q^{j-1} z
    return _series_eval(1.0 + 0j, 1.0 + 0j, q.value, z, budget, "theta_dagger")


def eval_G(q, z, budget=DEFAULT_BUDGET):
    """sum_{j>=1} q^{j(j-1)/2} z^{-j}; the principal part of the two-sided series.

    Term-modulus ratio is |q|^m / |z|, eventually geometric for any z != 0.
    """
    q = as_q(q)
    z = require_finite(z, "z")
    if z == 0:
        raise ZeroArgument("G(q, z) requires z != 0")
    # g_{m+1} / g_m = q^m (1 / z)
    return _series_eval(1.0 / z, (1.0 + 0j) * q.value, q.value, 1.0 / z, budget, "G")


def eval_theta_dz(q, z, budget=DEFAULT_BUDGET):
    """d/dz of the partial theta series: sum_{j>=1} j q^{j(j+1)/2} z^{j-1}."""
    q = as_q(q)
    z = require_finite(z, "z")
    # d_j / d_{j-1} = (j / (j-1)) q^j z
    return _series_eval(complex(q.value), q.value * q.value, q.value, z, budget, "theta_dz",
                        ratio_weight=True)


def eval_theta_and_dz(q, z, budget=DEFAULT_BUDGET):
    """(eval_theta(q, z), theta'(q, z) = sum_j j t_j / z) from one pass over the terms t_j.

    Both share one exponent; theta' has its own tail bound and may need more terms.
    """
    q = as_q(q)
    z = require_finite(z, "z")
    if z == 0:
        return EvalResult(1.0 + 0j, 0.0, 1, 1.0), EvalResult(q.value, 0.0, 1, q.modulus)
    return tuple(_series_eval(1.0 + 0j, (1.0 + 0j) * q.value, q.value, z, budget, "theta",
                              derivative=True))


def circle_coefficients(q, radius, n, budget=DEFAULT_BUDGET):
    """The terms of theta(q, radius) folded mod n, the term-sum scale and the exponent.

    On |z| = radius, theta(q, radius e^{i psi}) = sum_j c_j e^{i j psi} with
    c_j = q^{j(j+1)/2} radius^j, the terms of theta(q, radius) itself.  At
    psi = 2 pi k / n the powers e^{i j psi} repeat with period n in j, so
    the n samples are sum_m a_m e^{2 pi i m k / n}, an inverse DFT without
    the 1/n, of the folded terms a_m = sum_{j = m mod n} c_j.  The terms,
    their tail bound, the rescaling and the term budget are those of the
    scalar kernel; a and the scale are stored times 2^-exponent.
    """
    q = as_q(q)
    kept = []
    res = _series_eval(1.0 + 0j, (1.0 + 0j) * q.value, q.value, float(radius), budget,
                       f"theta on |z| = {radius:g}", kept)
    folded = np.zeros(n, dtype=complex)
    folded[:min(n, len(kept))] = kept[:n]
    for start in range(n, len(kept), n):
        chunk = kept[start:start + n]
        folded[:len(chunk)] += chunk
    return folded, res.scale, res.exponent


def theta_on_circle(q, radius, n, budget=DEFAULT_BUDGET):
    """theta at the n points radius * e^{2 pi i k / n}, the term-sum scale, and the exponent.

    One inverse FFT of the folded series terms (see `circle_coefficients`);
    the values and the scale are stored times 2^-exponent.
    """
    coefficients, scale, exponent = circle_coefficients(q, radius, n, budget)
    return np.fft.ifft(coefficients, norm="forward"), scale, exponent


def _product_eval(first_dev, ratio, budget, what):
    """prod_j (1 + d_j) with d_{j+1} = d_j * ratio and |ratio| < 1.

    After the factor with deviation modulus m, the dropped factors satisfy
    sum |d_i| <= m |ratio| / (1 - |ratio|) =: S and the value error is below
    |partial| * (e^S - 1).  Stops once the current deviation is under
    tolerance/10 and that bound is under tolerance.
    """
    prod = 1.0 + 0j
    dev = complex(first_dev)
    rho = abs(ratio)
    used = 0
    scale = 0.0
    while True:
        prod *= 1.0 + dev
        used += 1
        m = abs(dev)
        scale += m
        if prod == 0:
            # an exact zero factor annihilates the full product
            return EvalResult(prod, 0.0, used, scale)
        tail_sum = m * rho / (1.0 - rho)
        bound = abs(prod) * math.expm1(tail_sum)
        if m < budget.tolerance / 10.0 and bound <= budget.tolerance:
            return EvalResult(prod, bound, used, scale + tail_sum)
        if used >= budget.max_terms:
            raise BudgetExceeded(
                f"{what}: product tail not below {budget.tolerance:g} "
                f"within {budget.max_terms} factors")
        dev *= ratio


def eval_Q(q, budget=DEFAULT_BUDGET):
    """prod_{j>=1} (1 - q^j)."""
    q = as_q(q)
    return _product_eval(-q.value, q.value, budget, "Q")


def eval_U(q, z, budget=DEFAULT_BUDGET):
    """prod_{j>=1} (1 + z q^j)."""
    q = as_q(q)
    z = require_finite(z, "z")
    return _product_eval(z * q.value, q.value, budget, "U")


def eval_R(q, z, budget=DEFAULT_BUDGET):
    """prod_{j>=1} (1 + q^{j-1} / z)."""
    q = as_q(q)
    z = require_finite(z, "z")
    if z == 0:
        raise ZeroArgument("R(q, z) requires z != 0")
    return _product_eval(1.0 / z, q.value, budget, "R")


def _triple_product(q, z, budget):
    """Q*U*R with an error bound propagated through the three factors.

    Factor tolerances must be scaled by the sizes of the other two factors
    (|U| can be enormous), so a cheap probing pass estimates magnitudes
    first and a second pass retries with tightened budgets if needed.
    """
    probe = SeriesBudget(tolerance=1e-3, max_terms=budget.max_terms)
    mags = [max(abs(r.value), 1e-6) for r in
            (eval_Q(q, probe), eval_U(q, z, probe), eval_R(q, z, probe))]
    mq, mu, mr = mags
    tol_q = budget.tolerance / (4.0 * mu * mr)
    tol_u = budget.tolerance / (4.0 * mq * mr)
    tol_r = budget.tolerance / (4.0 * mq * mu)
    for _ in range(2):
        rq = eval_Q(q, SeriesBudget(tol_q, budget.max_terms))
        ru = eval_U(q, z, SeriesBudget(tol_u, budget.max_terms))
        rr = eval_R(q, z, SeriesBudget(tol_r, budget.max_terms))
        value = rq.value * ru.value * rr.value
        aq, au, ar = abs(rq.value), abs(ru.value), abs(rr.value)
        bound = (aq * au * rr.tail_bound
                 + aq * (ar + rr.tail_bound) * ru.tail_bound
                 + (au + ru.tail_bound) * (ar + rr.tail_bound) * rq.tail_bound)
        if bound <= budget.tolerance:
            terms = rq.terms_used + ru.terms_used + rr.terms_used
            return EvalResult(value, bound, terms, rq.scale + ru.scale + rr.scale)
        shrink = budget.tolerance / (2.0 * bound)
        tol_q *= shrink
        tol_u *= shrink
        tol_r *= shrink
    raise BudgetExceeded("theta_star product: propagated bound above tolerance after retry")


def eval_theta_star(q, z, budget=DEFAULT_BUDGET, method="series"):
    """Two-sided series sum_{j in Z} q^{j(j+1)/2} z^j.

    method="series" sums the nonnegative part (= theta) and the principal
    part (= G); method="product" evaluates Q*U*R.  Both carry certified
    bounds and agree within their combined bounds.
    """
    q = as_q(q)
    z = require_finite(z, "z")
    if z == 0:
        raise ZeroArgument("theta_star(q, z) requires z != 0")
    if method == "series":
        half = SeriesBudget(budget.tolerance / 2.0, budget.max_terms)
        a = eval_theta(q, z, half)
        b = eval_G(q, z, half)
        # carry both halves to the larger exponent; the smaller one may underflow
        exponent = max(a.exponent, b.exponent)
        fa, fb = 2.0 ** (a.exponent - exponent), 2.0 ** (b.exponent - exponent)
        return EvalResult(a.value * fa + b.value * fb, a.tail_bound * fa + b.tail_bound * fb,
                          a.terms_used + b.terms_used, a.scale * fa + b.scale * fb, exponent)
    if method == "product":
        return _triple_product(q, z, budget)
    raise DomainError(f"method must be 'series' or 'product', got {method!r}")

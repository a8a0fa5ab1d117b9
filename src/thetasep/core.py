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
import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import pairwise

from .errors import BudgetExceeded, DomainError, ZeroArgument

# Radius below which strong modulus-separation of the zeros of theta(q, .) is
# already established; quoted as an input, not recomputed.
C0 = 0.2078750206

# Before a term whose modulus would pass _RESCALE_AT is added, a series sum is
# multiplied by 2^-_RESCALE_BITS and the bits move into its exponent.
_RESCALE_BITS = 600
_RESCALE_AT = 2.0 ** _RESCALE_BITS
# A positive tail bound is never returned below the least subnormal.
_LEAST_TAIL = math.ulp(0.0)
_ULP = 2.0 ** -52


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


def _series_eval(first, p, q, x, budget, what, ratio_weight=False, derivative=False):
    """Sum t_0 + t_1 + ... with t_0 = first, t_j = t_{j-1} s_j and s_j = p q^{j-1} x.

    With `ratio_weight`, s_j also carries a factor (j + 1) / j.  The step
    moduli must be nonincreasing, so once r = |s_n| < 1/2 the dropped tail
    is below |t_{n-1}| r / (1 - r).  With x != 0 the dropped terms are
    nonzero, so a bound that underflows to 0.0 is rounded up to the least
    subnormal.  Sums are Kahan-compensated, rescaled before a term would
    pass _RESCALE_AT (see `_rescale`), and returned with the exponent folded
    back when it fits.  `what` names the series in the BudgetExceeded
    message.  With `derivative`
    (x = z != 0) the pass also sums j t_j / z, each term formed as
    j t_{j-1} p q^{j-1} so that no subnormal t_j is divided by z; its tail
    is below |t_{n-1} p q^{n-1}| (n / (1 - r) + r / (1 - r)^2).  It returns
    two results with one exponent: the sum as it stops alone, and
    sum_j j t_j / z once that tail is below tolerance too.

    Both tail bounds allow for rounding, u = 2^-53.  The computed |t_{n-1}|
    is a product of n - 1 computed steps, and step s_j carries the j - 1
    products of p q^{j-1}, its product with x, with `ratio_weight` a
    rounded real factor and its product, and the product with t_{j-1}.  So
    at most (n^2 + 7n + 8)/2 roundings reach the tail bound with those of
    r and of the bound's three operations, and at most n + 6 more reach the
    theta' bound through |p q^{n-1}|; each is a relative 2.25 u or less (a
    complex product is within sqrt(5) u).  The count is quadratic in n
    because every rounding of p q^{j-1} is carried into all later terms.
    Both bounds are therefore multiplied by 1 + 2^-52 (n + 6)^2 before they
    are tested, which covers (1 + 2.25 u)^((n + 6)^2 / 2) and the product
    itself while the moduli are normal floats.
    """
    total = term = first
    comp = 0j
    modulus = scale = abs(first)
    used, exponent, frozen = 1, 0, None
    tolerance, max_terms = budget.tolerance, budget.max_terms
    weighted, weighted_comp, weighted_scale = 0j, 0j, 0.0  # sum_j j t_j / z, with `derivative`
    while True:
        pending = p * x
        if ratio_weight:
            pending *= (used + 1) / used
        r = abs(pending)
        bound = modulus * r
        if r < 0.5:
            tail = bound / (1.0 - r)
            if tail <= tolerance:  # the allowance only raises it: test the raw bound first
                allowance = 1.0 + _ULP * (used + 6) ** 2  # rounding of |t_{n-1}| and r, see above
                tail *= allowance
            if tail <= tolerance:
                if not tail and x:
                    tail = _LEAST_TAIL
                frozen = frozen or (total, tail, used, scale + tail)
                if not derivative:
                    return _shared_exponent([frozen], exponent)[0]
                # |t_{n-1}| r / |z| = |t_{n-1} p|
                weighted_tail = (modulus * abs(p) * (used + r / (1.0 - r)) / (1.0 - r)
                                 * allowance or _LEAST_TAIL)
                if weighted_tail <= tolerance:
                    return _shared_exponent(
                        [frozen, (weighted, weighted_tail, used - 1,
                                  weighted_scale + weighted_tail)], exponent)
        if used >= max_terms:
            raise BudgetExceeded(
                f"{what}: tail not below {budget.tolerance:g} "
                f"within {max_terms} terms")
        while bound > _RESCALE_AT:
            factor, exponent, tolerance = _rescale(modulus, r, exponent, budget.tolerance)
            term *= factor
            total *= factor
            comp *= factor
            scale *= factor
            modulus *= factor
            bound = modulus * r
            weighted, weighted_comp, weighted_scale = (
                weighted * factor, weighted_comp * factor, weighted_scale * factor)
        if derivative:
            slope = used * (term * p)  # j t_j / z for j = used
            weighted_scale += abs(slope)
            y = slope - weighted_comp
            t = weighted + y
            weighted_comp = (t - weighted) - y
            weighted = t
        term *= pending
        p *= q
        used += 1
        modulus = abs(term)
        scale += modulus
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t


def _shared_exponent(parts, exponent):
    """EvalResults of (value, tail, terms, scale) parts in one exponent, folded into all or none."""
    if exponent:
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


def circle_terms(q, centre, budget=DEFAULT_BUDGET):
    """The terms c_j = q^{j(j+1)/2} centre^j of theta(q, centre), and their tail bound and scale.

    On the circle through `centre`, theta(q, centre e^{i psi}) = sum_j c_j e^{i j psi}.  Terms,
    tail bound, scale (in units 2^-exponent, not folded back), term budget and OverflowError
    are `eval_theta(q, centre)`'s; the value is None (no sum is kept).  Each block of terms
    between two rescales is scaled once at the end, by 2^-600 per later rescale.
    """
    q = as_q(q).value
    centre = centre if isinstance(centre, complex) else float(centre)
    power, term, terms, marks = (1.0 + 0j) * q, 1.0 + 0j, [1.0 + 0j], []  # t_j = t_{j-1} q^j centre
    used, modulus, scale, exponent = 1, 1.0, 1.0, 0
    tolerance, max_terms = budget.tolerance, budget.max_terms
    while True:
        pending = power * centre
        r = abs(pending)
        bound = modulus * r
        if r < 0.5 and (tail := bound / (1.0 - r)) <= tolerance:
            tail *= 1.0 + _ULP * (used + 6) ** 2
            if tail <= tolerance:
                if not tail and centre:
                    tail = _LEAST_TAIL
                for missed, (start, end) in zip(range(len(marks), 0, -1), pairwise([0, *marks])):
                    terms[start:end] = [ldexp_complex(t, -_RESCALE_BITS * missed)
                                        for t in terms[start:end]]
                return terms, EvalResult(None, tail, used, scale + tail, exponent)
        if used >= max_terms:
            raise BudgetExceeded(f"theta on |z| = {abs(centre):g}: tail not below "
                                 f"{budget.tolerance:g} within {max_terms} terms")
        while bound > _RESCALE_AT:
            step, exponent, tolerance = _rescale(modulus, r, exponent, budget.tolerance)
            term, scale, modulus = term * step, scale * step, modulus * step
            bound = modulus * r
            marks.append(used)
        term *= pending
        power *= q
        used += 1
        modulus = abs(term)
        scale += modulus
        terms.append(term)


@functools.lru_cache(maxsize=4)
def _bins(n):
    """The bin indices 0, ..., n - 1 as complex numbers (read-only: the array is shared)."""
    import numpy as np

    bins = np.arange(n, dtype=complex)
    bins.flags.writeable = False
    return bins


def fold_terms(circles, n, derivative=False):
    """The block of the circles' terms folded mod n: one row per (terms, offset J) pair.

    Row i takes circle i's terms c_j at bins J + j mod n (0 <= J < n) by one slice assignment;
    only a row of more than n - J terms is folded.  At psi = 2 pi k / n the samples of
    theta(q, r e^{i psi}) = sum_j c_j e^{i j psi} are the inverse DFT, without the 1/n, of the
    folded a_m = sum_{j = m mod n} c_j; J multiplies them by e^{i J psi}.  With `derivative`
    (J = 0) the block is (len(circles), 2, n), and each second row folds the j c_j of z theta',
    m a_m + n sum_l l c_{m + l n} at bin m: wraps first, then one multiply by the bin indices.
    """
    import numpy as np

    block = np.zeros((len(circles), 2, n) if derivative else (len(circles), n), dtype=complex)
    folded = block[:, 0] if derivative else block
    for row, (terms, offset) in enumerate(circles):
        head = n - offset
        folded[row, offset:offset + len(terms)] = terms[:head]
        for wrap, start in enumerate(range(head, len(terms), n), 1):
            chunk = terms[start:start + n]
            folded[row, :len(chunk)] += chunk
            if derivative:
                block[row, 1, :len(chunk)] += np.multiply(n * wrap, chunk)
    if derivative:
        block[:, 1] += _bins(n) * folded
    return block


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

"""Evaluation of the partial theta series and its triple-product factorization.

The central object is theta(q, z) = sum_{j>=0} q^{j(j+1)/2} z^j, entire in z
for 0 < |q| < 1.  One kernel, `circle_terms`, forms its terms at a centre
with the one tail rule, rounding allowance, rescale and term budget, and
every series value is the math.fsum of the kept terms at one centre:

* theta and its z-derivative, alone or both from one pass (centre z),
* theta_dagger(q, z) = sum_{j>=0} q^{j(j-1)/2} z^j = 1 + z theta(q, z),
* G(q, z) = sum_{j>=1} q^{j(j-1)/2} z^{-j} = theta(q, 1/z) / z,
* the two-sided series theta_star = theta + G, and its product form
  theta_star = Q * U * R with
      Q = prod_{j>=1} (1 - q^j),
      U = prod_{j>=1} (1 + z q^j),
      R = prod_{j>=1} (1 + q^{j-1} / z).

`zeros` reads theta on its circles from the same terms.  Every evaluation
returns an `EvalResult` whose `tail_bound` is a proven majorant of the
dropped tail: for the series, term-modulus ratios are eventually geometric,
and for the products the dropped log-factors are bounded by a geometric sum.
Series sums carry a binary exponent, so term moduli far beyond the float
range (theta near its k-th zero grows like |q|^{-k^2/2}) are summed without
overflow.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import pairwise

from .errors import BudgetExceeded, DomainError, ZeroArgument

# Radius below which strong modulus-separation of the zeros of theta(q, .) is
# already established; quoted as an input, not recomputed.
C0 = 0.2078750206

# Before a term whose modulus would pass _RESCALE_AT is added, the running term
# and scale of a series are multiplied by 2^-_RESCALE_BITS and the bits move into
# its exponent.
_RESCALE_BITS = 600
_RESCALE_AT = 2.0 ** _RESCALE_BITS
# A positive tail bound is never returned below the least subnormal.
_LEAST_TAIL = math.ulp(0.0)
_ULP = 2.0 ** -52
_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")


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
    exponent is 0 whenever they fit in a float (for eval_theta_dz, whenever
    theta's do), and positive only for a series result beyond the float range;
    ratios such as |value| / scale and the phase of value do not depend on it.
    """

    value: complex
    tail_bound: float
    terms_used: int
    scale: float
    exponent: int = 0


def _sums(exponent, *parts):
    """EvalResults of (terms, tail, scale) parts in units 2^-exponent, folded back into all or none.

    Each value is the exact sum of its terms rounded once (math.fsum of the real and of the
    imaginary parts); a nonzero tail never folds back to 0.
    """
    sums = [(complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms))),
             tail, len(terms), scale) for terms, tail, scale in parts]
    try:
        return [EvalResult(ldexp_complex(v, exponent), math.ldexp(t, exponent) or t and _LEAST_TAIL,
                           n, math.ldexp(s, exponent)) for v, t, n, s in sums]
    except OverflowError:
        return [EvalResult(v, t, n, s, exponent) for v, t, n, s in sums]


def eval_theta(q, z, budget=DEFAULT_BUDGET):
    """sum_{j>=0} q^{j(j+1)/2} z^j with a certified geometric tail bound.

    The kept terms of `circle_terms` at the centre z, summed by `_sums`: within
    tail_bound + 2^-52 (n + 6)^2 scale of the series, n = terms_used (see `circle_terms`).
    """
    terms, res = circle_terms(as_q(q), require_finite(z, "z"), budget, "theta")
    return _sums(res.exponent, (terms, res.tail_bound, res.scale))[0]


def eval_theta_dagger(q, z, budget=DEFAULT_BUDGET):
    """sum_{j>=0} q^{j(j-1)/2} z^j = 1 + z + q z^2 + q^3 z^3 + ..., as 1 + z theta(q, z).

    No division forms the centre, so a z whose z / q leaves the float range still has its
    result; theta(q, z) is summed to tolerance / |z| (`_theta_times`), and the 1 is one more
    term in the result's units.
    """
    z = require_finite(z, "z")
    tolerance = budget.tolerance / abs(z) if z else math.inf
    exponent, (terms, tail, scale) = _theta_times(as_q(q), z, tolerance, budget, "theta_dagger")
    one = math.ldexp(1.0, -exponent)
    return _sums(exponent, ([complex(one), *terms], tail, scale + one))[0]


def eval_G(q, z, budget=DEFAULT_BUDGET):
    """sum_{j>=1} q^{j(j-1)/2} z^{-j} = theta(q, 1 / z) / z, the principal part of theta_star.

    theta(q, w), w = 1 / z, is summed to tolerance |z| (`_theta_times`).
    """
    z = require_finite(z, "z")
    if z == 0:
        raise ZeroArgument("G(q, z) requires z != 0")
    return _sums(*_theta_times(as_q(q), 1.0 / z, budget.tolerance * abs(z), budget, "G"))[0]


def _theta_times(q, w, tolerance, budget, what):
    """(exponent, (terms, tail, scale)) of w theta(q, w) in units 2^-exponent, for `_sums`.

    theta is summed to `tolerance`, the caller's over |w|, raised to the least normal float as a
    rescaled tolerance is (`circle_terms`); only then can the tail pass the caller's tolerance.
    w's binary exponent joins theta's, raised to the least normal's (so that 2^-exponent stays
    finite), and what is left of w multiplies each term.
    """
    tolerance = min(max(tolerance, sys.float_info.min), sys.float_info.max)
    try:
        terms, res = circle_terms(q, w, SeriesBudget(tolerance, budget.max_terms))
    except BudgetExceeded:  # name the caller's series and tolerance, not theta's
        raise BudgetExceeded(f"{what}: tail not below {budget.tolerance:g} "
                             f"within {budget.max_terms} terms") from None
    shift = max(math.frexp(abs(w))[1], sys.float_info.min_exp)  # |w| = unit 2^shift
    unit, w = math.ldexp(abs(w), -shift), ldexp_complex(w, -shift)
    tail = res.tail_bound * unit or res.tail_bound
    return res.exponent + shift, ([t * w for t in terms], tail, res.scale * unit)


def eval_theta_dz(q, z, budget=DEFAULT_BUDGET):
    """d/dz of the partial theta series: sum_{j>=1} j q^{j(j+1)/2} z^{j-1}.

    The theta' half of `eval_theta_and_dz`, in theta's exponent.
    """
    return _theta_and_dz(q, z, budget, "theta_dz")[1]


def eval_theta_and_dz(q, z, budget=DEFAULT_BUDGET):
    """(eval_theta(q, z), theta'(q, z) = sum_j j t_j / z) from one pass over the terms t_j.

    `circle_terms` runs on until theta' has its own tail below the tolerance too; theta is
    summed from its own first n terms, as in `eval_theta`, and both share one exponent.
    Term j t_j / z is formed as j t_{j-1} q^j, so that no subnormal t_j is divided by z.
    """
    return _theta_and_dz(q, z, budget, "theta")


def _theta_and_dz(q, z, budget, what):
    """`eval_theta_and_dz`, with `what` naming the series in the BudgetExceeded message."""
    q = as_q(q)
    terms, res, slope_tail = circle_terms(q, require_finite(z, "z"), budget, what, derivative=True)
    power, slopes = 1.0 + 0j, []
    for j, term in enumerate(terms[:-1], 1):
        power *= q.value
        slopes.append(j * (term * power))
    return tuple(_sums(res.exponent, (terms[:res.terms_used], res.tail_bound, res.scale),
                       (slopes, slope_tail, sum(map(abs, slopes)) + slope_tail)))


def circle_terms(q, centre, budget=DEFAULT_BUDGET, what=None, derivative=False, pivot=None):
    """The terms c_j = q^{j(j+1)/2} centre^j of theta(q, centre), and their tail bound and scale.

    The one series kernel; on the circle through `centre` theta(q, centre e^{i psi}) is
    sum_j c_j e^{i j psi}.  The EvalResult has value None (no sum is kept); it and the terms
    are in units 2^-exponent, not folded back, and its scale is the kept moduli plus the tail.
    `what` names the series in the BudgetExceeded message ("theta on |z| = |centre|").

    Term c_j is c_{j-1} s_j with the step s_j = q^j centre, q^j a running product.  The step
    moduli are nonincreasing, so once r = |s_n| < 1 the dropped tail is below
    |c_{n-1}| r / (1 - r).  With centre != 0 the dropped terms are nonzero, so a bound that
    underflows to 0.0 is rounded up to the least subnormal.  Before a term would pass
    _RESCALE_AT the running term and scale are multiplied by 2^-600, and the tolerance in
    units 2^-exponent is floored at the least normal float (a scaled tail below it loses
    precision; the tail bound stays honest); each block of terms between two rescales is
    scaled once at the end, by 2^-600 per later rescale.  A term or ratio beyond the float
    range, which no rescale keeps finite, raises OverflowError.  With `derivative` the pass
    runs on until theta' = sum_j j c_j / centre has its tail, |c_{n-1} q^n| (n / (1 - r) +
    r / (1 - r)^2), below the tolerance too, and returns it; the kept terms may then
    outnumber theta's n.  With `pivot` = i0 instead the pass also returns M1 = sum_i
    |i - i0| |c_i| over the kept terms (`zeros`' slope bound of a counting circle), formed
    from each |c_i| as the scale is: from |0 - i0| |c_0|, one product and one sum a term, and
    times 2^-600 at each rescale.  Those are the products and sums, in index order, of the sum
    over the returned terms, so M1 is that sum to the bit wherever no kept term is subnormal.

    Both tail bounds allow for rounding, u = 2^-53.  The computed |c_{n-1}| is a product of
    n - 1 computed steps, and step s_j carries the j - 1 products of q^j, its product with
    the centre and the product with c_{j-1}.  So (n^2 + 3n + 8)/2 roundings reach the tail
    bound with those of r and of the bound's three operations, and 2n more where the centre
    is formed by a division of relative error under 4.5 u (`eval_G`): (n^2 + 7n + 8)/2 at
    most.  At most n + 6 more reach the theta' bound through |q^n|.  Each is a relative
    2.25 u or less (a complex product is within sqrt(5) u), and every rounding of q^j is
    carried into all later terms.  Both bounds are therefore multiplied by
    1 + 2^-52 (n + 6)^2 before they are tested, which covers (1 + 2.25 u)^((n + 6)^2 / 2) and
    the product itself while the moduli are normal floats (and `_theta_times`' product with
    the mantissa of |w|).  That counts r's rounding, eta <= 2.25 u (n + 3), once:
    1 / (1 - r) magnifies it by x = r / (1 - r) <= 1 at r <= 1/2 (the theta' bound by 3x).
    Past 1/2 the factor is 1 + 2^-52 (n + 6)^2 x, used only below 2: then eta x < 0.1, and
    its extra is ten times 3 eta x (1 + eta x).
    """
    q = as_q(q).value
    centre = centre if isinstance(centre, complex) else float(centre)
    power, term, terms, marks = (1.0 + 0j) * q, 1.0 + 0j, [1.0 + 0j], []  # t_j = t_{j-1} q^j centre
    used, modulus, scale, exponent, res = 1, 1.0, 1.0, 0, None
    slope = 0.0 if pivot is None else abs(pivot) * 1.0  # M1 from |0 - pivot| |c_0|
    tolerance, max_terms = budget.tolerance, budget.max_terms
    while True:
        pending = power * centre
        r = abs(pending)
        bound = modulus * r
        if r < 1.0 and (tail := bound / (1.0 - r)) <= tolerance:
            tail *= (allowance := 1.0 + _ULP * (used + 6) ** 2 * max(1.0, r / (1.0 - r)))
            if tail <= tolerance and allowance < 2.0:
                if not tail and centre:
                    tail = _LEAST_TAIL
                res = res or EvalResult(None, tail, used, scale + tail, exponent)
                if not derivative:
                    break
                slope_tail = (modulus * abs(power) * (used + r / (1.0 - r)) / (1.0 - r)
                              * allowance or (_LEAST_TAIL if centre else 0.0))
                if slope_tail <= tolerance:
                    break
        if used >= max_terms:
            raise BudgetExceeded(f"{what or f'theta on |z| = {abs(centre):g}'}: tail not below "
                                 f"{budget.tolerance:g} within {max_terms} terms")
        while bound > _RESCALE_AT:
            if modulus == math.inf or r == math.inf:  # no rescale keeps the next term finite
                raise OverflowError("a term of the series leaves the float range")
            exponent += _RESCALE_BITS
            tolerance = max(math.ldexp(budget.tolerance, -exponent), sys.float_info.min)
            step = 2.0 ** -_RESCALE_BITS
            term, scale, modulus, slope = term * step, scale * step, modulus * step, slope * step
            bound = modulus * r
            marks.append(used)
        term *= pending
        power *= q
        modulus = abs(term)
        scale += modulus
        if pivot is not None:  # the new term is c_used
            slope += abs(used - pivot) * modulus
        used += 1
        terms.append(term)
    for missed, (start, end) in zip(range(len(marks), 0, -1), pairwise([0, *marks])):
        terms[start:end] = [ldexp_complex(t, -_RESCALE_BITS * missed) for t in terms[start:end]]
    if derivative:
        return terms, res, slope_tail
    return (terms, res) if pivot is None else (terms, res, slope)


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
    tolerance/10 and that bound is under tolerance; while e^S - 1 leaves the float range the
    bound is infinite, and the next factor is taken.  A partial product that leaves the float
    range (as an infinite deviation makes it), or that a nonzero factor rounds to 0, raises
    OverflowError at once: no later factor brings it back, and only a zero factor makes 0 exact.

    Rounding allowance, u = 2^-53: the returned value of n factors is within
    2^-52 (n + 6)^2 kappa |value| of the exact partial product prod_{j<=n} (1 + d_j), so within
    that plus the tail bound of the infinite product, while the moduli are normal floats.
    kappa = max(1, 2 w / (n^2 + 3n)), w = sum_{j<=n} (j + 1) |d_j| / |1 + d_j|, is the
    conditioning of the factors: 1 where no factor is near 0 (so for real positive deviations
    and for Q at |q| <= 0.95), and large only near a zero of the product.  The computed d_1 is
    within 4.5 u of d_1 (a product z q, or a division 1 / z; -q is exact), and each later one
    a complex product more, within sqrt(5) u < 2.25 u: so d_j is within
    theta_j <= 2.25 (j + 1) u (1 + 2^-40) of d_j, relative, for (j + 1) u < 2^-45.  Forming
    1 + d_j rounds its real part, a relative u of |1 + d_j|, so the factor is within
    |d_j| / |1 + d_j| 2.25 (j + 1) u (1 + 2^-39) + u of 1 + d_j, relative.  The product takes
    n - 1 complex products (the first, by 1, is exact), each within 2.25 u.  In all the value
    is within e^x - 1 of the exact partial product, relative, with x at most u times
    2.25 w (1 + 2^-39) + 3.25 n <= kappa (1.125 (n^2 + 3n) (1 + 2^-39) + 3.25 n)
    <= 1.125 kappa (n + 6)^2, and e^x - 1 <= 1.13 kappa u (n + 6)^2 while x <= 2^-10: 0.57 of
    the allowance.  Its other 0.43 covers the shortfall of
    the returned tail bound B against |partial| (e^S - 1) for the exact partial product and
    tail sum S: the roundings of |d_n|, rho, 1 - rho, the quotient, expm1 and the last product
    make B short by a relative (n + 8 + rho / (1 - rho)) 2.25 u (1 + S) at most, rho = |ratio|
    (expm1 turns a relative error of S into at most 1 + S times it), and |prod| is short of
    |partial| by the value's error at most.  That is within the 0.43 while
    B <= |value| / 4 and B <= 0.25 (n + 6)^2 kappa |value| / ((n + 8 + rho / (1 - rho)) (1 + S)).
    """
    prod = 1.0 + 0j
    dev = complex(first_dev)
    rho = abs(ratio)
    used = 0
    scale = 0.0
    while True:
        prod *= (factor := 1.0 + dev)
        if not cmath.isfinite(prod) or not prod and factor:
            raise OverflowError(f"{what}: a factor of the product leaves the float range")
        used += 1
        m = abs(dev)
        scale += m
        if prod == 0:
            # an exact zero factor annihilates the full product
            return EvalResult(prod, 0.0, used, scale)
        tail_sum = m * rho / (1.0 - rho)
        try:
            bound = abs(prod) * math.expm1(tail_sum)
        except OverflowError:
            bound = math.inf
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

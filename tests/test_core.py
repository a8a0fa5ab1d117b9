import cmath
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetasep import (
    BudgetExceeded,
    DomainError,
    QParameter,
    SeriesBudget,
    ZeroArgument,
    eval_G,
    eval_Q,
    eval_R,
    eval_U,
    eval_theta,
    eval_theta_and_dz,
    eval_theta_dagger,
    eval_theta_dz,
    eval_theta_star,
)
from thetasep import core
from thetasep.core import circle_terms, fold_terms, ldexp_complex


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_q_parameter_validation():
    with pytest.raises(DomainError):
        QParameter(0.0)
    with pytest.raises(DomainError):
        QParameter(1.0)
    with pytest.raises(DomainError):
        QParameter(1.5j)
    with pytest.raises(DomainError):
        QParameter(complex("nan"))
    with pytest.raises(DomainError):
        QParameter(complex("inf"))


def test_q_parameter_polar_consistency():
    q = QParameter.from_polar(0.47, 2.1)
    assert q.modulus == pytest.approx(0.47, abs=1e-15)
    assert q.argument == pytest.approx(2.1, abs=1e-15)
    assert abs(q.value - cmath.rect(0.47, 2.1)) < 1e-15


def test_q_parameter_membership():
    assert QParameter.from_polar(0.6, math.pi / 2).in_left_half_disk(0.6)
    assert QParameter(-0.55).in_left_half_disk(0.6)
    assert not QParameter(0.3).in_left_half_disk(0.6)
    assert QParameter(0.15).in_punctured_disk(0.2078750206)
    assert not QParameter(0.3).in_punctured_disk(0.2078750206)


def test_series_budget_validation():
    with pytest.raises(DomainError):
        SeriesBudget(tolerance=0.0)
    with pytest.raises(DomainError):
        SeriesBudget(tolerance=-1e-9)
    with pytest.raises(DomainError):
        SeriesBudget(max_terms=1)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_at_z_zero_is_one():
    for q in (0.5, -0.3, 0.6j, QParameter.from_polar(0.2, 2.9)):
        res = eval_theta(q, 0.0)
        assert res.value == 1.0 + 0j
        assert res.tail_bound == 0.0


def test_theta_half_one_matches_exact_rational_oracle():
    # brute-force summation with exact rational arithmetic, 60 terms
    oracle = Fraction(0)
    for j in range(61):
        oracle += Fraction(1, 2) ** (j * (j + 1) // 2)
    assert float(oracle) == pytest.approx(1.641632560655154, abs=1e-15)
    res = eval_theta(0.5, 1.0)
    assert abs(res.value - float(oracle)) <= res.tail_bound + 1e-15


def test_theta_reindex_identity_single_point():
    # theta(q, z) = 1 + q z theta(q, q z), forced by shifting the index
    q, z = 0.3 + 0.3j, 2.0 + 0j
    lhs = eval_theta(q, z)
    inner = eval_theta(q, q * z)
    rhs = 1.0 + q * z * inner.value
    slack = lhs.tail_bound + abs(q * z) * inner.tail_bound + 1e-12
    assert abs(lhs.value - rhs) <= slack


def test_theta_tail_bound_within_tolerance():
    budget = SeriesBudget(tolerance=1e-12)
    res = eval_theta(0.55j, 12.0 - 3.0j, budget)
    assert 0.0 <= res.tail_bound <= budget.tolerance


def _mp_theta(q, z, terms):
    import mpmath
    q, z = mpmath.mpf(q), mpmath.mpf(z)
    return mpmath.fsum(q ** (j * (j + 1) // 2) * z ** j for j in range(terms))


def test_theta_exponent_folded_back_when_the_result_fits():
    import mpmath
    assert eval_theta(0.55j, 12.0 - 3.0j).exponent == 0
    assert eval_theta_dz(-0.5, 40.0).exponent == 0
    # the largest terms, about 1e190, pass the rescale threshold; the sum fits
    res = eval_theta(0.1, 1e20)
    assert res.exponent == 0
    assert res.tail_bound <= SeriesBudget().tolerance    # tested in units of 2^600 while summed
    with mpmath.workdps(40):
        exact = _mp_theta(0.1, 1e20, 80)
        assert abs(mpmath.mpc(res.value) - exact) <= 1e-14 * abs(exact)
        assert res.scale >= abs(exact) * (1 - 1e-12)


@pytest.mark.parametrize("q, z, terms", [
    (0.1, 1e40, 120),     # sum about 2e780
    (0.5, 1e308, 1200),   # single term ratios up to 5e307
])
def test_theta_exponent_carries_terms_beyond_float_range(q, z, terms):
    import mpmath
    res = eval_theta(q, z)
    assert res.exponent > 0
    assert all(math.isfinite(x) for x in (res.value.real, res.value.imag, res.scale))
    with mpmath.workdps(40):
        exact = _mp_theta(q, z, terms)
        got = mpmath.mpc(res.value) * mpmath.mpf(2) ** res.exponent
        assert abs(got - exact) <= 1e-12 * abs(exact)
        # the scale sum is uncompensated: it may round below a sum of positive terms
        assert mpmath.mpf(res.scale) * mpmath.mpf(2) ** res.exponent >= abs(exact) * (1 - 1e-12)


def test_series_term_beyond_float_range_raises_overflow():
    with pytest.raises(OverflowError):
        eval_theta_dz(0.99, 1.7e308)    # the ratio 2 q^2 z is itself beyond the float range
    with pytest.raises(OverflowError):
        eval_G(0.5, 1e-310)             # the first term 1/z is


@pytest.mark.parametrize("z", [1e40, 1e-40, -1e30 + 1e30j])
def test_theta_star_series_combines_exponents(z):
    star = eval_theta_star(0.1, z)
    parts = [eval_theta(0.1, z, SeriesBudget(5e-13)), eval_G(0.1, z, SeriesBudget(5e-13))]
    assert star.exponent == max(p.exponent for p in parts) > 0
    expected = sum(p.value * 2.0 ** (p.exponent - star.exponent) for p in parts)
    assert star.value == pytest.approx(expected, rel=1e-15)
    assert star.terms_used == sum(p.terms_used for p in parts)


def test_theta_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        eval_theta(0.9, 5.0, SeriesBudget(tolerance=1e-30, max_terms=5))


# ---------------------------------------------------------------------------
# theta_dagger
# ---------------------------------------------------------------------------

def test_dagger_at_z_zero_is_one():
    assert eval_theta_dagger(0.4j, 0.0).value == 1.0 + 0j


def test_dagger_04_one_matches_exact_rational_oracle():
    oracle = Fraction(0)
    for j in range(61):
        oracle += Fraction(2, 5) ** (j * (j - 1) // 2)
    assert float(oracle) == pytest.approx(2.468201935747081, abs=1e-15)
    res = eval_theta_dagger(0.4, 1.0)
    assert abs(res.value - float(oracle)) <= res.tail_bound + 1e-15


def test_dagger_equals_theta_of_z_over_q():
    rng = np.random.default_rng(7)
    for _ in range(25):
        q = cmath.rect(rng.uniform(0.05, 0.6), rng.uniform(-math.pi, math.pi))
        z = cmath.rect(rng.uniform(0.1, 3.0), rng.uniform(0.0, 2 * math.pi))
        a = eval_theta_dagger(q, z)
        b = eval_theta(q, z / q)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound + 1e-12 * (a.scale + b.scale)


def test_dagger_nonzero_on_half_power_circle():
    # |z| = |q|^{-1/2} never meets a zero for q in the left half-disk
    for arg_q in (math.pi / 2, 2.2, math.pi):
        for arg_z in (0.0, 1.1, 2.5, 4.0):
            q = QParameter.from_polar(0.6, arg_q)
            z = cmath.rect(0.6 ** -0.5, arg_z)
            assert abs(eval_theta_dagger(q, z).value) > 0.05


# ---------------------------------------------------------------------------
# G
# ---------------------------------------------------------------------------

def test_g_rejects_zero_argument():
    with pytest.raises(ZeroArgument):
        eval_G(0.5, 0.0)


@pytest.mark.parametrize("exponent,cap", [(4.5, 0.1066576686), (3.5, 0.1851580824)])
def test_g_modulus_bounds_on_inner_circles(exponent, cap):
    # |G| <= sum 0.6^{j(j-1)/2 + exponent*j} on |z| = |q|^{-exponent}, |q| <= 0.6
    for q in (-0.6, 0.6j, cmath.rect(0.6, 2.5), cmath.rect(0.45, 1.8)):
        z = cmath.rect(abs(q) ** -exponent, 0.7)
        res = eval_G(q, z)
        assert abs(res.value) <= cap + res.tail_bound + 1e-9


def test_g_leading_term_dominates_for_large_z():
    res = eval_G(0.5, 1e6 + 0j)
    assert abs(res.value - 1e-6) < 1e-9


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_q_product_tends_to_one_at_small_q():
    assert abs(eval_Q(1e-8).value - 1.0) < 1e-7


def test_q_product_lower_bound_on_imaginary_axis():
    assert abs(eval_Q(0.6j).value) >= 1.2


@pytest.mark.xfail(
    strict=True,
    reason="the claimed floor |Q| >= 1.2 on the left half-disk of radius 0.6 fails "
           "near arg(q) = pi: |Q(-0.6)| = 1.1325546865, confirmed independently by "
           "the pentagonal-number series")
def test_q_product_lower_bound_at_negative_real_axis():
    assert abs(eval_Q(-0.6).value) >= 1.2


def test_q_product_matches_pentagonal_series_oracle():
    # Euler: prod (1 - x^j) = sum_k (-1)^k (x^{k(3k-1)/2} + x^{k(3k+1)/2}), k >= 1
    for x in (-0.6, 0.35, -0.5):
        oracle = 1.0
        for k in range(1, 40):
            oracle += (-1) ** k * (x ** (k * (3 * k - 1) // 2) + x ** (k * (3 * k + 1) // 2))
        res = eval_Q(x)
        assert abs(res.value - oracle) <= res.tail_bound + 1e-13


def test_r_rejects_zero_argument():
    with pytest.raises(ZeroArgument):
        eval_R(0.5, 0.0)


def test_factors_compose_to_theta_star():
    q, z = 0.4j, 2.0 - 1.0j
    prod = eval_Q(q).value * eval_U(q, z).value * eval_R(q, z).value
    star = eval_theta_star(q, z, method="product")
    assert abs(prod - star.value) < 1e-10 * max(1.0, abs(star.value))


def test_product_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        eval_Q(0.9, SeriesBudget(tolerance=1e-12, max_terms=3))


# ---------------------------------------------------------------------------
# theta_star
# ---------------------------------------------------------------------------

def test_theta_star_series_vs_product():
    s = eval_theta_star(0.5j, 3.0, method="series")
    p = eval_theta_star(0.5j, 3.0, method="product")
    assert abs(s.value - p.value) < 1e-10
    assert abs(s.value - p.value) <= s.tail_bound + p.tail_bound + 1e-12


def test_theta_star_decomposition_single_point():
    q, z = -0.4, -2.5
    total = eval_theta_star(q, z, method="series")
    split = eval_theta(q, z).value + eval_G(q, z).value
    assert abs(total.value - split) < 1e-13


def test_theta_star_series_converges_quickly():
    res = eval_theta_star(0.2, 5.0, method="series")
    assert res.terms_used < 100


def test_theta_star_rejects_zero_and_bad_method():
    with pytest.raises(ZeroArgument):
        eval_theta_star(0.5, 0.0)
    with pytest.raises(DomainError):
        eval_theta_star(0.5, 1.0, method="magic")


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_dz_at_zero_is_q():
    for q in (0.3j, -0.25, 0.5):
        assert eval_theta_dz(q, 0.0).value == pytest.approx(complex(q), abs=1e-15)


def test_dz_matches_finite_differences():
    q, z, h = 0.3, 1.7, 1e-6
    fd = (eval_theta(q, z + h).value - eval_theta(q, z - h).value) / (2 * h)
    an = eval_theta_dz(q, z).value
    assert abs(fd - an) / abs(an) < 1e-8


def test_dz_conjugation_symmetry():
    q, z = 0.4 + 0.2j, 1.3 - 0.8j
    a = eval_theta_dz(q.conjugate(), z.conjugate()).value
    b = eval_theta_dz(q, z).value.conjugate()
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# theta and theta' from one pass over the terms of theta
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    # repr tells -0.0 from 0.0 and prints every float exactly
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


def _check_pass(q, z, budget=SeriesBudget()):
    """The pass's theta is eval_theta's; its theta' is eval_theta_dz's within the bounds."""
    f, fp = eval_theta_and_dz(q, z, budget)
    assert _same_bits(f, eval_theta(q, z, budget))
    assert fp.exponent == f.exponent
    assert f.tail_bound <= budget.tolerance and fp.tail_bound <= budget.tolerance
    ref = eval_theta_dz(q, z, budget)
    e = max(fp.exponent, ref.exponent)  # compare in the larger units: nothing overflows
    got = ldexp_complex(fp.value, fp.exponent - e)
    want = ldexp_complex(ref.value, ref.exponent - e)
    tails = math.ldexp(fp.tail_bound, fp.exponent - e) + math.ldexp(ref.tail_bound, ref.exponent - e)
    scale = max(math.ldexp(fp.scale, fp.exponent - e), math.ldexp(ref.scale, ref.exponent - e))
    assert abs(got - want) <= tails + 1e-13 * scale
    return f, fp


@pytest.mark.parametrize("q, z", [
    (0.5, 0.3), (0.55j, 12.0 - 3.0j), (-0.3 + 0.3j, -(-0.3 + 0.3j) ** -5),
    (0.9, 0.05),              # theta' needs two terms more than theta
    (0.1, 2.0),               # theta' needs one term less
    (0.5, 1e-20),             # theta stops after t_0, theta' after t_1
    (cmath.rect(0.95, 2.0), -3.0 + 1.0j), (0.1, 1e20), (-0.5, 40.0),
])
def test_theta_and_dz_match_separate_evaluations(q, z):
    _check_pass(q, z)


@pytest.mark.parametrize("q, z", [
    (0.5, 0.3), (0.9, 0.05), (cmath.rect(0.4, 2.5), 7.0 - 2.0j), (0.3j, 0.001), (-0.6, 25.0),
])
def test_theta_and_dz_weighted_tail_bounds_the_dropped_terms(q, z):
    import mpmath
    budget = SeriesBudget(tolerance=1e-8)
    _, fp = eval_theta_and_dz(q, z, budget)
    assert fp.exponent == 0 and fp.tail_bound <= budget.tolerance
    n = fp.terms_used + 1  # the first dropped term of theta' = sum_j j t_j / z
    with mpmath.workdps(50):
        mq, mz = abs(mpmath.mpc(q)), abs(mpmath.mpc(z))
        dropped = mpmath.fsum(j * mq ** (j * (j + 1) // 2) * mz ** (j - 1)
                              for j in range(n, n + 80))
        assert dropped > 0
        assert mpmath.mpf(fp.tail_bound) * (1 + mpmath.mpf(1e-12)) >= dropped


def test_theta_and_dz_share_one_exponent():
    q = QParameter(0.1)
    # near the k = 28 zero the terms reach 1e392: neither result fits in a float, and
    # the separate evaluations carry different exponents
    seed = -(0.1 ** -28) * (1 + 1e-6)
    f, fp = _check_pass(q, seed)
    assert f.exponent == fp.exponent > 0
    assert eval_theta_dz(q, seed).exponent not in (0, f.exponent)
    # at |z| = 10^25.5 theta' alone would fit (scale about 1e288) but theta does not
    f, fp = _check_pass(q, -(10 ** 25.5))
    assert f.exponent == fp.exponent == 600
    assert math.isfinite(math.ldexp(fp.scale, 600))
    with pytest.raises(OverflowError):
        math.ldexp(f.scale, 600)
    # terms pass the rescale threshold but both results fit: both are folded back
    f, fp = _check_pass(q, 1e20)
    assert f.exponent == fp.exponent == 0


def test_theta_and_dz_tails_stay_honest_after_two_rescales():
    # in units 2^-1200 the dropped terms of both halves lie below the least subnormal
    import mpmath
    q, z = 0.1, -(0.1 ** -28) * (1 + 1e-6)
    f, fp = _check_pass(q, z)
    assert f.exponent == fp.exponent == 1200
    with mpmath.workdps(50):
        mq, mz = mpmath.mpf(q), abs(mpmath.mpf(z))
        unit = mpmath.mpf(2) ** -f.exponent
        theta_dropped = mpmath.fsum(mq ** (j * (j + 1) // 2) * mz ** j
                                    for j in range(f.terms_used, f.terms_used + 40)) * unit
        dz_dropped = mpmath.fsum(j * mq ** (j * (j + 1) // 2) * mz ** (j - 1)
                                 for j in range(fp.terms_used + 1, fp.terms_used + 40)) * unit
        assert 0 < dz_dropped < mpmath.mpf(math.ulp(0.0))
        slack = 1 + mpmath.mpf(1e-12)  # rounding of the float term moduli
        assert mpmath.mpf(f.tail_bound) * slack >= theta_dropped > 0
        assert mpmath.mpf(fp.tail_bound) * slack >= dz_dropped


def _dropped_moduli(q, z, first, weight):
    """mpmath sum over j >= first of weight(j) |q|^{j(j+1)/2} |z|^j, to 40 digits."""
    import mpmath
    mq, mz = abs(mpmath.mpc(q)), abs(mpmath.mpc(z))
    total, j = mpmath.mpf(0), first
    while True:
        term = weight(j) * mq ** (j * (j + 1) // 2) * mz ** j
        total += term
        if term < total * mpmath.mpf(10) ** -40:
            return total
        j += 1


# |q| in [0.05, 0.9] and |z| = |q|^-s, s in [0, 25], at random arguments
_TAIL_POINTS = [(0.1, -(0.1 ** -28) * (1 + 1e-6))] + [
    (cmath.rect(m, a), cmath.rect(m ** -s, b)) for m, a, s, b in np.random.default_rng(61).uniform(
        (0.05, -math.pi, 0.0, -math.pi), (0.9, math.pi, 25.0, math.pi), (6, 4))]


@pytest.mark.parametrize("q, z", _TAIL_POINTS)
def test_tail_bounds_cover_the_dropped_moduli_without_slack(q, z):
    # the rounding allowance makes both bounds hold against the exact dropped moduli
    import mpmath
    f, fp = eval_theta_and_dz(q, z)
    assert _same_bits(f, eval_theta(q, z))
    with mpmath.workdps(60):
        unit = mpmath.mpf(2) ** -f.exponent
        theta = _dropped_moduli(q, z, f.terms_used, lambda j: 1) * unit
        dz = _dropped_moduli(q, z, fp.terms_used + 1, lambda j: j) / abs(mpmath.mpc(z)) * unit
        assert mpmath.mpf(f.tail_bound) >= theta > 0
        assert mpmath.mpf(fp.tail_bound) >= dz > 0


@pytest.mark.parametrize("q", [0.5, -0.3 + 0.3j, cmath.rect(0.9, 2.0)])
@pytest.mark.parametrize("z", [1e-310, -3e-320j, 5e-324, cmath.rect(2e-308, 1.0)])
def test_theta_and_dz_at_subnormal_z(q, z):
    # theta' = q + 2 q^3 z + ...: no subnormal t_1 = q z is divided by z
    f, fp = _check_pass(q, z)
    ref = eval_theta_dz(q, z)
    assert abs(fp.value - ref.value) <= fp.tail_bound + ref.tail_bound
    # terms were dropped by all three sums, so no tail reads 0
    assert f.tail_bound > 0 and fp.tail_bound > 0 and ref.tail_bound > 0


def test_tail_is_zero_only_where_nothing_was_dropped():
    for q in (0.3j, -0.25):
        assert eval_theta(q, 0.0).tail_bound == eval_theta_dagger(q, 0.0).tail_bound == 0.0
        assert eval_theta(q, 5e-324).tail_bound == math.ulp(0.0)


def test_theta_and_dz_at_zero():
    for q in (0.3j, -0.25, QParameter.from_polar(0.5, 2.0)):
        f, fp = eval_theta_and_dz(q, 0.0)
        assert _same_bits(f, eval_theta(q, 0.0))
        assert _same_bits(fp, eval_theta_dz(q, 0.0))


def test_theta_and_dz_errors():
    # theta alone stops within 8 terms; the pass needs 10 for theta'
    budget = SeriesBudget(max_terms=8)
    assert eval_theta(0.9, 0.05, budget).terms_used == 8
    with pytest.raises(BudgetExceeded):
        eval_theta_and_dz(0.9, 0.05, budget)
    # eval_theta_dz overflows in its ratio 2 q^2 z here; the pass takes q z
    with pytest.raises(BudgetExceeded):
        eval_theta_and_dz(0.99, 1.7e308)
    with pytest.raises(OverflowError):
        eval_theta_and_dz(0.9, 1.7e308 + 1.7e308j)   # |q z| is beyond the float range
    with pytest.raises(DomainError):
        eval_theta_and_dz(0.5, complex("nan"))


@settings(max_examples=150, deadline=None)
@given(modulus=st.floats(0.01, 0.95, exclude_max=True), arg_q=st.floats(-math.pi, math.pi),
       power=st.floats(-3.0, 14.0), arg_z=st.floats(-math.pi, math.pi))
def test_theta_and_dz_property(modulus, arg_q, power, arg_z):
    # |z| = |q|^-power: from well inside the first zero to past the 14th
    _check_pass(cmath.rect(modulus, arg_q), cmath.rect(modulus ** -power, arg_z))


@pytest.mark.parametrize("q, z, before", [
    (0.5, 0.3, 15.893508532117336 + 0j),
    (0.5, -2 + 1j, -0.34216335182387353 - 0.13041272638870238j),
    (-0.3 + 0.4j, 0.05 - 0.02j, -854.4026216305778 - 907.9057444705111j),
    (0.1, 1e-3j, 899000.0001000004 + 899000.9999999992j),
    (0.6j, -0.7 - 0.2j, -0.37917259541785675 + 1.834620813983742j),
    (-0.55, 0.011 + 0.3j, 10.619149811616444 - 9.49535778378924j),
    (0.40859144976559214 + 0.801905871769531j, 0.02,
     -2.9876424076166457e+32 + 1.8304634323691433e+32j),
])
def test_g_steps_by_inverse_of_z(q, z, before):
    # the G steps are q^m * (1 / z); values summed with q^m / z are recorded in `before`
    res = eval_G(q, z)
    assert abs(res.value - before) <= 4 * 2.0 ** -52 * res.scale


# ---------------------------------------------------------------------------
# sampled invariants
# ---------------------------------------------------------------------------

def _random_qz(rng):
    q = cmath.rect(rng.uniform(0.05, 0.6), rng.uniform(-math.pi, math.pi))
    z = cmath.rect(10.0 ** rng.uniform(-0.7, 2.0), rng.uniform(0.0, 2 * math.pi))
    return q, z


def test_conjugation_symmetry_sampled():
    rng = np.random.default_rng(11)
    for _ in range(100):
        q, z = _random_qz(rng)
        a = eval_theta(complex(q).conjugate(), z.conjugate())
        b = eval_theta(q, z)
        assert abs(a.value - b.value.conjugate()) <= a.tail_bound + b.tail_bound \
            + 1e-13 * (a.scale + b.scale)


def test_functional_identity_sampled():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q, z = _random_qz(rng)
        lhs = eval_theta(q, z)
        inner = eval_theta(q, q * z)
        slack = lhs.tail_bound + abs(q * z) * inner.tail_bound \
            + 1e-13 * (lhs.scale + abs(q * z) * inner.scale + 1.0)
        assert abs(lhs.value - (1.0 + q * z * inner.value)) <= slack


def test_decomposition_and_factorization_sampled():
    rng = np.random.default_rng(17)
    for _ in range(60):
        q, z = _random_qz(rng)
        th = eval_theta(q, z)
        g = eval_G(q, z)
        star_s = eval_theta_star(q, z, method="series")
        star_p = eval_theta_star(q, z, method="product")
        scale = th.scale + g.scale
        assert abs(th.value - (star_s.value - g.value)) <= \
            th.tail_bound + g.tail_bound + star_s.tail_bound + 1e-13 * scale
        assert abs(star_s.value - star_p.value) <= \
            star_s.tail_bound + star_p.tail_bound + 1e-13 * scale


def test_tail_bound_honesty_sampled():
    # refining the budget moves the value by less than the coarse tail bound
    rng = np.random.default_rng(19)
    coarse = SeriesBudget(tolerance=1e-6)
    fine = SeriesBudget(tolerance=1e-14)
    for _ in range(60):
        q, z = _random_qz(rng)
        v1 = eval_theta(q, z, coarse)
        v2 = eval_theta(q, z, fine)
        assert abs(v1.value - v2.value) <= v1.tail_bound + 1e-12 * v1.scale
        g1 = eval_G(q, z, coarse)
        g2 = eval_G(q, z, fine)
        assert abs(g1.value - g2.value) <= g1.tail_bound + 1e-12 * g1.scale


# ---------------------------------------------------------------------------
# contour samples by inverse FFT of the series terms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, exponent, n, rescaled, folded", [
    (cmath.rect(0.4, 2.5), 3.5, 256, False, False),   # plain circle
    (cmath.rect(0.2, 3.0), 24.1, 64, True, False),    # terms reach 1e203: rescaled once
    (-0.9995, 1.5, 256, False, True),                 # 1388 terms folded mod 256
])
def test_fft_contour_matches_scalar_eval(q, exponent, n, rescaled, folded):
    q = QParameter(q)
    radius = q.modulus ** -exponent
    # the contour path of zeros._contours: the terms folded mod n, one inverse FFT
    terms, res = circle_terms(q, radius)
    (coefficients,) = fold_terms([(terms, 0)], n)
    vals, scale, exp2 = np.fft.ifft(coefficients, norm="forward"), res.scale, res.exponent
    centre = eval_theta(q, radius)  # the same terms: its tail is the contour's tail
    assert (exp2 == 600) is rescaled
    assert (centre.terms_used > n) is folded
    tail = math.ldexp(centre.tail_bound, centre.exponent - exp2)
    for k in range(n):
        ref = eval_theta(q, radius * cmath.exp(2j * math.pi * k / n))
        value = ldexp_complex(ref.value, ref.exponent - exp2)
        bound = tail + math.ldexp(ref.tail_bound, ref.exponent - exp2) + 1e-13 * scale
        assert abs(vals[k] - value) <= bound


@settings(max_examples=200, deadline=None)
@given(modulus=st.floats(1e-300, 0.6), arg_q=st.floats(-math.pi, math.pi),
       log_radius=st.floats(-50.0, 700.0), shifted=st.booleans())
def test_circle_terms_are_the_terms_of_eval_theta(modulus, arg_q, log_radius, shifted):
    # real radii up to 1e304, and the complex centres q^J r of zeros._shifted_circle
    from thetasep import zeros
    q, centre = QParameter(cmath.rect(modulus, arg_q)), math.exp(log_radius)
    if shifted and (shift := zeros._head_shift(q, centre)):
        centre = q.value ** shift * centre
    try:
        want = eval_theta(q, centre)
    except (BudgetExceeded, OverflowError) as exc:
        with pytest.raises(type(exc)):
            circle_terms(q, centre)
        return
    terms, got = circle_terms(q, centre)
    assert got.terms_used == want.terms_used == len(terms)
    # eval_theta folds its exponent back where its results fit, by the same ldexp
    units = got.exponent - want.exponent
    assert units in (0, got.exponent)
    assert math.ldexp(got.tail_bound, units) == want.tail_bound
    assert math.ldexp(got.scale, units) == want.scale
    # the same terms: eval_theta's compensated sum is within 2u scale of their exact sum, and
    # fsum of the parts within sqrt(2) u (u = 2^-53; up to 1.8u seen)
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    assert abs(ldexp_complex(total, units) - want.value) <= 2.0 ** -51 * want.scale


def _step_by_step_terms(q, centre, count):
    """The first `count` terms of theta(q, centre), by the rule that multiplies every term kept so
    far by 2^-600 at each rescale step; the indices of the terms that were subnormal before a step
    (rounded twice); and the number of terms kept at the last step."""
    kept, rounded_twice, term, power = [1.0 + 0j], set(), 1.0 + 0j, (1.0 + 0j) * q
    last = 0
    while len(kept) < count:
        pending = power * centre
        while abs(term) * abs(pending) > 2.0 ** 600:
            rounded_twice.update(j for j, t in enumerate(kept)
                                 if any(0.0 < abs(x) < sys.float_info.min for x in (t.real, t.imag)))
            term *= 2.0 ** -600
            kept[:] = [t * 2.0 ** -600 for t in kept]
            last = len(kept)
        term *= pending
        power *= q
        kept.append(term)
    return kept, rounded_twice, last


def test_rescaled_circle_terms_match_the_step_by_step_rule(monkeypatch):
    # 57 rescales over 354 terms; circle_terms scales each block between two rescales once
    q, centre = QParameter(-0.59), 0.59 ** -300.5
    scaled = []
    ldexp = core.ldexp_complex
    monkeypatch.setattr(core, "ldexp_complex", lambda v, e: scaled.append(v) or ldexp(v, e))
    terms, res = circle_terms(q, centre)
    assert res.exponent == 57 * 600 and len(terms) == 354
    want, rounded_twice, last = _step_by_step_terms(q.value, centre, len(terms))
    assert len(scaled) == last == 289  # each term kept at the last rescale is scaled once
    # One rounding of t 2^-600m against m: they differ only where t 2^-600s is subnormal for an
    # s < m, and the next step takes that below the least subnormal, so both give 0.  No term
    # differs, and the terms that the step-by-step rule rounds twice are all 0.
    assert terms == want
    assert len(rounded_twice) == 21 and all(terms[j] == 0 for j in rounded_twice)

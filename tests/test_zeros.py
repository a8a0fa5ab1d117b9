import cmath
import contextlib
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetasep import (
    C0,
    Annulus,
    BudgetExceeded,
    ContourTooClose,
    DomainError,
    NoConvergence,
    QParameter,
    ZeroRecord,
    count_zeros_in_annulus,
    locate_zero,
    verify_separation,
    winding_number,
    winding_numbers,
)
from thetasep import core, zeros
from thetasep.core import (
    EvalResult,
    SeriesBudget,
    circle_terms,
    eval_theta,
    eval_theta_and_dz,
    eval_theta_dz,
    fold_terms,
    ldexp_complex,
)


def _folded_terms(q, radius, n, derivative=False):
    """The terms of theta(q, radius) folded mod n, one circle at a time, and their EvalResult:
    an (n,) row, or (2, n) rows whose second folds z theta' = sum_j j c_j e^{i j psi}.

    The reference for core's `fold_terms`, whose block rows must equal these bytewise.
    """
    terms, res = circle_terms(q, radius)
    rows = np.zeros((2, n) if derivative else n, dtype=complex)
    folded = rows[0] if derivative else rows
    head = min(n, len(terms))
    folded[:head] = terms[:head]
    for wrap, start in enumerate(range(head, len(terms), n), 1):
        chunk = terms[start:start + n]
        folded[:len(chunk)] += chunk
        if derivative:  # j = m + wrap n adds wrap n c_j to bin m
            rows[1, :len(chunk)] += np.multiply(n * wrap, chunk)
    if derivative:
        rows[1, :head] += np.arange(head) * folded[:head]
    return rows, res


def test_annulus_validation():
    with pytest.raises(DomainError):
        Annulus(2.0, 1.0)
    with pytest.raises(DomainError):
        Annulus(1.0, 2.0, degenerate=True)
    assert Annulus.for_index(1).degenerate
    assert Annulus.for_index(4).inner_exponent == 3.5
    with pytest.raises(DomainError):
        Annulus.for_index(0)


def test_annulus_radii_and_membership():
    ann = Annulus.for_index(2)
    q = QParameter(-0.5)
    assert ann.inner_radius(q) == pytest.approx(0.5 ** -1.5)
    assert ann.outer_radius(q) == pytest.approx(0.5 ** -2.5)
    assert ann.contains(q, -4.0)
    assert not ann.contains(q, -10.0)


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def test_winding_zero_on_small_disk_with_scan_oracle():
    # oracle: 10^6-point modulus scan shows |theta| bounded away from 0 on |z| <= 0.5
    q = QParameter(0.1)
    angles = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
    low = math.inf
    for r in np.linspace(0.005, 0.5, 100):
        vals = np.fft.ifft(_folded_terms(q, float(r), len(angles))[0], norm="forward")
        low = min(low, float(np.min(np.abs(vals))))
    assert low > 0.9
    assert winding_number(q, 0.5).count == 0


def test_winding_counts_first_zero():
    res = winding_number(QParameter(0.1), 0.1 ** -1.5)
    assert res.count == 1
    assert res.min_modulus_on_contour > 1e-6


def test_winding_tiny_radius_is_zero():
    assert winding_number(QParameter(0.3j), 1e-3).count == 0


def test_winding_monotone_in_radius():
    q = QParameter.from_polar(0.4, 5 * math.pi / 6)
    counts = [winding_number(q, 0.4 ** -(k + 0.5)).count for k in range(0, 4)]
    assert counts == sorted(counts)
    assert all(c >= 0 for c in counts)


def test_winding_rejects_bad_radius():
    with pytest.raises(DomainError):
        winding_number(QParameter(0.2), 0.0)


def test_winding_contour_through_zero_raises():
    q = QParameter(-0.3)
    loc = locate_zero(q, 1).location  # real positive zero, hit by the angle-0 sample
    with pytest.raises(ContourTooClose):
        winding_number(q, abs(loc) * (1 + 1e-12))


def test_winding_mixed_array_and_bisection_path():
    # with 16 samples every arc of |z| = |q|^-6.5 passes the pad test in the array; on
    # |q|^-6.8, nearer the seventh zero, the two arcs beside the least sample fail it and
    # take two bisection samples each
    q = QParameter(0.55j)
    coarse = winding_number(q, 0.55 ** -6.5, initial_samples=16)
    assert (coarse.count, coarse.samples_used) == (6, 16)
    mixed = winding_number(q, 0.55 ** -6.8, initial_samples=16)
    assert (mixed.count, mixed.samples_used) == (6, 20)
    assert (mixed.count, mixed.samples_used) == _winding_reference(q, 0.55 ** -6.8, 16)[:2]
    fine = winding_number(q, 0.55 ** -6.5, initial_samples=256)
    assert (fine.count, fine.samples_used) == (6, 256)


def test_winding_bisection_samples_carried_into_array_units():
    # on the unshifted circle |z| = |q|^-24.02 the terms reach 1e203: the contour array is
    # rescaled once, while the reference's scalar samples fit in a float
    q = QParameter(cmath.rect(0.2, 3.0))
    radius = q.modulus ** -24.02
    assert circle_terms(q, radius)[1].exponent == 600
    assert eval_theta(q, radius).exponent == 0
    with _unshifted():
        res = winding_number(q, radius, initial_samples=64)
    count, samples, low = _winding_reference(q, radius, 64)
    assert (res.count, res.samples_used) == (count, samples) == (24, 66)
    # the smallest sampled modulus is a bisection midpoint, a Horner pass over the rescaled
    # terms: it matches the reference only if both are in the array's units
    terms, circle = circle_terms(q, radius)
    initial = np.abs(np.fft.ifft(fold_terms([(terms, 0)], 64), norm="forward")).min()
    assert res.min_modulus_on_contour < initial / circle.scale
    assert res.min_modulus_on_contour == pytest.approx(low, rel=1e-9)


def _winding_reference(q, radius, n0):
    """The pad rule of `zeros._resolve_phase` with scalar samples only and a LIFO bisection stack.

    Every sample is eval_theta(q, radius e^{i psi}), unshifted, in the units of the circle's
    terms c_j.  With m = n*, M1 = sum_j |j - m| |c_j| and eps as in `zeros._contours`, an arc
    of width w passes when both its samples exceed M1 w / 2 + tail + eps, and its phase then
    turns by m w plus the principal angle of (v_b / v_a) e^{-i m w}; an arc that fails is
    bisected.  Returns the count, the samples used and the smallest sampled |theta| / scale.
    """
    terms, circle = circle_terms(q, radius)
    m = max(0, math.floor(math.log(radius) / -math.log(q.modulus)))
    slope = math.fsum(abs(c) * abs(j - m) for j, c in enumerate(terms))
    allowance = circle.tail_bound + circle.scale * (
        2.0 ** -52 * (len(terms) + 6) ** 2 + 2.0 ** -48 * math.log2(n0) * math.sqrt(n0))

    def sample(angle):
        res = eval_theta(q, radius * cmath.exp(1j * angle))
        return ldexp_complex(res.value, res.exponent - circle.exponent)

    angles = [2.0 * math.pi * i / n0 for i in range(n0)] + [2.0 * math.pi]
    vals = [sample(a) for a in angles[:-1]]
    low = min(abs(v) for v in vals)
    vals.append(vals[0])
    stack = [(angles[i], vals[i], angles[i + 1], vals[i + 1]) for i in range(n0)]
    total, samples = 0.0, n0
    while stack:
        a0, v0, a1, v1 = stack.pop()
        if min(abs(v0), abs(v1)) > slope * (a1 - a0) / 2 + allowance:
            total += cmath.phase(v1 / v0 * cmath.exp(-1j * m * (a1 - a0)))
            continue
        am = 0.5 * (a0 + a1)
        vm = sample(am)
        samples += 1
        low = min(low, abs(vm))
        stack += [(a0, v0, am, vm), (am, vm, a1, v1)]
    return m + round(total / (2.0 * math.pi)), samples, low / circle.scale


@pytest.mark.parametrize("q, exponent, n0", [
    (0.55j, 6.5, 16), (0.55j, 3.5, 16), (-0.4, 2.5, 16),
    (cmath.rect(0.3, 2.0), 4.5, 32), (cmath.rect(0.5, 2.5), 5.5, 256),
    # circles of a large centre m = n*, 4 (n* + 1) > N: n* = 70 at 256 samples, n* = 9 at 16
    (-0.3, 70.5, 256), (cmath.rect(0.5, 2.5), 9.5, 16),
])
def test_winding_matches_scalar_reference_loop(q, exponent, n0):
    q = QParameter(q)
    radius = q.modulus ** -exponent
    res = winding_number(q, radius, initial_samples=n0)
    count, samples, low = _winding_reference(q, radius, n0)
    assert (res.count, res.samples_used) == (count, samples)
    assert res.min_modulus_on_contour == pytest.approx(low, rel=1e-9)


def test_one_call_mixes_fine_rows_with_a_bisected_row():
    # the middle circle passes 1e-4 outside the first zero: the arcs near it fail the pad
    # test and are bisected, the other rows pass whole; every row must read as if alone
    q = QParameter(-0.3)
    near = abs(locate_zero(q, 1).location) * (1 + 1e-4)
    radii = [q.modulus ** -1.5, near, q.modulus ** -2.5]
    batch = winding_numbers(q, radii)
    assert [res.samples_used for res in batch] == [256, 272, 256]
    for res, radius in zip(batch, radii):
        assert res == winding_number(q, radius)
        count, samples, low = _winding_reference(q, radius, 256)
        assert (res.count, res.samples_used) == (count, samples)
        assert res.min_modulus_on_contour == pytest.approx(low, rel=1e-9)


# ---------------------------------------------------------------------------
# the slope bound M1 of a counting circle, formed in the series loop
# ---------------------------------------------------------------------------

def _slope_reference(circle):
    """M1 = sum_i |J + i - m| |c_i| over a `_Circle`'s kept terms, summed in index order."""
    total = 0.0
    for i, c in enumerate(circle.terms):
        total += abs(circle.shift + i - circle.m) * abs(c)
    return total


def _circles_with_slopes(q, radii, moments=False):
    """The `_Circle`s that `_contours` takes on `radii`, each checked against `_slope_reference`:
    bit for bit, with m = n*, the last n with |q|^n r >= 1."""
    taken = [c for c in zeros._contours(q, radii, zeros.INITIAL_SAMPLES, zeros.DEFAULT_BUDGET,
                                        moments)[2] if c is not None]
    for circle in taken:
        assert circle.m == max(0, math.floor(math.log(radii[circle.index]) / -math.log(q.modulus)))
        assert circle.slope == _slope_reference(circle), (q, circle.index)
    return taken


def test_moment_circle_slopes_equal_the_explicit_sum():
    rng = np.random.default_rng(24)
    for _ in range(40):
        q = QParameter(cmath.rect(0.6 * math.sqrt(rng.random()),
                                  math.pi / 2 + math.pi * rng.random()))
        taken = _circles_with_slopes(q, [q.modulus ** -(k + 0.5) for k in range(1, 9)], True)
        assert len(taken) == 8 and not any(c.shift for c in taken)


def test_shifted_counting_circle_slopes_equal_the_explicit_sum():
    # deep-like cells: the outer circle of the k-th annulus, k 10..40, most of them shifted
    rng = np.random.default_rng(2024)
    shifts = []
    for k in range(10, 41):
        q = QParameter(cmath.rect(rng.uniform(0.05, 0.5), math.pi / 2 + math.pi * rng.random()))
        shifts += [c.shift for c in _circles_with_slopes(q, [Annulus.for_index(k).outer_radius(q)])]
    assert sum(map(bool, shifts)) >= 20


def test_large_k_circle_slopes_equal_the_explicit_sum():
    # every circle of verify_separation(-0.3, 200), 174 of them rescaled by 2^-600 at least once
    q = QParameter(-0.3)
    taken = _circles_with_slopes(q, [q.modulus ** -(k + 0.5) for k in range(1, 201)], True)
    assert len(taken) == 200 and sum(c.res.exponent > 0 for c in taken) == 174


def test_only_counting_circles_form_the_slope(monkeypatch):
    # Newton's circles and the evaluators sum their terms without M1
    pivots, kernel = [], zeros.circle_terms

    def spy(q, centre, budget=zeros.DEFAULT_BUDGET, pivot=None):
        pivots.append(pivot)
        return kernel(q, centre, budget, pivot=pivot)

    monkeypatch.setattr(zeros, "circle_terms", spy)
    q = QParameter(cmath.rect(0.33, 2.4))
    locate_zero(q, 25)
    assert pivots and set(pivots) == {None}
    pivots.clear()
    assert winding_number(q, Annulus.for_index(25).outer_radius(q)).count == 25
    assert pivots and None not in pivots
    assert len(circle_terms(q, 3.0)) == 2 and len(circle_terms(q, 3.0, pivot=1)) == 3


# ---------------------------------------------------------------------------
# annulus counts
# ---------------------------------------------------------------------------

def test_each_annulus_holds_one_zero_inside_separation_region():
    q = QParameter.from_polar(0.55, 3 * math.pi / 4)
    for k in range(1, 9):
        assert count_zeros_in_annulus(q, Annulus.for_index(k)) == 1


def test_two_zeros_in_merged_annulus_at_radius_06():
    q = QParameter.from_polar(0.6, 3 * math.pi / 4)
    assert count_zeros_in_annulus(q, Annulus(1.5, 3.5)) == 2
    assert count_zeros_in_annulus(q, Annulus(3.5, 4.5)) == 1


def test_counts_sum_to_outer_winding():
    q = QParameter.from_polar(0.45, 3 * math.pi / 4)
    total = sum(count_zeros_in_annulus(q, Annulus.for_index(k)) for k in range(1, 5))
    assert total == winding_number(q, 0.45 ** -4.5).count


# ---------------------------------------------------------------------------
# zero location
# ---------------------------------------------------------------------------

def test_locate_first_zero_against_polynomial_oracle():
    # oracle: roots of the truncated series polynomial
    q = -0.1
    coeffs = [q ** (j * (j + 1) // 2) for j in range(17)]
    roots = np.roots(coeffs[::-1])
    oracle = min(roots, key=lambda r: abs(r - 10.0))
    rec = locate_zero(q, 1)
    assert abs(rec.location - oracle) < 1e-8 * abs(oracle)
    assert abs(rec.location - 10.0) < 0.2 * 10.0
    assert rec.residual < 1e-10
    assert rec.converged and rec.annulus_ok


def test_locate_zero_at_half_modulus():
    rec = locate_zero(-0.5, 1)
    assert rec.annulus_ok
    assert abs(rec.location) < 0.5 ** -1.5


def test_locate_third_zero_small_q():
    rec = locate_zero(0.05, 3)
    assert 0.05 ** -2.5 < abs(rec.location) < 0.05 ** -3.5
    assert rec.annulus_ok


def test_locate_conjugation_symmetry():
    q = QParameter.from_polar(0.3, 2 * math.pi / 3)
    a = locate_zero(q, 2).location
    b = locate_zero(q.conjugate(), 2).location
    assert abs(a.conjugate() - b) < 1e-9 * abs(a)


def test_zeros_simple_below_0108():
    # within |q| <= 0.108 every zero is simple: derivative well above the noise floor
    q = QParameter.from_polar(0.1, 2 * math.pi / 3)
    for k in range(1, 5):
        rec = locate_zero(q, k, residual_tol=1e-10)
        assert rec.derivative_abs > 10 * 1e-10


def test_locate_no_convergence_with_single_iteration():
    with pytest.raises(NoConvergence) as err:
        locate_zero(0.5j, 3, max_iterations=1)
    assert err.value.k == 3


@pytest.mark.parametrize("exponent, k_max", [(40, 7), (50, 5), (60, 4), (75, 3), (100, 2)])
def test_tiny_q_separation_seeds_newton_from_the_asymptotic_zero(exponent, k_max):
    # below |q| = 2^-48 a moment estimate's rounding passes its annulus' inner radius, so one
    # that fails its Horner check is replaced by -q^-k; from the estimate Newton fails here
    q = 10.0 ** -exponent
    assert q <= zeros.MOMENT_SEED_MIN_MODULUS
    rep = verify_separation(q, k_max, on_error="record")
    assert rep.strongly_separated and rep.notes == {}
    for k in range(1, k_max + 1):
        assert rep.records[k].location == pytest.approx(-q ** -k, rel=1e-6)
    with mock.patch.object(zeros, "MOMENT_SEED_MIN_MODULUS", 0.0):
        assert not verify_separation(q, k_max, on_error="record").strongly_separated


@pytest.mark.parametrize("q, ks", [(1e-100, [4]), (1e-160, [2, 3, 4])])
def test_a_seed_beyond_the_float_range_is_an_overflow(q, ks):
    # |q|^-k passes the float range: the complex power would underflow q^k to 0 and divide
    for k in ks:
        with pytest.raises(OverflowError, match="seed"):
            locate_zero(q, k)
    # the circle |q|^-(k+1/2) leaves the float range first: one note from that index on
    rep = verify_separation(q, 4, on_error="record")
    past = min(ks) - 1 if q == 1e-100 else min(ks)
    assert list(rep.notes) == [past]
    assert rep.notes[past].endswith(f": the radius leaves the float range for k = {past}..4")
    assert all(rep.records.get(k) is None for k in range(past, 5))
    with pytest.raises(OverflowError):
        verify_separation(q, 4)


@pytest.mark.parametrize("k_max", [4, 10 ** 8])
def test_separation_stops_at_the_first_circle_past_the_float_range(k_max):
    # |1e-100|^-(k+1/2) overflows from k = 3: the report and the work end there, whatever k_max
    rep = verify_separation(1e-100, k_max, on_error="record")
    assert rep.counts == {1: 1, 2: 1} and set(rep.records) == {1, 2}
    assert rep.notes == {3: f"contour |z| = |q|^-3.5: the radius leaves the float range "
                            f"for k = 3..{k_max}"}
    assert not rep.strongly_separated
    with pytest.raises(OverflowError) as caught:
        verify_separation(1e-100, k_max)
    assert caught.value.k == 3


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_residual_tolerance_outside_the_positive_reals_is_a_domain_error(tol):
    with pytest.raises(DomainError, match="residual tolerance"):
        locate_zero(-0.3, 2, residual_tol=tol)
    with pytest.raises(DomainError, match="residual tolerance"):
        verify_separation(-0.3, 3, residual_tol=tol, on_error="record")


def test_locate_rejects_bad_k():
    with pytest.raises(DomainError):
        locate_zero(0.3, 0)


@pytest.mark.parametrize("call", [
    pytest.param(Annulus.for_index, id="for_index"),
    pytest.param(lambda k: locate_zero(-0.3, k), id="locate_zero"),
    pytest.param(lambda k: verify_separation(-0.3, k, on_error="record"), id="verify_separation"),
])
def test_an_index_that_is_not_an_integer_is_a_domain_error(call):
    for k in (2.5, 1.5, 2.0, "2", None):
        with pytest.raises(DomainError, match="must be a positive integer"):
            call(k)


def test_an_integer_like_k_is_taken_as_an_int():
    assert Annulus.for_index(np.int64(3)) == Annulus.for_index(3)
    rec = locate_zero(-0.3, np.int64(3))
    assert type(rec.k) is int and rec == locate_zero(-0.3, 3)
    assert type(verify_separation(-0.3, np.int64(2)).k_max) is int


@pytest.mark.parametrize("seed", [complex(math.nan, 1.0), complex(2.0, math.inf), -math.inf])
def test_a_seed_that_is_not_finite_is_a_domain_error(seed):
    with pytest.raises(DomainError, match="seed"):
        locate_zero(-0.3, 2, seed=seed)


@pytest.mark.parametrize("slope", [0j, 1e-320 + 0j])
def test_newton_stops_where_its_step_leaves_the_float_range(monkeypatch, slope):
    # a zero slope, or one so small that the step overflows, ends Newton unconverged
    monkeypatch.setattr(zeros, "_horner", lambda terms, w: (1.0 + 0j, slope, 1.0))
    with pytest.raises(NoConvergence) as caught:
        locate_zero(-0.3, 2)
    assert caught.value.iterations == 0


def _newton_point(q, z):
    """The scaled residual, raw |theta| and raw |theta'| of one Newton pass at z (no step)."""
    return zeros._newton(q, z, 1e-10, 0, zeros.DEFAULT_BUDGET)[1:4]


@pytest.mark.parametrize("k", range(2, 41))
def test_newton_values_match_the_series_pass(k):
    # a point 1e-3 off the k-th zero: Newton's Horner pass over the terms of the circle |z|
    # against eval_theta_and_dz at z.  Each sum is within its tail (the shifted one also its
    # head), the rounding of its terms, 2^-52 (n + 6)^2 of its scale, and Horner's gamma_4L
    # (`zeros._horner`); theta' = c_J (J h / w + S) / |z| weighs those of the circle by at
    # most J + L + 2 over |z|.
    q = QParameter(cmath.rect(0.5, 2.5))
    z = -q.value ** -k * (1.0 + cmath.rect(1e-3, k))
    residual, theta_abs, derivative_abs = _newton_point(q, z)
    terms, res, shift, head = zeros._shifted_circle(q, abs(z), zeros._head_shift(q, abs(z)),
                                                    zeros.DEFAULT_BUDGET)
    assert shift == max(0, k - 10)
    f, fp = eval_theta_and_dz(q, z)
    big_l, u = len(terms), 2.0 ** -53
    eps_n = (res.tail_bound / res.scale + head + 4 * big_l * u / (1 - 4 * big_l * u)
             + 2.0 ** -52 * (big_l + 6) ** 2)
    eps_s = f.tail_bound / f.scale + 2.0 ** -52 * (f.terms_used + 6) ** 2
    eps_d = fp.tail_bound / fp.scale + 2.0 ** -52 * (fp.terms_used + 8) ** 2
    # the raw scales of the two passes, in log2: |c_J| 2^E sum_i |c_i| and 2^E' sum_j |t_j|
    log2_c = shift * ((shift + 1) / 2 * math.log2(q.modulus) + math.log2(abs(z)))
    scale_n = math.log2(res.scale) + res.exponent + log2_c
    scale_s = math.log2(f.scale) + f.exponent
    ratio = 2.0 ** (scale_n - scale_s)
    assert abs(ratio - 1.0) <= eps_n + eps_s
    theta_s = abs(f.value) / f.scale
    assert abs(theta_abs / 2.0 ** scale_s - theta_s) <= eps_s + eps_n * ratio
    assert abs(residual - theta_s) <= (eps_s + eps_n) * (1.0 + theta_s) * 1.01
    derivative_scale = math.log2(fp.scale) + fp.exponent
    assert abs(derivative_abs - abs(fp.value) * 2.0 ** fp.exponent) <= (
        eps_d * 2.0 ** derivative_scale
        + (shift + big_l + 2) * eps_n * 2.0 ** scale_n / abs(z))


def test_newton_from_a_zero_seed():
    # at z = 0 Newton reads the terms of the circle |z| = 1 at w = 0: theta 1 and theta' q
    q = QParameter(-0.3)
    assert _newton_point(q, 0j)[1:] == pytest.approx((1.0, 0.3), rel=1e-15)
    rec = locate_zero(q, 1, seed=0)
    assert rec.converged and rec.location == pytest.approx(locate_zero(q, 1).location, rel=1e-14)


# ---------------------------------------------------------------------------
# separation reports
# ---------------------------------------------------------------------------

def test_separation_inside_055():
    rep = verify_separation(QParameter(0.55j), 6)
    assert rep.strongly_separated
    assert all(rep.counts[k] == 1 for k in range(1, 7))
    assert all(rep.records[k].annulus_ok for k in range(1, 7))
    assert rep.warnings == []


def test_separation_below_c0():
    rep = verify_separation(QParameter(0.2), 6)
    assert rep.strongly_separated
    assert rep.warnings == []


def test_separation_at_radius_06_reports_combined_count():
    rep = verify_separation(QParameter.from_polar(0.6, 2 * math.pi / 3), 6,
                            on_error="record")
    assert rep.counts[1] == 1
    assert rep.counts[4] == rep.counts[5] == rep.counts[6] == 1
    assert rep.combined_mid_count == 2


def test_separation_warns_outside_region():
    with pytest.warns(UserWarning):
        rep = verify_separation(QParameter(0.3), 2)
    assert rep.warnings


def test_separation_rejects_bad_arguments():
    with pytest.raises(DomainError):
        verify_separation(QParameter(0.3j), 0)
    with pytest.raises(DomainError):
        verify_separation(QParameter(0.3j), 2, on_error="ignore")


# ---------------------------------------------------------------------------
# the edge of the domain: term moduli beyond the float range
# ---------------------------------------------------------------------------

def _mp_scaled_residual(q, z, dps=40):
    """|theta(q, z)| / sum_j |q^{j(j+1)/2} z^j|, summed independently in mpmath."""
    import mpmath
    with mpmath.workdps(dps):
        q, z = mpmath.mpc(q), mpmath.mpc(z)
        total, scale, term, qj = mpmath.mpc(1), mpmath.mpf(1), mpmath.mpc(1), mpmath.mpc(1)
        while True:
            qj *= q
            ratio = qj * z
            if abs(ratio) < 0.5 and abs(term) < mpmath.mpf(10) ** -dps * scale:
                return float(abs(total) / scale)
            term *= ratio
            total += term
            scale += abs(term)


def test_separation_small_q_to_k40():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_separation(QParameter(0.1), 40)
    assert rep.strongly_separated
    assert all(rep.counts[k] == 1 for k in range(1, 41))
    assert rep.notes == {}


def test_separation_reaches_the_float_range_of_the_radius():
    # at |q| = 1e-3 term ratios reach 1e307 and terms 1e15000; the outer radius
    # |q|^-(k+1/2) of k = 102 is the last that fits in a float
    q = QParameter(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_separation(q, 103, on_error="record")
        with pytest.raises(OverflowError):
            verify_separation(q, 103)
    assert all(rep.counts[k] == 1 and rep.records[k].annulus_ok for k in range(1, 103))
    assert list(rep.notes) == [103]
    assert not rep.strongly_separated


@pytest.mark.parametrize("q", [0.1, cmath.rect(0.21875, 3 * math.pi / 4)])
@pytest.mark.parametrize("k", [26, 33, 40])
def test_deep_zero_located_in_annulus(q, k):
    q = QParameter(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert count_zeros_in_annulus(q, Annulus.for_index(k)) == 1
        rec = locate_zero(q, k)
    assert rec.converged and rec.annulus_ok
    assert Annulus.for_index(k).contains(q, rec.location)
    assert _mp_scaled_residual(q.value, rec.location) < 1e-9


def test_newton_step_uses_exponent_difference():
    # near the k = 28 zero at q = 0.1 theta and theta' leave the float range, and
    # eval_theta_dz carries theta's exponent; Newton takes both from one Horner pass over the
    # kept terms of one circle, in that circle's exponent, so its step f / f' needs no exponent
    q = QParameter(0.1)
    target = locate_zero(q, 28).location
    seed = target * (1 + 1e-6)
    assert eval_theta(q, seed).exponent == eval_theta_dz(q, seed).exponent > 0
    rec = locate_zero(q, 28, seed=seed)
    assert rec.newton_iterations >= 1
    assert abs(rec.location - target) <= 1e-9 * abs(target)


# ---------------------------------------------------------------------------
# zeros along a ray of q
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, arg_q, r_end", [
    pytest.param(1, math.pi, 0.55, id="k1-negative-axis"),
    pytest.param(5, math.pi / 2, 0.6, id="k5-imaginary-axis"),
])
def test_locate_zero_along_a_ray(k, arg_q, r_end):
    # the k-th zero at 50 moduli of one ray, each from the default seed -q^-k
    missed = []
    for modulus in np.linspace(0.05, r_end, 50):
        rec = locate_zero(QParameter.from_polar(modulus, arg_q), k)
        if not (rec.converged and rec.annulus_ok):
            missed.append(modulus)
    assert missed == []


@pytest.mark.parametrize("n0", [16, 32, 48, 256])
def test_winding_coarse_grid_does_not_alias_a_full_turn(n0):
    # 23 zeros inside; a phase tracked without centring reads 19 from 16 or 32 initial
    # samples: single arcs turn by 2pi + d there.  Centred at m = n* = 23 every arc passes.
    res = winding_number(QParameter(-0.2), 1.7401891665718316e16, initial_samples=n0)
    assert (res.count, res.samples_used) == (23, n0)


@pytest.mark.parametrize("n0, samples", [(16, 27), (32, 41), (256, 258)])
def test_a_coarse_grid_near_a_zero_counts_by_the_slope_pad(n0, samples):
    # |z| = |q|^-2.0615 passes 1.1 % inside the second zero; with 16 samples the centred
    # increments alone read 2, and only the M1 w / 2 part of the pad sends the arcs near
    # that zero to bisection
    q = QParameter.from_polar(0.5533, 2.8586)
    res = winding_number(q, 0.5533 ** -2.0615, initial_samples=n0)
    assert (res.count, res.samples_used) == (1, samples)


def test_a_circle_the_pads_cannot_decide_bisects_its_least_sample_first(monkeypatch):
    # outside the proven region the outer circle of Annulus(42.5, 43.5) passes near a zero
    # where no pad is met; bisecting the arc with the least sample first reaches the depth cap
    # there within a few passes (in last-in-first-out order it took 27 400)
    passes = []
    horner = zeros._horner
    monkeypatch.setattr(zeros, "_horner", lambda *args: passes.append(1) or horner(*args))
    q = QParameter(0.8796 + 0.1285j)
    annulus = Annulus(42.5, 43.5)
    assert annulus.outer_radius(q) == pytest.approx(167.54, abs=0.01)
    with pytest.raises(ContourTooClose, match=r"on \|z\| = 167\.54"):
        count_zeros_in_annulus(q, annulus)
    assert 0 < len(passes) <= 100


@pytest.mark.parametrize("modulus, argument, exponent, tolerance, count", [
    (0.0865, 2.314, 0.979, 20.0, 1), (0.458, 1.858, 3.0047, 17.0, 3),
    (0.2945, 4.65, 2.0127, 24.0, 2),
])
def test_a_tail_above_the_samples_refuses_the_count(modulus, argument, exponent, tolerance,
                                                    count):
    # a loose series tolerance drops a tail that passes theta's modulus near a zero: the
    # samples of the kept terms alone read one zero fewer, and the pad, which holds the
    # tail, refuses the circle instead
    q = QParameter.from_polar(modulus, argument)
    radius = modulus ** -exponent
    assert winding_number(q, radius).count == count
    with pytest.raises(BudgetExceeded, match="phase not resolvable"):
        winding_number(q, radius, budget=SeriesBudget(tolerance=tolerance))


def test_large_k_circles_take_no_scalar_sample(monkeypatch):
    # every arc of these circles passes the pad test in the array: no arc is bisected
    samples = []
    contours = zeros._contours

    def spy(*args, **kwargs):
        results, sums, terms = contours(*args, **kwargs)
        samples.extend(res.samples_used for res in results)
        return results, sums, terms

    monkeypatch.setattr(zeros, "_contours", spy)
    rep = verify_separation(QParameter(-0.3), 120)
    assert rep.strongly_separated and set(rep.counts.values()) == {1}
    res = winding_number(QParameter(-0.3), 0.3 ** -70.5)
    assert (res.count, res.samples_used) == (70, 256)
    assert samples == [256] * 121


def test_winding_numbers_match_one_circle_at_a_time():
    q = QParameter.from_polar(0.55, 3 * math.pi / 4)
    radii = [q.modulus ** -(k + 0.5) for k in range(1, 9)]
    for n0 in (16, 256):
        batch = winding_numbers(q, radii, initial_samples=n0)
        for radius, res in zip(radii, batch):
            one = winding_number(q, radius, initial_samples=n0)
            assert (res.count, res.samples_used) == (one.count, one.samples_used)
            assert res.min_modulus_on_contour == pytest.approx(one.min_modulus_on_contour,
                                                               rel=1e-12)
    assert [res.count for res in batch] == list(range(1, 9))


def test_winding_numbers_failing_circle_stays_in_its_row():
    # the radius of test_winding_contour_through_zero_raises among healthy circles
    q = QParameter(-0.3)
    loc = locate_zero(q, 1).location
    radii = [q.modulus ** -(k + 0.5) for k in range(1, 5)]
    radii.insert(2, abs(loc) * (1 + 1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = winding_numbers(q, radii)
    assert isinstance(batch[2], ContourTooClose)
    for i in (0, 1, 3, 4):
        one = winding_number(q, radii[i])
        assert (batch[i].count, batch[i].samples_used) == (one.count, one.samples_used)
        assert batch[i].min_modulus_on_contour == pytest.approx(one.min_modulus_on_contour,
                                                                rel=1e-12)


def test_winding_numbers_exact_zero_sample_stays_in_its_row(monkeypatch):
    # a row 1 - e^{2 pi i k / n} vanishes exactly at k = 0; no array divides by it
    q = QParameter(cmath.rect(0.4, 2.5))
    radii = [q.modulus ** -(k + 0.5) for k in range(1, 4)]
    kernel = zeros.circle_terms

    def terms(q, radius, budget, pivot):
        if radius != radii[1]:
            return kernel(q, radius, budget, pivot=pivot)
        return [1.0, -1.0], EvalResult(0j, 0.0, 2, 2.0), abs(pivot) + abs(1 - pivot)

    monkeypatch.setattr(zeros, "circle_terms", terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = winding_numbers(q, radii)
    assert isinstance(batch[1], ContourTooClose) and batch[1].min_modulus == 0.0
    assert [batch[0].count, batch[2].count] == [1, 3]
    assert batch[0].samples_used == batch[2].samples_used == 256


# ---------------------------------------------------------------------------
# zeros from contour moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q, exponent, rescaled, folded", [
    (cmath.rect(0.4, 2.5), 3.5, False, False),   # plain circle
    (cmath.rect(0.2, 3.0), 24.1, True, False),   # terms reach 1e203: rescaled once
    (-0.9995, 1.5, False, True),                 # 1388 terms folded mod 256
])
def test_derivative_row_samples_are_z_theta_prime(q, exponent, rescaled, folded):
    import mpmath
    q = QParameter(q)
    radius, n = q.modulus ** -exponent, 256
    rows, res = _folded_terms(q, radius, n, derivative=True)
    exp2 = res.exponent
    samples = np.fft.ifft(rows, norm="forward")
    centre = eval_theta(q, radius)  # the terms both rows fold
    assert (exp2 == 600) is rescaled
    assert (centre.terms_used > n) is folded
    # the derivative row drops sum_{j >= terms_used} j |c_j|, in units 2^-exp2
    with mpmath.workdps(30):
        mq, mr = mpmath.mpf(q.modulus), mpmath.mpf(radius)
        dropped = float(mpmath.fsum(j * mq ** (j * (j + 1) // 2) * mr ** j
                                    for j in range(centre.terms_used, centre.terms_used + 60))
                        * mpmath.mpf(2) ** -exp2)
    tail = math.ldexp(centre.tail_bound, centre.exponent - exp2)
    for k in range(n):
        z = radius * cmath.exp(2j * math.pi * k / n)
        f, fp = eval_theta_and_dz(q, z)
        assert abs(samples[0, k] - ldexp_complex(f.value, f.exponent - exp2)) \
            <= tail + math.ldexp(f.tail_bound + 1e-13 * f.scale, f.exponent - exp2)
        want = ldexp_complex(z * fp.value, fp.exponent - exp2)
        bound = dropped + math.ldexp(abs(z) * (fp.tail_bound + 1e-13 * fp.scale),
                                     fp.exponent - exp2)
        assert abs(samples[1, k] - want) <= bound


def test_folded_circle_terms_are_the_contour_block_rows():
    # plain, rescaled once (terms reach 1e203) and folded (1388 terms mod 256) circles, in one block
    cases = [(cmath.rect(0.4, 2.5), 3.5), (cmath.rect(0.2, 3.0), 24.1), (-0.9995, 1.5)]
    for q, exponent in cases:
        q = QParameter(q)
        radii = [q.modulus ** -exponent, q.modulus ** -(exponent + 1), q.modulus ** -0.5]
        blocks = []
        fold = zeros.fold_terms

        def spy(circles, n, derivative=False):
            block = fold(circles, n, derivative)
            blocks.append(block.copy())  # as the inverse FFT reads it
            return block

        with mock.patch.object(zeros, "fold_terms", spy):
            zeros._contours(q, radii, 256, zeros.DEFAULT_BUDGET, moments=True)
        (block,) = blocks
        assert block.shape == (len(radii), 2, 256)
        for row, radius in zip(block, radii):
            rows = _folded_terms(q, radius, 256, derivative=True)[0]
            assert rows.tobytes() == row.tobytes()


def _region_draws(count, seed):
    """(q, k_max) uniform by area on D(0.6) and the right half of |q| <= C0, k_max = 1..8."""
    rng = np.random.default_rng(seed)
    left, right = math.pi * 0.6 ** 2 / 2, math.pi * C0 ** 2 / 2
    draws = []
    for i in range(count):
        area = rng.random() * (left + right)
        if area <= left:
            q = cmath.rect(0.6 * math.sqrt(area / left), math.pi / 2 + math.pi * rng.random())
        else:
            q = cmath.rect(C0 * math.sqrt((area - left) / right), -math.pi / 2 + math.pi * rng.random())
        draws.append((QParameter(q), i % 8 + 1))
    return draws


def test_moment_locations_match_newton_from_the_asymptotic_seed():
    for q, k_max in _region_draws(512, 2024):
        rep = verify_separation(q, k_max, on_error="record")
        assert rep.notes == {}
        for k in range(1, k_max + 1):
            assert rep.counts[k] == count_zeros_in_annulus(q, Annulus.for_index(k))
            rec, ref = rep.records[k], locate_zero(q, k)
            assert abs(rec.location - ref.location) <= 1e-9 * abs(ref.location)
            assert rec.residual < 1e-10 and rec.converged
            if rep.counts[k] == 1:
                # the moment estimate met the tolerance without a Newton step
                assert rec.newton_iterations == 0


def test_moment_estimate_off_by_1e_6_is_polished_by_newton(monkeypatch):
    q = QParameter(-0.3 + 0.3j)
    exact = verify_separation(q, 8)
    kernel = zeros.fold_terms

    def fold(circles, n, derivative=False):
        block = kernel(circles, n, derivative)
        block[:, 1] *= 1 + 1e-6  # every moment, so every estimate, 1e-6 relative off
        return block

    monkeypatch.setattr(zeros, "fold_terms", fold)
    rep = verify_separation(q, 8)
    assert rep.strongly_separated
    for k in range(1, 9):
        rec, ref = rep.records[k], exact.records[k]
        assert ref.newton_iterations == 0 < rec.newton_iterations
        assert rec.residual < 1e-10
        assert abs(rec.location - ref.location) <= 1e-9 * abs(ref.location)


def test_annuli_without_one_zero_take_locate_zero(monkeypatch):
    # at q = -0.7 the counts of k = 1..4 are 1, 0, 2, 1
    q = QParameter(-0.7)
    calls = []

    def spy(q, k, **kwargs):
        calls.append(k)
        return locate_zero(q, k, **kwargs)

    monkeypatch.setattr(zeros, "locate_zero", spy)
    with pytest.warns(UserWarning):
        rep = verify_separation(q, 4, on_error="record")
    assert [rep.counts[k] for k in range(1, 5)] == [1, 0, 2, 1]
    assert calls == [2, 3]
    for k in (2, 3):
        assert rep.records[k] == locate_zero(q, k)
    assert rep.records[1].newton_iterations == rep.records[4].newton_iterations == 0


@pytest.mark.parametrize("q, k_max", [(0.1, 8), (-0.5, 6), (-0.05, 4)])
def test_moment_zeros_of_real_q_are_real(q, k_max):
    # theta(q, .) has real coefficients: a lone zero of an annulus is its own conjugate
    rep = verify_separation(QParameter(q), k_max)
    for k in range(1, k_max + 1):
        rec = rep.records[k]
        assert rec.location.imag == 0.0 and rec.newton_iterations == 0
        ref = locate_zero(q, k)
        assert abs(rec.location - ref.location) <= 1e-9 * abs(ref.location)


# ---------------------------------------------------------------------------
# checking a moment estimate on the terms of its outer circle
# ---------------------------------------------------------------------------

def _series_check(monkeypatch):
    """Make verify_separation check every moment estimate by a fresh eval_theta_and_dz pass."""
    monkeypatch.setattr(zeros, "_checked_estimate", lambda *args: None)


def _residual_error_bound(q, k, z):
    """Bound on |Horner residual - series residual| at z for the k-th outer circle.

    Horner's rounding, gamma_4J of the scale for J terms, and the rounding of
    the terms of both passes, 2^-52 (n + 6)^2 for n terms each (see core's
    `circle_terms`), plus both dropped tails; in units of the series scale.
    """
    u = 2.0 ** -53
    terms, circle = circle_terms(q, q.modulus ** -(k + 0.5))
    f = eval_theta(q, z)
    assert circle.exponent == f.exponent == 0
    big_j, n = len(terms), f.terms_used
    rounding = 4 * big_j * u / (1 - 4 * big_j * u) + 2.0 ** -52 * ((big_j + 6) ** 2 + (n + 6) ** 2)
    return rounding + (circle.tail_bound + f.tail_bound) / f.scale


def test_horner_check_matches_the_series_check_on_region_draws(monkeypatch):
    draws = _region_draws(512, 7919)
    reports = [verify_separation(q, k_max, on_error="record") for q, k_max in draws]
    _series_check(monkeypatch)
    checked = 0
    for (q, k_max), rep in zip(draws, reports):
        ref = verify_separation(q, k_max, on_error="record")
        assert (rep.counts, rep.notes, rep.warnings) == (ref.counts, ref.notes, ref.warnings)
        assert rep.strongly_separated == ref.strongly_separated
        for k in range(1, k_max + 1):
            rec, want = rep.records[k], ref.records[k]
            assert rec.location == want.location  # bit for bit: the check only accepts it
            assert (rec.annulus_ok, rec.converged) == (want.annulus_ok, want.converged)
            assert rec.newton_iterations == want.newton_iterations
            assert rec.residual < 1e-10
            assert rec.derivative_abs == pytest.approx(want.derivative_abs, rel=1e-9)
            if rep.counts[k] == 1 and rec.newton_iterations == 0:
                checked += 1
                assert abs(rec.residual - want.residual) <= _residual_error_bound(
                    q, k, rec.location)
                if rec.theta_abs:  # |theta| / residual is the scale sum_j |c_j| |w|^j + tail
                    assert rec.theta_abs / rec.residual == pytest.approx(
                        eval_theta(q, rec.location).scale, rel=1e-9)
    assert checked == sum(k_max for _, k_max in draws)


@pytest.mark.parametrize("q, exponent, z_over_r", [
    (cmath.rect(0.4, 2.5), 3.5, cmath.rect(0.7, 1.0)),
    (-0.5, 6.5, -0.9),
    (cmath.rect(0.2, 3.0), 24.1, cmath.rect(0.95, -2.0)),  # terms in units 2^-600
])
def test_horner_sums_against_mpmath(q, exponent, z_over_r):
    import mpmath
    q = QParameter(q)
    terms, _ = circle_terms(q, q.modulus ** -exponent)
    value, slope, scale = zeros._horner(terms, z_over_r)
    with mpmath.workdps(40):
        w = mpmath.mpc(z_over_r)
        want = [mpmath.fsum(mpmath.mpc(c) * w ** j for j, c in enumerate(terms)),
                mpmath.fsum(j * mpmath.mpc(c) * w ** (j - 1) for j, c in enumerate(terms) if j),
                mpmath.fsum(abs(mpmath.mpc(c)) * abs(w) ** j for j, c in enumerate(terms))]
        moduli = [want[2], mpmath.fsum(j * abs(mpmath.mpc(c)) * abs(w) ** (j - 1)
                                       for j, c in enumerate(terms) if j), want[2]]
        gamma = 4 * len(terms) * 2.0 ** -53 / (1 - 4 * len(terms) * 2.0 ** -53)
        for got, exact, bound in zip((value, slope, scale), want, moduli):
            assert abs(mpmath.mpc(got) - exact) <= gamma * bound


def test_checked_estimates_make_no_series_pass(monkeypatch):
    calls = []
    newton = zeros._newton

    def spy(q, seed, *args):
        calls.append(seed)
        return newton(q, seed, *args)

    monkeypatch.setattr(zeros, "_newton", spy)
    rep = verify_separation(QParameter(-0.3 + 0.3j), 8)
    assert rep.strongly_separated
    assert all(rep.records[k].newton_iterations == 0 for k in range(1, 9))
    assert calls == []


@pytest.mark.parametrize("q, k_max", [(0.1, 40), (1e-3, 102)])
def test_horner_check_past_the_float_range(monkeypatch, q, k_max):
    # the outer circles of k >= 25 at q = 0.1 (k >= 20 at 1e-3) are rescaled (exponent > 0),
    # and the raw |theta| and |theta'| near their zeros leave the float range; at 1e-3
    # |theta'| / 2^E = |sum_j j c_j w^(j-1)| / r_k underflows when it is formed as written
    q = QParameter(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = verify_separation(q, k_max)
        _series_check(monkeypatch)
        ref = verify_separation(q, k_max)
    exponents = [circle_terms(q, q.modulus ** -(k + 0.5))[1].exponent for k in (1, k_max)]
    assert exponents[0] == 0 < exponents[-1]
    assert math.isinf(ref.records[k_max].theta_abs)
    assert math.isinf(ref.records[k_max].derivative_abs)
    for k in range(1, k_max + 1):
        rec, want = rep.records[k], ref.records[k]
        assert rec.newton_iterations == want.newton_iterations == 0
        assert rec.location == want.location and rec.residual < 1e-10
        assert math.isinf(rec.theta_abs) == math.isinf(want.theta_abs)
        assert rec.derivative_abs == pytest.approx(want.derivative_abs, rel=1e-9)


def test_estimate_on_or_outside_its_circle_is_not_checked():
    q = QParameter(-0.3 + 0.3j)
    z = locate_zero(q, 3).location
    inside = q.modulus ** -2.5, abs(z) * (1 + 1e-9)
    rec = zeros._checked_estimate(3, z, circle_terms(q, inside[1]), inside, 1e-10)
    assert rec.location == z and rec.newton_iterations == 0 and rec.annulus_ok
    # on |z| = |w| = 1 the terms still sum theta(z) to the residual tolerance
    on = inside[0], abs(z)
    value, _, scale = zeros._horner(circle_terms(q, on[1])[0], z / on[1])
    assert abs(value) / scale < 1e-10
    assert zeros._checked_estimate(3, z, circle_terms(q, on[1]), on, 1e-10) is None


def test_estimate_pushed_outside_its_circle_takes_newton(monkeypatch):
    q = QParameter(-0.3 + 0.3j)
    exact = verify_separation(q, 4)
    zero, radius = exact.records[4].location, q.modulus ** -4.5
    contours, record = zeros._contours, zeros._zero_record
    seeds = []

    def pushed(*args, **kwargs):
        results, sums, terms = contours(*args, **kwargs)
        sums[3] += zero / abs(zero) * radius * (1 + 1e-3) - zero  # k = 4 only: it is k_max
        return results, sums, terms

    def spy(q, k, seed, *args):
        seeds.append((k, seed))
        return record(q, k, seed, *args)

    monkeypatch.setattr(zeros, "_contours", pushed)
    monkeypatch.setattr(zeros, "_zero_record", spy)
    rep = verify_separation(q, 4)
    # an estimate outside its annulus seeds nothing: Newton starts from -q^-4
    assert seeds == [(4, -q.value ** -4)]
    assert [rep.records[k] for k in range(1, 4)] == [exact.records[k] for k in range(1, 4)]
    assert rep.records[4].newton_iterations > 0 and rep.records[4].residual < 1e-10
    assert abs(rep.records[4].location - zero) <= 1e-9 * abs(zero)


def test_estimate_pushed_inside_its_inner_circle_takes_the_asymptotic_seed(monkeypatch):
    # an estimate inside the outer circle but not the annulus seeds nothing either
    q = QParameter(-0.3 + 0.3j)
    exact = verify_separation(q, 4)
    zero, inner = exact.records[4].location, q.modulus ** -3.5
    contours, record = zeros._contours, zeros._zero_record
    seeds = []

    def pushed(*args, **kwargs):
        results, sums, terms = contours(*args, **kwargs)
        sums[3] += zero / abs(zero) * inner * (1 - 1e-3) - zero  # k = 4 only: it is k_max
        return results, sums, terms

    monkeypatch.setattr(zeros, "_contours", pushed)
    monkeypatch.setattr(zeros, "_zero_record",
                        lambda q, k, seed, *args: seeds.append((k, seed)) or record(q, k, seed, *args))
    rep = verify_separation(q, 4)
    assert seeds == [(4, -q.value ** -4)]
    assert rep.records[4].annulus_ok and abs(rep.records[4].location - zero) <= 1e-9 * abs(zero)


def test_estimate_outside_its_annulus_takes_the_asymptotic_seed():

    # the k = 2 zero, -2.782, lies 0.5 % inside its outer circle (|z| = 2.796): the 256-sample
    # moment estimate, -3.867, lies outside it, and Newton from it found the k = 3 zero
    with pytest.warns(UserWarning, match="separation is not guaranteed"):
        rep = verify_separation(-0.66282, 5)
    assert rep.counts == {k: 1 for k in range(1, 6)}
    assert rep.records[2].location == pytest.approx(-2.78199, abs=1e-5)
    assert all(rep.records[k].annulus_ok for k in range(1, 6))
    assert rep.strongly_separated


def test_count_only_contours_fold_no_derivative_row(monkeypatch):
    shapes = []
    fold = zeros.fold_terms

    def spy(circles, n, derivative=False):
        block = fold(circles, n, derivative)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(zeros, "fold_terms", spy)
    q = QParameter(-0.3 + 0.3j)
    count_zeros_in_annulus(q, Annulus.for_index(3))
    winding_numbers(q, [q.modulus ** -1.5, q.modulus ** -2.5, q.modulus ** -3.5])
    assert shapes == [(2, 256), (3, 256)]
    verify_separation(q, 3)
    assert shapes[2:] == [(3, 2, 256)]


def test_circle_budget_message_names_the_radius():
    with pytest.raises(BudgetExceeded, match=r"theta on \|z\| = 1e\+06: tail not below"):
        circle_terms(QParameter(0.5), 1e6, SeriesBudget(max_terms=3))


# ---------------------------------------------------------------------------
# the shift identity: theta(q, z) = head + q^{J(J+1)/2} z^J theta(q, q^J z)
# ---------------------------------------------------------------------------

def _unshifted():
    """A context in which every circle and Newton point takes J = 0, the unshifted sums."""
    return mock.patch.object(zeros, "_head_shift", lambda q, modulus: 0)


def _outcome(result):
    if isinstance(result, Exception):
        return type(result).__name__, getattr(result, "min_modulus", None)
    return result.count, result.samples_used, result.min_modulus_on_contour


def _assert_same_circles(shifted, plain):
    for a, b in zip(map(_outcome, shifted), map(_outcome, plain)):
        assert a[:-1] == b[:-1]
        if a[-1] is not None or b[-1] is not None:
            assert a[-1] == pytest.approx(b[-1], rel=1e-9, abs=1e-14)


@settings(max_examples=150, deadline=None)
@given(modulus=st.floats(0.01, 0.6), arg_q=st.floats(math.pi / 2, 3 * math.pi / 2),
       k=st.integers(2, 60))
def test_shifted_circles_count_as_the_unshifted_ones(modulus, arg_q, k):
    q = QParameter.from_polar(modulus, arg_q)
    radii = [modulus ** -(k + 0.5), modulus ** -(k - 0.5), modulus ** -k]
    shifted = winding_numbers(q, radii)
    with _unshifted():
        plain = winding_numbers(q, radii)
    _assert_same_circles(shifted, plain)


@settings(max_examples=60, deadline=None)
@given(modulus=st.floats(0.01, 0.6), arg_q=st.floats(math.pi / 2, 3 * math.pi / 2),
       k=st.integers(6, 40), offset=st.floats(-1e-9, 1e-9))
def test_shifted_circles_within_1e_9_of_a_zero_fail_as_the_unshifted_ones(modulus, arg_q, k,
                                                                          offset):
    q = QParameter.from_polar(modulus, arg_q)
    radius = abs(locate_zero(q, k).location) * (1.0 + offset)
    shifted = winding_numbers(q, [radius])
    with _unshifted():
        plain = winding_numbers(q, [radius])
    _assert_same_circles(shifted, plain)


@settings(max_examples=80, deadline=None)
@given(modulus=st.floats(0.03, 0.6), arg_q=st.floats(math.pi / 2, 3 * math.pi / 2),
       k=st.integers(20, 40), size=st.floats(1e-8, 1e-2), turn=st.floats(0.0, 2 * math.pi))
def test_newton_from_perturbed_seeds_agrees_with_the_unshifted_newton(modulus, arg_q, k, size,
                                                                     turn):
    q = QParameter.from_polar(modulus, arg_q)
    seed = locate_zero(q, k).location * (1.0 + cmath.rect(size, turn))
    assert zeros._head_shift(q, abs(seed)) > 0
    outcomes = []
    for context in (contextlib.nullcontext(), _unshifted()):
        with context:
            try:
                outcomes.append(locate_zero(q, k, seed=seed))
            except NoConvergence as exc:
                outcomes.append(type(exc))
    shifted, plain = outcomes
    if not isinstance(plain, ZeroRecord):
        assert shifted == plain
        return
    assert shifted.residual < 1e-10 and shifted.converged and shifted.newton_iterations > 0
    assert abs(shifted.location - plain.location) <= 1e-14 * abs(plain.location)
    assert shifted.annulus_ok == plain.annulus_ok
    assert shifted.derivative_abs == pytest.approx(plain.derivative_abs, rel=1e-9)
    if plain.residual > 1e-12:  # below that, |theta| is the rounding noise of either sum
        assert shifted.theta_abs == pytest.approx(plain.theta_abs, rel=1e-3)


def _mp_shift_rule(q, modulus, shift):
    """Whether J = shift meets `_head_shift`'s rule, in 50-digit arithmetic.

    t_j = ln(|q|^j |z|): t_{J-1} >= ln 2, and t_J + ... + t_{n*} >= 54 ln 2,
    n* the index of the largest term; then the head is at most 2^-53 of it.
    """
    with mpmath.workdps(50):
        a, b = -mpmath.log(q.modulus), mpmath.log(modulus)
        n_star = int(mpmath.floor(b / a))
        kept = (n_star - shift + 1) * b - a * (n_star * (n_star + 1) - (shift - 1) * shift) / 2
        return (1 <= shift <= n_star and b - a * (shift - 1) >= mpmath.log(2)
                and kept >= 54 * mpmath.log(2))


@settings(max_examples=300, deadline=None)
@given(modulus=st.floats(0.001, 0.95), log_radius=st.floats(0.0, 700.0))
def test_head_shift_is_the_largest_shift_the_head_bound_proves(modulus, log_radius):
    q = QParameter(-modulus)
    radius = math.exp(log_radius)
    shift = zeros._head_shift(q, radius)
    if shift:
        assert _mp_shift_rule(q, radius, shift)
        # the head sum_{j<J} |c_j| itself, against the largest term |c_j| = e^{logs[j]}
        logs = [j * (j + 1) / 2 * math.log(modulus) + j * math.log(radius)
                for j in range(shift + 40)]
        top = max(logs)
        assert math.fsum(math.exp(v - top) for v in logs[:shift]) <= 2.0 ** -53 * (1 + 1e-6)
    assert not _mp_shift_rule(q, radius, shift + 1)


def test_a_deep_circle_sums_far_fewer_terms_through_the_shift():
    q = QParameter(-0.3 + 0.1j)
    radius = q.modulus ** -20.5
    kept, res, shift, head = zeros._shifted_circle(q, radius, zeros._head_shift(q, radius),
                                                   zeros.DEFAULT_BUDGET)
    assert shift == 12 and kept[1] == pytest.approx(q.value ** 13 * radius, rel=1e-14)
    assert 0.0 < head <= zeros.HEAD_FRACTION
    centre = q.value ** 12 * radius
    assert len(kept) < len(circle_terms(q, radius)[0]) // 2
    # the shifted samples are theta's own, divided by c_J, up to the head and rounding
    psi = 2.0 * math.pi * 37 / 256
    full = eval_theta(q, radius * cmath.exp(1j * psi))
    part = eval_theta(q, centre * cmath.exp(1j * psi))
    c_shift = q.value ** (12 * 13 // 2) * (radius * cmath.exp(1j * psi)) ** 12
    ratio = ldexp_complex(full.value, full.exponent) / (
        c_shift * ldexp_complex(part.value, part.exponent))
    assert ratio == pytest.approx(1.0, rel=1e-13)
    assert winding_number(q, radius).count == 20


def test_a_shift_past_the_bound_falls_back_to_the_unshifted_circle():
    q = QParameter(-0.3 + 0.1j)
    radius = q.modulus ** -20.5
    zero = locate_zero(q, 20)
    with mock.patch.object(zeros, "_head_shift", lambda q, modulus: 19):
        kept, res, shift, head = zeros._shifted_circle(q, radius, zeros._head_shift(q, radius),
                                                       zeros.DEFAULT_BUDGET)
        assert (shift, head) == (0, 0.0) and kept == circle_terms(q, radius)[0]
        assert winding_number(q, radius).count == 20
        # Newton's points take the same fallback: the unshifted terms, log2 |c_0| = 0
        rec = locate_zero(q, 20)
    assert rec.location == pytest.approx(zero.location, rel=1e-14)
    assert rec.derivative_abs == pytest.approx(zero.derivative_abs, rel=1e-9)


def test_a_shifted_circle_near_a_zero_counts_as_its_unshifted_twin():
    # 1e-5 outside the 20th zero the arcs beside it are bisected; every midpoint of the
    # shifted circle (J = 10) carries the turn e^{i J psi} of the FFT samples
    q = QParameter(cmath.rect(0.45, 3.0))
    radius = abs(locate_zero(q, 20).location) * (1 + 1e-5)
    assert zeros._head_shift(q, radius) == 10
    assert zeros._shifted_circle(q, radius, 10, zeros.DEFAULT_BUDGET)[2] == 10
    shifted = winding_number(q, radius)
    with _unshifted():
        plain = winding_number(q, radius)
    assert shifted.count == plain.count == 20
    assert shifted.samples_used == plain.samples_used == 285
    assert shifted.min_modulus_on_contour == pytest.approx(plain.min_modulus_on_contour,
                                                           rel=1e-9)


def test_zeros_sums_no_series_of_its_own(monkeypatch):
    # counts, midpoints, moment checks and Newton read theta only from circles' kept terms
    q = QParameter(-0.3)
    near = abs(locate_zero(q, 1).location) * (1 + 1e-4)
    calls = []

    def spying(name, evaluate):
        return lambda *args, **kwargs: calls.append(name) or evaluate(*args, **kwargs)

    for name in ("eval_theta", "eval_theta_dagger", "eval_G", "eval_theta_dz",
                 "eval_theta_and_dz", "eval_theta_star"):
        for module in (core, zeros):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spying(name, getattr(module, name)))
    batch = winding_numbers(q, [q.modulus ** -1.5, near, q.modulus ** -2.5])
    assert [res.samples_used for res in batch] == [256, 272, 256]
    assert locate_zero(q, 3).newton_iterations > 0
    assert verify_separation(q, 12).strongly_separated
    assert calls == []
    zeros.eval_theta(q, 2.0)  # the spies see the evaluators in both namespaces
    core.eval_theta_dz(q, 2.0)
    assert calls == ["eval_theta", "eval_theta_dz"]


def test_moment_circles_stay_unshifted():
    q = QParameter(-0.1 + 0.05j)
    with mock.patch.object(zeros, "_head_shift", side_effect=AssertionError):
        assert verify_separation(q, 12).strongly_separated


def test_a_count_needs_its_minimum_above_the_head(monkeypatch):
    # the dropped head is part of every pad: where its bound passed the least sample, the arcs
    # beside that sample would fail at every depth, and the circle is refused
    q = QParameter(-0.3 + 0.1j)
    radius = q.modulus ** -20.5
    m = math.floor(math.log(radius) / -math.log(q.modulus))
    kept, res, shift, head, slope = zeros._shifted_circle(q, radius, zeros._head_shift(q, radius),
                                                          zeros.DEFAULT_BUDGET, m)
    assert shift and head
    least = winding_number(q, radius).min_modulus_on_contour
    monkeypatch.setattr(zeros, "_shifted_circle",
                        lambda *args: (kept, res, shift, 2.0 * least, slope))
    with pytest.raises(BudgetExceeded, match="phase not resolvable"):
        winding_number(q, radius)


def test_fold_terms_offset_multiplies_the_samples_by_the_bin_turn():
    terms = [complex(j + 1, -j) for j in range(40)]
    n, shift = 16, 5
    plain, moved = fold_terms([(terms, 0), (terms, shift)], n)
    turn = np.exp(2j * math.pi * shift * np.arange(n) / n)
    assert np.allclose(np.fft.ifft(moved, norm="forward"),
                       turn * np.fft.ifft(plain, norm="forward"), rtol=1e-13, atol=1e-12)


# ---------------------------------------------------------------------------
# a shifted annulus counts from its outer circle: the inner one is it turned by arg q
# ---------------------------------------------------------------------------

def _count_outcome(count):
    try:
        return count()
    except (ContourTooClose, BudgetExceeded, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _two_circle_count(q, annulus):
    outer, inner = winding_numbers(q, [annulus.outer_radius(q), annulus.inner_radius(q)])
    for result in (outer, inner):
        if isinstance(result, Exception):
            raise result
    return outer.count - inner.count


def test_one_circle_counts_equal_the_two_circle_winding_difference():
    # seeded cells, |q| in (0.01, 0.95), k <= 60, gaps 1-3: every cell whose outer shift J is
    # the gap d (the inner circle then unshifted) and the first 90 others
    rng = np.random.default_rng(19)
    cells, edges = [], []
    for _ in range(600):
        q = QParameter.from_polar(0.01 + 0.94 * rng.random(), 2.0 * math.pi * rng.random())
        k, gap = int(rng.integers(2, 61)), int(rng.integers(1, 4))
        annulus = Annulus(k - 0.5, k - 0.5 + gap)
        shift = zeros._head_shift(q, annulus.outer_radius(q))
        (edges if shift == gap else cells).append((q, annulus, shift))
    assert {a.outer_exponent - a.inner_exponent for _, a, _ in edges} == {1, 2, 3}
    cells = edges + cells[:90]
    one_circle = sum(shift >= a.outer_exponent - a.inner_exponent for _, a, shift in cells)
    assert one_circle >= len(edges) + 60 and len(cells) - one_circle >= 10  # both paths
    for q, annulus, _ in cells:
        assert (_count_outcome(lambda: count_zeros_in_annulus(q, annulus))
                == _count_outcome(lambda: _two_circle_count(q, annulus))), (q, annulus)


def test_a_shifted_count_sums_one_circle(monkeypatch):
    calls, shapes = [], []
    terms, fold = zeros.circle_terms, zeros.fold_terms

    def terms_spy(q, centre, budget=zeros.DEFAULT_BUDGET, pivot=None):
        calls.append(centre)
        return terms(q, centre, budget, pivot=pivot)

    def fold_spy(circles, n, derivative=False):
        block = fold(circles, n, derivative)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(zeros, "circle_terms", terms_spy)
    monkeypatch.setattr(zeros, "fold_terms", fold_spy)
    q = QParameter(cmath.rect(0.33, 2.4))  # a `deep` cell: J = 17 on the outer circle
    assert zeros._head_shift(q, Annulus.for_index(25).outer_radius(q)) == 17
    assert count_zeros_in_annulus(q, Annulus.for_index(25)) == 1
    assert len(calls) == 1 and shapes == [(1, 256)]
    # a gap that is no integer counts both circles as one block
    assert count_zeros_in_annulus(q, Annulus(24.3, 25.5)) == 1
    assert len(calls) == 3 and shapes[1:] == [(2, 256)]


def test_a_shifted_count_whose_head_bound_fails_counts_the_inner_circle_too(monkeypatch):
    q = QParameter(cmath.rect(0.33, 2.4))
    annulus = Annulus(20.5, 23.5)
    shapes = []
    fold = zeros.fold_terms

    def fold_spy(circles, n, derivative=False):
        block = fold(circles, n, derivative)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(zeros, "fold_terms", fold_spy)
    monkeypatch.setattr(zeros, "_head_bound", lambda *args: None)
    assert count_zeros_in_annulus(q, annulus) == 3
    assert shapes == [(1, 256), (2, 256)]  # the outer circle alone, then both as one block
    assert _two_circle_count(q, annulus) == 3


def _stage_spies(monkeypatch):
    """Record each entry to the winding stage and to `_resolve_phase`, and every `_head_shift`."""
    entries = []
    for name in ("_wind", "_resolve_phase", "_head_shift"):
        stage = getattr(zeros, name)
        monkeypatch.setattr(zeros, name, lambda *args, _stage=stage, _name=name, **kwargs: (
            entries.append(_name) or _stage(*args, **kwargs)))
    return entries


def test_a_one_circle_count_whose_arcs_clear_their_pads_forms_no_winding(monkeypatch):
    # the `deep` cell of test_a_shifted_count_sums_one_circle: every sample of its outer circle
    # clears its pad and the floor, so the count d reads no phase, and J is decided once
    entries, shapes = _stage_spies(monkeypatch), []
    fold = zeros.fold_terms
    monkeypatch.setattr(zeros, "fold_terms",
                        lambda *args: shapes.append((block := fold(*args)).shape) or block)
    q = QParameter(cmath.rect(0.33, 2.4))
    assert count_zeros_in_annulus(q, Annulus.for_index(25)) == 1
    assert entries == ["_head_shift"] and shapes == [(1, 256)]
    # the same circle counted by `winding_number` takes both stages
    assert winding_number(q, Annulus.for_index(25).outer_radius(q)).count == 25
    assert entries[1:] == ["_head_shift", "_wind", "_resolve_phase"]


def _near_zero_annulus(q, k, offset):
    """An annulus of gap 1 whose outer circle lies a relative `offset` off the k-th zero."""
    exponent = -math.log(abs(locate_zero(q, k).location) * (1.0 + offset)) / math.log(q.modulus)
    return Annulus(exponent - 1.0, exponent)


@pytest.mark.parametrize("offset, count", [(1e-9, None), (-1e-9, None), (5e-6, 1)])
def test_a_one_circle_count_near_a_zero_winds_as_the_two_circle_count(monkeypatch, offset,
                                                                      count):
    # within 1e-9 of the 25th zero a sample is within its pad: the outer circle takes the
    # winding stage and raises as the two-circle count does; 5e-6 off it bisects and counts
    q = QParameter(cmath.rect(0.33, 2.4))
    annulus = _near_zero_annulus(q, 25, offset)
    assert zeros._head_shift(q, annulus.outer_radius(q)) == 17
    entries = _stage_spies(monkeypatch)
    outcome = _count_outcome(lambda: count_zeros_in_annulus(q, annulus))
    assert "_wind" in entries and "_resolve_phase" in entries
    assert outcome == _count_outcome(lambda: _two_circle_count(q, annulus))
    if count is None:
        assert outcome[0] == "ContourTooClose" and "unresolved phase jump" in outcome[1]
    else:
        assert outcome == count


def test_a_one_circle_count_under_the_floor_raises_as_the_two_circle_count(monkeypatch):
    # every arc clears its pad, but a floor above the least scaled sample refuses the circle
    q = QParameter(cmath.rect(0.33, 2.4))
    annulus = Annulus.for_index(25)
    least = winding_number(q, annulus.outer_radius(q)).min_modulus_on_contour
    monkeypatch.setattr(zeros, "CONTOUR_SAFETY", 2.0 * least)
    outcome = _count_outcome(lambda: count_zeros_in_annulus(q, annulus))
    assert outcome[0] == "ContourTooClose" and outcome[1].startswith("min scaled |theta|")
    assert outcome == _count_outcome(lambda: _two_circle_count(q, annulus))


def _single_term_circle(monkeypatch, terms, head):
    """Every circle's kept terms are `terms`, with scale 1, no tail, M1 0 and `head`."""
    res = EvalResult(None, 0.0, len(terms), 1.0, 0)
    monkeypatch.setattr(zeros, "_shifted_circle",
                        lambda q, radius, shift, budget, m=None: (terms, res, shift, head, 0.0))


def test_a_one_circle_count_whose_least_sample_equals_its_pad_winds(monkeypatch):
    # a sample on its pad does not clear it: the count takes the winding stage, whose heap
    # decides the arcs beside it from the scalar moduli of their ends
    q = QParameter(cmath.rect(0.33, 2.4))
    annulus = Annulus.for_index(25)
    radius, shift = annulus.outer_radius(q), zeros._head_shift(q, annulus.outer_radius(q))
    _single_term_circle(monkeypatch, [1.0 + 0j], 0.0)
    block = zeros._sample(q, [radius], 256, zeros.DEFAULT_BUDGET, shifts=[shift])
    low, head = block.lows[0], block.lows[0] - block.pads[0]
    for _ in range(200):  # the head for which the pad, head plus eps, is the least sample
        _single_term_circle(monkeypatch, [1.0 + 0j], head)
        block = zeros._sample(q, [radius], 256, zeros.DEFAULT_BUDGET, shifts=[shift])
        if block.pads[0] == low:
            break
        head = math.nextafter(head, -math.inf if block.pads[0] > low else math.inf)
    assert block.lows[0] == block.pads[0] == low and block.minima[0] >= zeros.CONTOUR_SAFETY
    entries = _stage_spies(monkeypatch)
    assert count_zeros_in_annulus(q, annulus) == 1 == _two_circle_count(q, annulus)
    assert entries[:3] == ["_head_shift", "_wind", "_resolve_phase"]


def test_a_one_circle_count_through_an_exact_zero_sample_raises(monkeypatch):
    # 1 - e^{i psi} vanishes exactly at the first sample: the floor refuses the circle with
    # no division by that sample
    q = QParameter(cmath.rect(0.33, 2.4))
    _single_term_circle(monkeypatch, [1.0 + 0j, -1.0 + 0j], 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ContourTooClose) as raised:
            count_zeros_in_annulus(q, Annulus.for_index(25))
    assert raised.value.min_modulus == 0.0


def test_unshifted_annuli_keep_their_two_circle_counts():
    # J = 0 on both outer circles at q = -0.68, where a zero has crossed |q|^-5/2 (ROADMAP 7):
    # a count that took the gap for granted would read 1 and 1
    q = QParameter(-0.68)
    for k, count in ((2, 0), (3, 2)):
        assert zeros._head_shift(q, Annulus.for_index(k).outer_radius(q)) == 0
        assert count_zeros_in_annulus(q, Annulus.for_index(k)) == count


def test_a_radius_past_the_float_range_names_itself():
    with pytest.raises(OverflowError, match=r"^the radius \|q\|\^-1400\.5 leaves the float range$"):
        count_zeros_in_annulus(0.6j, Annulus.for_index(1400))
    with pytest.raises(OverflowError, match=r"^the radius \|q\|\^-2999\.5 leaves the float range$"):
        Annulus(2999.5, 3000.5).inner_radius(0.6)

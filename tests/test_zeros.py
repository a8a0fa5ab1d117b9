import cmath
import math
import warnings

import numpy as np
import pytest

from thetasep import (
    Annulus,
    ContourTooClose,
    DomainError,
    NoConvergence,
    QParameter,
    count_zeros_in_annulus,
    locate_zero,
    trace_zero_ray,
    verify_separation,
    winding_number,
    winding_numbers,
)
from thetasep import zeros
from thetasep.core import eval_theta, eval_theta_dz, theta_on_circle


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
        vals, _, _ = theta_on_circle(q, float(r), len(angles))
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
    # with 16 samples, 16 intervals jump by pi/2 or more and are bisected once each
    q = QParameter(0.55j)
    coarse = winding_number(q, 0.55 ** -6.5, initial_samples=16)
    assert (coarse.count, coarse.samples_used) == (6, 32)
    fine = winding_number(q, 0.55 ** -6.5, initial_samples=256)
    assert (fine.count, fine.samples_used) == (6, 256)


def test_winding_bisection_samples_carried_into_array_units():
    # on |z| = |q|^-24.1 the terms reach 1e203: the contour array is rescaled
    # once, while the scalar samples of the bisection fit in a float
    q = QParameter(cmath.rect(0.2, 3.0))
    radius = q.modulus ** -24.1
    assert theta_on_circle(q, radius, 1)[2] == 600
    assert eval_theta(q, radius).exponent == 0
    res = winding_number(q, radius, initial_samples=64)
    count, samples, low = _winding_reference(q, radius, 64)
    assert (res.count, res.samples_used) == (count, samples) == (24, 128)
    # the smallest sampled modulus is a bisection sample, so it is only right
    # when the scalar samples are carried into the array's units
    assert res.min_modulus_on_contour == pytest.approx(low, rel=1e-9)


def _winding_reference(q, radius, n0):
    """Per-sample phase tracking with scalar evaluations and a LIFO bisection stack.

    Returns the count, the samples used and the smallest sampled |theta| / scale.
    """
    angles = [2.0 * math.pi * i / n0 for i in range(n0)] + [2.0 * math.pi]
    vals = [eval_theta(q, radius * cmath.exp(1j * a)).value for a in angles[:-1]]
    low = min(abs(v) for v in vals)
    vals.append(vals[0])
    stack = [(angles[i], vals[i], angles[i + 1], vals[i + 1]) for i in range(n0)]
    total, samples = 0.0, n0
    while stack:
        a0, v0, a1, v1 = stack.pop()
        increment = cmath.phase(v1 / v0)
        if abs(increment) < math.pi / 2:
            total += increment
            continue
        am = 0.5 * (a0 + a1)
        vm = eval_theta(q, radius * cmath.exp(1j * am)).value
        samples += 1
        low = min(low, abs(vm))
        stack += [(a0, v0, am, vm), (am, vm, a1, v1)]
    return round(total / (2.0 * math.pi)), samples, low / eval_theta(q, radius).scale


@pytest.mark.parametrize("q, exponent, n0", [
    (0.55j, 6.5, 16), (0.55j, 3.5, 16), (-0.4, 2.5, 16),
    (cmath.rect(0.3, 2.0), 4.5, 32), (cmath.rect(0.5, 2.5), 5.5, 256),
])
def test_winding_matches_scalar_reference_loop(q, exponent, n0):
    q = QParameter(q)
    radius = q.modulus ** -exponent
    res = winding_number(q, radius, initial_samples=n0)
    count, samples, low = _winding_reference(q, radius, n0)
    assert (res.count, res.samples_used) == (count, samples)
    assert res.min_modulus_on_contour == pytest.approx(low, rel=1e-9)


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


def test_locate_rejects_bad_k():
    with pytest.raises(DomainError):
        locate_zero(0.3, 0)


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
    # near the k = 28 zero at q = 0.1, theta and theta' are rescaled a different
    # number of times, so the step f / f' must be multiplied by 2^(e_f - e_f')
    q = QParameter(0.1)
    target = locate_zero(q, 28).location
    seed = target * (1 + 1e-6)
    assert eval_theta(q, seed).exponent != eval_theta_dz(q, seed).exponent
    rec = locate_zero(q, 28, seed=seed)
    assert rec.newton_iterations >= 1
    assert abs(rec.location - target) <= 1e-9 * abs(target)


# ---------------------------------------------------------------------------
# ray continuation
# ---------------------------------------------------------------------------

def test_trace_ray_negative_axis_first_zero():
    records = trace_zero_ray(math.pi, 1, 0.05, 0.55, 50)
    assert len(records) == 50
    assert all(r.annulus_ok for r in records)


def test_trace_ray_fifth_zero_up_to_06():
    records = trace_zero_ray(math.pi / 2, 5, 0.05, 0.6, 50)
    assert all(r.annulus_ok for r in records)


def test_trace_ray_degenerate_matches_locate():
    single = trace_zero_ray(math.pi, 2, 0.3, 0.3, 1)
    direct = locate_zero(QParameter(-0.3), 2)
    assert len(single) == 1
    assert abs(single[0].location - direct.location) < 1e-9 * abs(direct.location)


def test_trace_ray_validation():
    with pytest.raises(DomainError):
        trace_zero_ray(0.1, 1, 0.05, 0.5, 10)       # ray outside the left half-plane
    with pytest.raises(DomainError):
        trace_zero_ray(math.pi, 1, 0.5, 0.05, 10)   # reversed radii
    with pytest.raises(DomainError):
        trace_zero_ray(math.pi, 1, 0.05, 0.7, 10)   # beyond 0.6


@pytest.mark.parametrize("n0", [16, 32, 48, 256])
def test_winding_coarse_grid_does_not_alias_a_full_turn(n0):
    # 23 zeros inside; without the guard 16 or 32 initial samples read 19: single
    # intervals turn by 2pi + d there, and the largest term (n* = 23) by more than pi/2
    res = winding_number(QParameter(-0.2), 1.7401891665718316e16, initial_samples=n0)
    assert res.count == 23


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
    kernel = zeros.circle_coefficients

    def coefficients(q, radius, n, budget):
        if radius != radii[1]:
            return kernel(q, radius, n, budget)
        row = np.zeros(n, dtype=complex)
        row[:2] = 1.0, -1.0
        return row, 2.0, 0

    monkeypatch.setattr(zeros, "circle_coefficients", coefficients)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = winding_numbers(q, radii)
    assert isinstance(batch[1], ContourTooClose) and batch[1].min_modulus == 0.0
    assert [batch[0].count, batch[2].count] == [1, 3]
    assert batch[0].samples_used == batch[2].samples_used == 256

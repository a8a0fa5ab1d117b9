import cmath
import math

import numpy as np
import pytest

from thetasep import (
    A_j,
    B_closed_form,
    B_j,
    DomainError,
    GridSpec,
    REFERENCE_CONSTANTS,
    mu,
    mu_properties_check,
    phi_flat,
    phi_star,
    recompute_constant,
    verify_AB_monotone,
    verify_all,
    verify_constants,
    verify_lemma_Q,
    verify_lemma_k1,
    verify_lemma_k1_cases,
    verify_lemma_k1_direct,
    verify_lemma_k2,
    verify_lemma_k4,
    verify_lemma_k5,
)

RTOL_9_DIGITS = 5e-9


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_covers_required_names():
    required = {
        "c0", "alpha0", "exp_inv_alpha0", "gamma", "eta", "xi",
        "chi0", "chi1", "chi2", "chi3", "chi4", "chi5",
        "phi_star_06", "phi_flat_06", "phi_flat_03_minus_1", "a0",
        "g_bound_k5", "g_bound_k4", "qur_floor_k5", "qur_floor_k4",
        "Q0_floor", "xiB_floor_wide_arg", "xiB_floor_small_q",
        "a_tail_bound", "tau_pinch_modulus", "case4d_drop",
    }
    assert required <= set(REFERENCE_CONSTANTS)


@pytest.mark.parametrize("name", sorted(REFERENCE_CONSTANTS))
def test_registry_constant_recomputes_to_nine_digits(name):
    ref = REFERENCE_CONSTANTS[name]
    value = recompute_constant(name)
    assert value == pytest.approx(ref.value, rel=RTOL_9_DIGITS)


def test_recompute_unknown_name():
    with pytest.raises(DomainError):
        recompute_constant("nope")


def test_verify_constants_report():
    rep = verify_constants()
    assert rep.passed
    assert set(rep.margins) == set(REFERENCE_CONSTANTS)
    assert min(rep.margins.values()) > 0


# ---------------------------------------------------------------------------
# chord bounds
# ---------------------------------------------------------------------------

def test_mu_collapsed_forms():
    rng = np.random.default_rng(3)
    for m in rng.uniform(0.0, 5.0, 50):
        assert mu(1, m) == pytest.approx(abs(1.0 - m), abs=1e-14)
        assert mu(3, m) == pytest.approx(math.hypot(1.0, m), abs=1e-13)
        assert mu(2, m) == pytest.approx(math.sqrt(1 + m * m - math.sqrt(2) * m), abs=1e-13)


def test_mu_ordering_survives_vanishing_mu1():
    # at m = 1 the weakest bound vanishes; the ordering above it stays strict
    assert mu(1, 1.0) == 0.0
    assert 0.0 < mu(2, 1.0) < mu(3, 1.0) < mu(4, 1.0)


def test_mu_monotone_above_one():
    assert mu(2, 3.0) > mu(2, 2.0)


def test_mu_exchange_inequality_example():
    m1, m2 = 0.9, 0.5
    assert mu(3, m1) * mu(1, m2) > mu(3, m2) * mu(1, m1)


def test_mu_rejects_bad_inputs():
    with pytest.raises(DomainError):
        mu(5, 1.0)
    with pytest.raises(DomainError):
        mu(2, -0.1)


def test_mu_properties_report():
    rep = mu_properties_check(samples=2000)
    assert rep.passed
    assert min(rep.margins.values()) > 0
    with pytest.raises(DomainError):
        mu_properties_check(samples=10)


def test_chi0_composition_value():
    chi0 = mu(3, 0.6 ** -2.5) * mu(2, 0.6 ** -1.5) * mu(1, 0.6 ** -0.5)
    assert chi0 == pytest.approx(1.742379963, rel=RTOL_9_DIGITS)


@pytest.mark.parametrize("j,expected", [
    (1, 0.1749135662), (2, 0.7772399345), (3, 0.9492771959), (4, 0.9889171980)])
def test_A_j_values_at_06(j, expected):
    assert A_j(0.6, j) == pytest.approx(expected, rel=RTOL_9_DIGITS)


def test_A_j_tends_to_one_at_small_rho():
    # slowest deviation is the mu_1 factor at rho^{3j - 5/2}, so O(sqrt(rho)) for j = 1
    for j in (1, 2, 3):
        assert A_j(1e-12, j) == pytest.approx(1.0, abs=1e-5)
    assert A_j(1e-12, 1) != 1.0


def test_AB_decreasing_spot_checks():
    assert A_j(0.3, 1) > A_j(0.6, 1)
    assert B_j(0.1, 2) > B_j(0.59, 2)


def test_AB_domain_checks():
    with pytest.raises(DomainError):
        A_j(0.7, 1)
    with pytest.raises(DomainError):
        B_j(0.5, 0)


def test_verify_AB_monotone():
    rep = verify_AB_monotone(j_max=6, grid_points=2000)
    assert rep.passed
    assert rep.computed["A_1(0.6)"] == pytest.approx(A_j(0.6, 1), abs=1e-15)
    with pytest.raises(DomainError):
        verify_AB_monotone(j_max=3)
    with pytest.raises(DomainError):
        verify_AB_monotone(grid_points=10)


# ---------------------------------------------------------------------------
# boundary product scan
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the boundary floor |Q0| >= 1.2/gamma = 1.2065526 does not hold: the scan "
           "minimum is ~1.0 on the segment (|q| -> 0) and 1.1341008 on the arc at "
           "arg(q) = pi; |Q(-0.6)| = 1.1325547 by the pentagonal-number series")
def test_lemma_Q_asserted_floor():
    assert verify_lemma_Q().passed


def test_lemma_Q_report_contents():
    rep = verify_lemma_Q()
    assert not rep.passed
    assert rep.computed["gamma"] == pytest.approx(0.9945691384, rel=RTOL_9_DIGITS)
    assert rep.computed["Q0_floor"] == pytest.approx(1.206552620, rel=RTOL_9_DIGITS)
    assert rep.computed["arc_min"] == pytest.approx(1.1341007647, abs=1e-6)
    assert rep.computed["arc_min_argument"] == pytest.approx(math.pi, abs=1e-3)
    assert rep.margins["Q0_boundary_min"] < 0
    assert rep.margins["gamma_digits"] > 0


def test_lemma_Q_conjugation_mirror():
    # restricting the scan to the upper half loses nothing
    from thetasep.lemmas import _partial_q_product
    for arg in (1.7, 2.4, 3.0):
        upper = abs(_partial_q_product([cmath.rect(0.6, arg)])[0])
        lower = abs(_partial_q_product([cmath.rect(0.6, -arg)])[0])
        assert upper == pytest.approx(lower, rel=1e-14)


# ---------------------------------------------------------------------------
# circle exclusions
# ---------------------------------------------------------------------------

def test_lemma_k5():
    rep = verify_lemma_k5()
    assert rep.passed
    assert rep.computed["eta"] == pytest.approx(0.2411047426, rel=RTOL_9_DIGITS)
    assert rep.computed["xi"] == pytest.approx(0.7715882456, rel=RTOL_9_DIGITS)
    assert rep.margins["product_exceeds_tail"] > 0.116


def test_lemma_k4():
    rep = verify_lemma_k4()
    assert rep.passed
    assert rep.computed["chi5"] == pytest.approx(0.9957913379, rel=RTOL_9_DIGITS)
    assert rep.computed["chi2"] == pytest.approx(0.7772399345, rel=RTOL_9_DIGITS)
    assert rep.computed["qur_floor"] == pytest.approx(0.1930636291, rel=RTOL_9_DIGITS)
    assert rep.margins["product_exceeds_tail"] == pytest.approx(0.0079055467, abs=1e-8)
    assert rep.margins["A_below_B"] > 0


def test_phi_values():
    assert phi_star(0.6) == pytest.approx(1.632993162, rel=RTOL_9_DIGITS)
    assert phi_flat(0.6) == pytest.approx(1.618354488, rel=RTOL_9_DIGITS)
    assert phi_flat(0.3) - 1.0 == pytest.approx(0.1725370862, rel=RTOL_9_DIGITS)
    with pytest.raises(DomainError):
        phi_flat(1.0)
    with pytest.raises(DomainError):
        phi_star(0.0)


def test_lemma_k1_cases():
    rep = verify_lemma_k1_cases()
    assert rep.passed
    assert rep.computed["pinch_modulus"] == pytest.approx(0.3431457506, rel=RTOL_9_DIGITS)
    assert rep.computed["inv_sqrt2"] == pytest.approx(0.7071067812, abs=1e-9)
    assert rep.computed["case3C_small"] == pytest.approx(0.5433422972, rel=RTOL_9_DIGITS)
    assert rep.computed["case4D"] == pytest.approx(0.7470048804, rel=RTOL_9_DIGITS)
    assert rep.computed["imag_branch_3a"] == pytest.approx(0.9128709292, rel=RTOL_9_DIGITS)
    assert rep.margins["case4C_T_above_1"] > 0.02


def test_lemma_k1_direct_min_positive():
    grid = GridSpec((0.2078750206, 0.6), 40, (math.pi / 2, math.pi), 40)
    rep = verify_lemma_k1_direct(grid=grid, z_steps=360)
    assert rep.passed
    assert rep.computed["min_abs"] > 0.005


def test_lemma_k1_direct_mirror_symmetry():
    # the lower quarter mirrors the scanned upper quarter point for point
    from thetasep import eval_theta_dagger
    for rho, omega, psi in [(0.3, 1.9, 0.8), (0.55, 2.8, 4.1), (0.6, math.pi / 2, 2.0)]:
        q = cmath.rect(rho, omega)
        z = cmath.rect(rho ** -0.5, psi)
        upper = abs(eval_theta_dagger(q, z).value)
        lower = abs(eval_theta_dagger(q.conjugate(), z.conjugate()).value)
        assert upper == pytest.approx(lower, rel=1e-13)


def test_lemma_k1_merged_report():
    grid = GridSpec((0.2078750206, 0.6), 30, (math.pi / 2, math.pi), 30)
    rep = verify_lemma_k1(grid=grid, z_steps=180, samples=400)
    assert rep.passed
    assert any(k.startswith("cases.") for k in rep.margins)
    assert any(k.startswith("direct.") for k in rep.margins)


def test_B_closed_form_identity_sampled():
    rng = np.random.default_rng(29)
    for _ in range(10_000):
        rho = float(rng.uniform(0.1, 0.9))
        omega = float(rng.uniform(math.pi / 2, math.pi))
        psi = float(rng.uniform(0.0, 2 * math.pi))
        q = cmath.rect(rho, omega)
        zeta = cmath.rect(rho ** -0.5, psi)
        direct = abs(1.0 + zeta + q * zeta * zeta) ** 2
        assert abs(B_closed_form(rho, omega, psi) - direct) < 1e-12 * max(1.0, direct)


def test_B_closed_form_quadratic_minimum():
    # as a quadratic in a = cos(psi + omega/2), the minimum over a is (1 - b^2)/rho
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho = float(rng.uniform(0.2, 0.8))
        omega = float(rng.uniform(math.pi / 2, math.pi))
        b = math.cos(omega / 2.0)
        floor = (1.0 - b * b) / rho
        lo = min(B_closed_form(rho, omega, psi)
                 for psi in np.linspace(0.0, 2 * math.pi, 2000))
        assert lo >= floor - 1e-9
        if b <= 0.5:
            assert lo >= 3.0 / (4.0 * rho) - 1e-9


def test_B_closed_form_domain():
    with pytest.raises(DomainError):
        B_closed_form(1.5, math.pi, 0.0)
    with pytest.raises(DomainError):
        B_closed_form(0.5, 0.3, 0.0)
    with pytest.raises(DomainError):
        B_closed_form(0.5, math.pi, 7.0)


def test_lemma_k2():
    rep = verify_lemma_k2()
    assert rep.passed
    assert rep.computed["a0"] == pytest.approx(2.330487021, rel=RTOL_9_DIGITS)
    assert rep.computed["a_tail_bound"] == pytest.approx(0.0002925303367, rel=RTOL_9_DIGITS)
    assert rep.margins["wide_arg_branch"] > 0.07
    assert rep.margins["small_modulus_branch"] > 0.007
    assert 0.05 < rep.margins["grid_dominance"] < 0.2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec((0.1, 0.6), 1, (0.0, 1.0), 10)
    with pytest.raises(DomainError):
        GridSpec((0.6, 0.1), 10, (0.0, 1.0), 10)
    g = GridSpec((0.1, 0.6), 5, (0.0, 1.0), 3)
    assert len(g.moduli()) == 5 and len(g.arguments()) == 3


def test_verify_all_structure():
    reports = verify_all(
        k1_grid=GridSpec((0.2078750206, 0.6), 30, (math.pi / 2, math.pi), 30),
        z_steps=180, samples=400)
    assert set(reports) == {"constants", "mu", "AB", "Q", "k5", "k4", "k1", "k2"}
    for name, rep in reports.items():
        if name == "Q":
            assert not rep.passed
        else:
            assert rep.passed, f"{name} failed: {rep.margins}"


# ---------------------------------------------------------------------------
# matrix-product grid kernels and array forms
# ---------------------------------------------------------------------------

def _row(rho, omegas, psis, z_modulus, powers, q_exponents):
    from thetasep.lemmas import _circle_sum
    basis = np.exp(1j * np.outer(np.arange(max(powers) + 1), psis))
    return _circle_sum(rho, np.asarray(omegas), z_modulus, powers, q_exponents, basis)


def test_k1_kernel_matches_scalar_theta_dagger():
    from thetasep import SeriesBudget, eval_theta_dagger
    from thetasep.lemmas import C0, _theta_dagger_terms
    rng = np.random.default_rng(41)
    reference_budget = SeriesBudget(tolerance=1e-17)
    for rho in np.linspace(C0, 0.6, 6):
        rho = float(rho)
        n, tail = _theta_dagger_terms(rho)
        assert 0.0 < tail <= 1e-16
        omegas = rng.uniform(math.pi / 2, math.pi, 4)
        psis = rng.uniform(0.0, 2 * math.pi, 7)
        j = list(range(n))
        vals = _row(rho, omegas, psis, rho ** -0.5, j, [i * (i - 1) / 2 for i in j])
        for i, omega in enumerate(omegas):
            for k, psi in enumerate(psis):
                ref = eval_theta_dagger(cmath.rect(rho, omega), cmath.rect(rho ** -0.5, psi),
                                        reference_budget)
                gap = abs(vals[i, k] - ref.value)
                assert gap <= tail + ref.tail_bound + 1e-13 * abs(ref.value)


def test_k1_tail_bound_is_proven_geometric_tail():
    from thetasep.lemmas import _theta_dagger_terms
    for rho in (0.2078750206, 0.4, 0.6):
        n, bound = _theta_dagger_terms(rho)
        # the dropped terms t_j = rho^{j(j-2)/2}, j >= n, summed directly
        dropped = math.fsum(rho ** (j * (j - 2) / 2) for j in range(n, n + 40))
        assert dropped <= bound <= 1e-16
        # one term fewer would not meet the tolerance
        assert rho ** ((n - 1) * (n - 3) / 2) / (1 - rho ** (n - 1.5)) > 1e-16
    with pytest.raises(DomainError):
        _theta_dagger_terms(1.0)


def test_k1_direct_reports_tail_bound_in_computed_only():
    grid = GridSpec((0.2078750206, 0.6), 12, (math.pi / 2, math.pi), 12)
    rep = verify_lemma_k1_direct(grid=grid, z_steps=120)
    assert 0.0 < rep.computed["tail_bound"] <= 1e-16
    assert set(rep.margins) == {"min_abs_positive"}
    merged = verify_lemma_k1(grid=grid, z_steps=120, samples=400)
    assert "direct.tail_bound" in merged.computed
    assert not any("tail_bound" in key for key in merged.margins)


def test_k2_matrices_match_direct_polynomials():
    rng = np.random.default_rng(43)
    for rho in (0.55, 0.575, 0.6):
        xi_mod = rho ** -1.5
        omegas = rng.uniform(math.pi / 2, 2 * math.pi / 3, 5)
        psis = rng.uniform(0.0, 2 * math.pi, 9)
        b_vals = _row(rho, omegas, psis, xi_mod, [0, 1, 2], [0, 1, 3])
        a_star = _row(rho, omegas, psis, xi_mod, [0, 4, 5, 6, 7], [0, 6, 10, 15, 21])
        for i, omega in enumerate(omegas):
            for k, psi in enumerate(psis):
                q = cmath.rect(rho, omega)
                xi = cmath.rect(xi_mod, psi)
                b = 1 + q * xi + q ** 3 * xi ** 2
                a = 1 + q ** 6 * xi ** 4 + q ** 10 * xi ** 5 + q ** 15 * xi ** 6 + q ** 21 * xi ** 7
                assert abs(b_vals[i, k] - b) <= 1e-13 * (1 + xi_mod + xi_mod ** 2)
                assert abs(a_star[i, k] - a) <= 1e-13 * 5


def test_grid_scans_at_cli_defaults_keep_value_and_location():
    # recorded from the per-point evaluation the matrix products replaced
    k1 = verify_lemma_k1_direct()
    assert k1.computed["min_abs"] == pytest.approx(0.48326300304392056, rel=1e-12)
    assert (k1.computed["at_modulus"], k1.computed["at_q_argument"],
            k1.computed["at_z_argument"]) == (0.6, 1.5707963267948966, 1.5969762655748114)
    k2 = verify_lemma_k2()
    assert k2.computed["grid_min_margin"] == pytest.approx(0.10280925018208102, rel=1e-12)
    assert (k2.computed["at_modulus"], k2.computed["at_q_argument"],
            k2.computed["at_xi_argument"]) == (0.6, 1.5707963267948966, 5.724679946541401)


def test_mu_margins_pinned_exactly():
    # recorded from the per-sample rng.uniform loop the array draw replaced
    assert mu_properties_check().margins == {
        "ordering": 0.0009764750462100125,
        "monotone_above_1": 0.000284450551139237,
        "exchange": 2.266932954020362e-05,
    }


def test_k1_case_sweeps_pinned_exactly():
    # recorded from the per-point phi_star / phi_flat loop the array forms replaced
    margins = verify_lemma_k1_cases().margins
    assert margins["phi_star_decreasing"] == 0.00016688398833597518
    assert margins["phi_flat_increasing"] == 0.00014129835154941262


def test_AB_margins_pinned_exactly():
    # recorded from the per-point A_j / B_j loop the array forms replaced
    tie = 5e-16
    assert verify_AB_monotone().margins == {
        "A_1_decreasing": 0.000160996954874371, "B_1_decreasing": 0.00025017556789161437,
        "A_2_decreasing": 4.825751309625856e-12, "B_2_decreasing": 4.8214214398298175e-12,
        "A_3_decreasing": tie, "B_3_decreasing": tie, "A_4_decreasing": tie,
        "B_4_decreasing": tie, "A_5_decreasing": tie, "B_5_decreasing": tie,
        "A_6_decreasing": tie, "B_6_decreasing": 2.7795539507496873e-16,
    }


def test_array_forms_match_scalar_forms():
    rng = np.random.default_rng(47)
    m = rng.uniform(0.0, 5.0, 64)
    rho = rng.uniform(1e-3, 0.6, 64)
    r = rng.uniform(0.05, 0.95, 64)
    for j in (1, 2, 3, 4):
        assert np.array_equal(mu(j, m), [mu(j, float(x)) for x in m])
    for j in (1, 2, 5):
        assert np.allclose(A_j(rho, j), [A_j(float(x), j) for x in rho], rtol=1e-15, atol=0)
        assert np.allclose(B_j(rho, j), [B_j(float(x), j) for x in rho], rtol=1e-15, atol=0)
    assert np.array_equal(phi_star(r), [phi_star(float(x)) for x in r])
    assert np.allclose(phi_flat(r), [phi_flat(float(x)) for x in r], rtol=1e-15, atol=0)
    assert isinstance(mu(2, 0.5), float) and isinstance(phi_flat(0.5), float)
    with pytest.raises(DomainError):
        mu(1, np.array([0.5, -0.1]))
    with pytest.raises(DomainError):
        A_j(np.array([0.3, 0.7]), 1)
    with pytest.raises(DomainError):
        phi_flat(np.array([0.3, 1.0]))


def test_k2_z_steps_rule_is_the_library_default():
    import inspect
    from thetasep.lemmas import DEFAULT_K1_Z_STEPS, k2_z_steps
    assert k2_z_steps(DEFAULT_K1_Z_STEPS) == 360
    assert k2_z_steps(180) == 128 and k2_z_steps(1000) == 500
    assert inspect.signature(verify_lemma_k2).parameters["z_steps"].default == 360

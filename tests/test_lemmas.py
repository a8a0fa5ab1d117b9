import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from thetasep.lemmas import C0
from whole_array import coefficients

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


def test_one_battery_run_evaluates_each_series_and_product_constant_once(monkeypatch):
    # 4 distinct U values (gamma, eta, xi, chi5) and 6 theta ones (both g-bounds, a0, the A**
    # tail, phi_flat at 0.6 and 0.3); a second run reads them all from the cache
    from collections import Counter

    from thetasep import lemmas
    calls = Counter()
    for name in ("eval_U", "eval_theta"):
        def counted(*args, _fn=getattr(lemmas, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lemmas, name, counted)
    recompute_constant.cache_clear()
    verify_all()
    assert calls == {"eval_U": 4, "eval_theta": 6}
    verify_all()
    assert calls == {"eval_U": 4, "eval_theta": 6}


def test_derived_constants_are_their_checks_values_bit_for_bit():
    # each registry entry is the one definition: the check reports it, and it keeps the
    # order of operations of the formula the check used to write out
    chi = [recompute_constant(f"chi{j}") for j in range(6)]
    eta, xi, gamma = (recompute_constant(n) for n in ("eta", "xi", "gamma"))
    cases = verify_lemma_k1_cases().computed
    for name, reported, formula in [
        ("qur_floor_k4", verify_lemma_k4().computed["qur_floor"],
         1.2 * chi[0] * chi[1] * (chi[2] * chi[3] * chi[4] * chi[5]) ** 2),
        ("qur_floor_k5", verify_lemma_k5().computed["qur_floor"], 1.2 * eta * xi),
        ("Q0_floor", verify_lemma_Q().computed["Q0_floor"], 1.2 / gamma),
        ("tau_pinch_modulus", cases["pinch_modulus"], 0.5 / (0.5 + 2.0 ** -0.5) ** 2),
        ("case4d_drop", cases["case4D"],
         -(0.6 ** -0.5 * math.cos(11 * math.pi / 12) + 1.0 + math.cos(8 * math.pi / 3))),
    ]:
        assert recompute_constant(name) == reported == formula, name


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
    rep = verify_AB_monotone(grid_points=2000)
    assert rep.passed
    assert rep.computed["A_1(0.6)"] == pytest.approx(A_j(0.6, 1), abs=1e-15)
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


def _mp_sum(r, exponent, start):
    """sum_{j>=start} r^exponent(j) in mpmath, r the double, until a term is below 1e-45."""
    import mpmath
    r, total, j = mpmath.mpf(r), mpmath.mpf(0), start
    while (term := r ** exponent(mpmath.mpf(j))) > mpmath.mpf(10) ** -45 or j < start + 3:
        total, j = total + term, j + 1
    return total


def _mp_product(factor, start):
    """prod_{j>=start} factor(j) in mpmath, until a factor is within 1e-45 of 1."""
    import mpmath
    total, j = mpmath.mpf(1), start
    while abs((f := factor(mpmath.mpf(j))) - 1) > mpmath.mpf(10) ** -45 or j < start + 3:
        total, j = total * f, j + 1
    return total


def _constant_cases():
    """(name, the lemma's value, the defining sum or product in mpmath, its allowance): the
    core evaluator's tail bound plus 2^-52 (n + 6)^2 scale for n terms (a product's scale
    taken as its |value|), times the constant's power of 0.6."""
    import mpmath
    from thetasep import eval_theta, eval_U
    from thetasep.lemmas import _CONSTANT_BUDGET
    r = mpmath.mpf(0.6)

    def theta(q, z, factor=1.0):
        res = eval_theta(q, z, _CONSTANT_BUDGET)
        return factor * (res.tail_bound + 2.0 ** -52 * (res.terms_used + 6) ** 2 * res.scale)

    def product(z):
        # `core._product_eval`'s allowance, with kappa = max(1, 2 w / (n^2 + 3n)) and
        # w = sum_{j<=n} (j + 1) |d_j| / |1 + d_j|, d_j = z 0.6^j
        res = eval_U(0.6, z, _CONSTANT_BUDGET)
        n = res.terms_used
        w = sum((j + 1) * abs(z * 0.6 ** j) / abs(1 + z * 0.6 ** j) for j in range(1, n + 1))
        kappa = max(1.0, 2.0 * w / (n * n + 3 * n))
        return res.tail_bound + 2.0 ** -52 * (n + 6) ** 2 * kappa * abs(res.value)

    c = recompute_constant
    return [
        ("gamma", c("gamma"), _mp_product(lambda j: 1 - r ** j, 12), product(-0.6 ** 11)),
        ("eta", c("eta"), abs(_mp_product(lambda j: 1 - r ** (j - 4.5), 1)), product(-0.6 ** -4.5)),
        ("xi", c("xi"), _mp_product(lambda j: 1 - r ** (j + 4.5), 0), product(-0.6 ** 3.5)),
        ("chi5", c("chi5"), _mp_product(lambda k: 1 - r ** (k - 3.5), 16), product(-0.6 ** 11.5)),
        ("g_bound_k5", c("g_bound_k5"), _mp_sum(0.6, lambda j: j * (j - 1) / 2 + 4.5 * j, 1),
         theta(0.6, 0.6 ** 4.5, 0.6 ** 4.5)),
        ("g_bound_k4", c("g_bound_k4"), _mp_sum(0.6, lambda j: j * (j - 1) / 2 + 3.5 * j, 1),
         theta(0.6, 0.6 ** 3.5, 0.6 ** 3.5)),
        ("a0", c("a0"), 1 + _mp_sum(0.6, lambda j: j * (j - 1) / 2 - 1.5 * j, 4),
         theta(0.6, 0.6 ** 1.5)),
        ("a_tail_bound", c("a_tail_bound"), _mp_sum(0.6, lambda j: j * (j - 1) / 2 - 1.5 * j, 8),
         theta(0.6, 0.6 ** 5.5, 0.6 ** 16)),
        ("phi_flat(0.6)", phi_flat(0.6), _mp_sum(0.6, lambda j: j * (j - 2) / 2, 2),
         theta(0.6, math.sqrt(0.6))),
        ("phi_flat(0.3)", phi_flat(0.3), _mp_sum(0.3, lambda j: j * (j - 2) / 2, 2),
         theta(0.3, math.sqrt(0.3))),
    ]


def test_constants_are_values_of_theta_and_U_within_their_bounds():
    # each series constant is theta(q, z) times a power of 0.6, each product one is U(0.6, z):
    # within the evaluator's tail bound and rounding allowance of the 40-digit definition
    import mpmath
    with mpmath.workdps(40):
        for name, value, exact, allowance in _constant_cases():
            gap = abs(mpmath.mpf(value) - exact)
            assert 0.0 < allowance < 1e-11 * abs(value), name
            assert gap <= allowance, (name, float(gap), allowance)


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
    reports = verify_all(modulus_steps=30, argument_steps=30, z_steps=180, samples=400)
    assert list(reports) == ["constants", "mu", "AB", "Q", "k5", "k4", "k1", "k2"]
    for name, rep in reports.items():
        if name == "Q":
            assert not rep.passed
        else:
            assert rep.passed, f"{name} failed: {rep.margins}"
    assert reports["k1"].grid == GridSpec((0.2078750206, 0.6), 30, (math.pi / 2, math.pi), 30)
    assert reports["Q"].grid == GridSpec((0.02, 0.6), 30, (math.pi / 2, math.pi), 30)
    # k2 samples its circles at half k1's z-steps, at least 128
    assert reports["k2"].computed == verify_lemma_k2(grid=reports["k2"].grid,
                                                     z_steps=128).computed


def test_default_battery_margins_match_the_benchmark_reference():
    # the benchmark's battery check in tier 1: only Q fails, and every margin lies within 1e-9
    # of bench/battery_reference.json (the rule of bench/workloads.py's margins_match)
    reference = json.loads((Path(__file__).parents[1] / "bench" / "battery_reference.json")
                           .read_text(encoding="utf-8"))
    reports = verify_all()
    assert [name for name, rep in reports.items() if not rep.passed] == ["Q"]
    assert reports.keys() == reference.keys()
    for name, margins in reference.items():
        assert reports[name].margins.keys() == margins.keys(), name
        for key, want in margins.items():
            assert abs(reports[name].margins[key] - want) <= 1e-9, (name, key)


def test_verify_all_runs_one_check_with_the_battery_settings():
    from thetasep.lemmas import DEFAULT_K1_GRID
    k1 = verify_all(z_steps=90, samples=300, check="k1")
    assert list(k1) == ["k1"] and k1["k1"].grid == DEFAULT_K1_GRID
    assert k1["k1"].margins == verify_lemma_k1(z_steps=90, samples=300).margins
    assert verify_all(samples=50, check="mu")["mu"].computed["samples"] == 100.0
    assert verify_all(grid_points=1500, check="AB")["AB"].margins == \
        verify_AB_monotone(grid_points=1500).margins
    with pytest.raises(DomainError):
        verify_all(check="k3")


def test_default_grids_are_the_battery_grids():
    from thetasep.lemmas import DEFAULT_K1_GRID, DEFAULT_K2_GRID, DEFAULT_Q_GRID, grid_steps
    assert DEFAULT_Q_GRID == GridSpec((0.6 / 2000, 0.6), 2000, (math.pi / 2, math.pi), 2000)
    assert DEFAULT_K1_GRID == GridSpec((C0, 0.6), 80, (math.pi / 2, math.pi), 80)
    assert DEFAULT_K2_GRID == GridSpec((0.55, 0.6), 60, (math.pi / 2, 2 * math.pi / 3), 60)
    assert grid_steps("Q", argument_steps=7) == (2000, 7)
    assert grid_steps("k2", modulus_steps=5) == (5, 60)
    assert grid_steps("mu", 5, 5) is None


# ---------------------------------------------------------------------------
# matrix-product grid kernels and array forms
# ---------------------------------------------------------------------------

def _row(rho, omegas, psis, z_modulus, powers, q_exponents):
    basis = np.exp(1j * np.outer(np.arange(max(powers) + 1), psis))
    rows = coefficients(np.array([rho]), [z_modulus], powers, q_exponents, np.asarray(omegas))[0]
    return rows[0] @ basis[powers]


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


def test_k1_term_counts_of_an_array_are_the_scalar_rule():
    # the array pass starts each search near its end; counts and bounds must still be the
    # least n from n = 2 up and its bound, bit for bit
    from thetasep.lemmas import DEFAULT_K1_GRID, _theta_dagger_terms

    def scalar_rule(rho, tolerance=1e-16):
        n = 2
        while (bound := rho ** (n * (n - 2) / 2.0) / (1.0 - rho ** (n - 0.5))) > tolerance:
            n += 1
        return n, bound

    rhos = np.concatenate([DEFAULT_K1_GRID.moduli(), [C0, 0.6],
                           np.random.default_rng(16).random(10_000)])
    counts, bounds = _theta_dagger_terms(rhos)
    expected = [scalar_rule(rho) for rho in rhos.tolist()]
    assert counts.tolist() == [n for n, _ in expected]
    assert bounds.tolist() == [bound for _, bound in expected]
    assert [_theta_dagger_terms(rho) for rho in rhos[:82].tolist()] == expected[:82]


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


# ---------------------------------------------------------------------------
# pruned grid minima
# ---------------------------------------------------------------------------

def _basis(scan, psis):
    """The powers e^{i p psi} up to the scan's largest power, one row a power."""
    return np.exp(1j * np.outer(np.arange(max(int(p[-1]) for *_, p in scan.sums) + 1), psis))


def _row_values(scan, r, basis):
    """Modulus row r's values, each sum one float64 product C[r] @ basis[p] of its own terms,
    C[r] = moduli[r] * phases as the whole coefficient array holds it."""
    sums = [(m[r, :n] * ph[:, :n]) @ basis[p[:n]]
            for (m, ph, p), n in zip(scan.sums, scan.terms[r])]
    return scan.combine(sums, np.full(sums[0].shape[0], r))


def _exhaustive_min(grid, z_steps, scan):
    """The scan `_scan_min` prunes, at every node: the first minimum in
    (omega, psi) order within a modulus row, the first modulus row on ties."""
    psis = np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False)
    omegas = grid.arguments()
    basis = _basis(scan, psis)
    best, at = math.inf, None
    for r, rho in enumerate(map(float, grid.moduli())):
        vals = _row_values(scan, r, basis)
        i, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[i, k] < best:
            best, at = float(vals[i, k]), (rho, float(omegas[i]), float(psis[k]))
    return best, at


def _scan(check, grid):
    """The k1 or the k2 scan over `grid`."""
    from thetasep.lemmas import _dominance_scan, _theta_dagger_scan
    return (_theta_dagger_scan(grid) if check == "k1"
            else _dominance_scan(grid, recompute_constant("a_tail_bound")))


@settings(max_examples=80, deadline=None)
@given(check=st.sampled_from(["k1", "k2"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       modulus_steps=st.integers(2, 12), argument_steps=st.integers(2, 12),
       z_steps=st.integers(1, 97), pad=st.sampled_from([None, 1.0, 4.0]))
def test_pruned_scan_matches_the_exhaustive_scan(check, ends, modulus_steps, argument_steps,
                                                 z_steps, pad):
    # a larger pad gives strides up to about 25 on these circles, most not dividing z_steps
    from thetasep import lemmas
    lo, hi = (C0, 0.6) if check == "k1" else (0.55, 0.6)
    a, b = sorted(ends)
    grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), modulus_steps,
                    (math.pi / 2, math.pi if check == "k1" else 2 * math.pi / 3), argument_steps)
    scan = _scan(check, grid)
    with pytest.MonkeyPatch.context() as patch:
        if pad is not None:
            patch.setattr(lemmas, "_PAD", pad)
        pruned = lemmas._scan_min(grid, z_steps, scan)
    assert pruned == _exhaustive_min(grid, z_steps, scan)


@settings(max_examples=60, deadline=None)
@given(check=st.sampled_from(["k1", "k2"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       modulus_steps=st.integers(2, 30), argument_steps=st.integers(2, 30), data=st.data())
def test_rows_formed_on_demand_are_the_whole_coefficient_array_bit_for_bit(
        check, ends, modulus_steps, argument_steps, data):
    # the whole array as the scans once built it, one `coefficients` call per sum, against
    # the rows `_Scan.rows` forms for any nodes, in any order, up to their most terms
    from thetasep.lemmas import _theta_dagger_terms
    lo, hi = (C0, 0.6) if check == "k1" else (0.55, 0.6)
    a, b = sorted(ends)
    grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), modulus_steps,
                    (math.pi / 2, math.pi if check == "k1" else 2 * math.pi / 3), argument_steps)
    rhos, omegas = grid.moduli(), grid.arguments()
    if check == "k1":
        counts = [_theta_dagger_terms(rho)[0] for rho in map(float, rhos)]
        j = np.arange(max(counts))
        whole = [coefficients(rhos, [rho ** -0.5 for rho in map(float, rhos)], j,
                               j * (j - 1) / 2, omegas, counts)]
    else:
        xi = np.array([rho ** -1.5 for rho in map(float, rhos)])
        whole = [coefficients(rhos, xi, p, e, omegas)
                 for p, e in (([0, 1, 2], [0, 1, 3]), ([0, 4, 5, 6, 7], [0, 6, 10, 15, 21]))]
    scan = _scan(check, grid)
    at = np.array(data.draw(st.lists(st.integers(0, modulus_steps * argument_steps - 1),
                                     min_size=1)))
    key = np.max(scan.terms[at // argument_steps], axis=0)
    for formed, (c, moduli), (scan_moduli, _, _), n in zip(scan.rows(at), whole, scan.sums, key):
        assert formed.tobytes() == c.reshape(-1, c.shape[2])[at, :n].tobytes()
        assert scan_moduli.tobytes() == moduli.tobytes()


@settings(max_examples=60, deadline=None)
@given(check=st.sampled_from(["k1", "k2"]), modulus_steps=st.integers(2, 12),
       argument_steps=st.integers(2, 12), z_steps=st.integers(1, 97),
       cap=st.integers(1, 5000), data=st.data())
def test_blocks_give_each_row_its_own_modulus_row_product(check, modulus_steps, argument_steps,
                                                          z_steps, cap, data):
    # any subset of rows, stacked across modulus rows of one term count, in blocks of any
    # size: every row's values equal its row of C[r] @ basis[p] bit for bit
    from thetasep import lemmas
    lo, hi, top = (C0, 0.6, math.pi) if check == "k1" else (0.55, 0.6, 2 * math.pi / 3)
    grid = GridSpec((lo, hi), modulus_steps, (math.pi / 2, top), argument_steps)
    scan = _scan(check, grid)
    basis = _basis(scan, np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False))
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, modulus_steps * argument_steps - 1),
                                             min_size=1))))
    seen = set()
    for at, values in lemmas._blocks(scan, basis, rows, cap):
        for row, got in zip(at.tolist(), values):
            r, i = divmod(row, argument_steps)
            assert np.array_equal(got, _row_values(scan, r, basis)[i])
            seen.add(row)
    assert seen == set(rows.tolist())


@pytest.mark.parametrize("check", ["k1", "k2"])
def test_slope_bounds_are_the_term_majorants(check):
    # L_psi = sum_p p |c_p| (k2: weighted by |xi| for B), and it bounds the sampled slope
    from thetasep.lemmas import _theta_dagger_terms
    lo, hi, top = (C0, 0.6, math.pi) if check == "k1" else (0.55, 0.6, 2 * math.pi / 3)
    grid = GridSpec((lo, hi), 3, (math.pi / 2, top), 5)
    scan = _scan(check, grid)
    psis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    basis = _basis(scan, psis)
    for r, rho in enumerate(map(float, grid.moduli())):
        if check == "k1":
            moduli = [rho ** (j * (j - 2) / 2) for j in range(_theta_dagger_terms(rho)[0])]
            slope = math.fsum(j * m for j, m in enumerate(moduli))
        else:
            xi = rho ** -1.5
            slope = (xi * (rho * xi + 2 * rho ** 3 * xi ** 2)
                     + math.fsum(p * rho ** e * xi ** p
                                 for p, e in ((4, 6), (5, 10), (6, 15), (7, 21))))
        assert scan.slope[r] == pytest.approx(slope, rel=1e-12)
        vals = _row_values(scan, r, basis)
        steps = np.abs(np.diff(vals, axis=1, append=vals[:, :1])) / (psis[1] - psis[0])
        assert np.max(steps) <= scan.slope[r]


def test_an_unsound_slope_bound_misses_the_minimum():
    # a row that claims a zero slope is judged by its psi = 0 sample alone
    from thetasep.lemmas import _scan_min
    grid = GridSpec((C0, 0.6), 6, (math.pi / 2, math.pi), 6)
    scan = _scan("k1", grid)
    flat = scan._replace(slope=np.zeros_like(scan.slope))
    assert _scan_min(grid, 97, scan) == _exhaustive_min(grid, 97, scan)
    assert _scan_min(grid, 97, flat) != _exhaustive_min(grid, 97, flat)


def test_pruned_scans_at_the_defaults_refine_few_rows(monkeypatch):
    # on the default grids (strides 11 and 3) the centres stand for every node within
    # (h_rho, h_omega) = (4, 1) and (5, 0) steps, the per-row coarse pass takes 14 % and 22 %
    # of the nodes, the live windows cover 0.23 % and 0.49 % of them, and the exact stage
    # takes one row a scan
    from thetasep import lemmas
    stages = {"_single": [], "_windows": [], "_blocks": []}
    single, windows, blocks = lemmas._single, lemmas._windows, lemmas._blocks

    def spy(name, stage):
        def record(scan, basis, *args):
            call = 1 + max((entry[0] for entry in stages[name]), default=0)
            for at, values in stage(scan, basis, *args):
                stages[name].append((call, basis.dtype, basis.shape[1], at, values))
                yield at, values
        return record

    def record_windows(scan, basis, half, spacing, rows, starts):
        values, eps = windows(scan, basis, half, spacing, rows, starts)
        stages["_windows"].append((None, basis.dtype, 2 * half + 1, rows, values))
        return values, eps

    monkeypatch.setattr(lemmas, "_single", spy("_single", single))
    monkeypatch.setattr(lemmas, "_blocks", spy("_blocks", blocks))
    monkeypatch.setattr(lemmas, "_windows", record_windows)
    for check, z_steps, stride, (n_rho, n_omega), reach, share in (
            (verify_lemma_k1_direct, 720, 11, (80, 80), (4, 1), 0.2),
            (verify_lemma_k2, 360, 3, (60, 60), (5, 0), 0.3)):
        for calls in stages.values():
            calls.clear()
        check()
        # every coarse value at every S-th arg z, in complex64 (float32 values)
        assert all(columns == -(-z_steps // stride) and values.dtype == np.float32
                   and values.shape == (at.size, columns)
                   for _, _, columns, at, values in stages["_single"])
        centres = np.concatenate([at for call, _, _, at, _ in stages["_single"] if call == 1])
        rest = np.concatenate([at for call, _, _, at, _ in stages["_single"] if call > 1])
        # the first pass takes the centres, each once: every node is within (h_rho, h_omega)
        # steps of one
        picks = [np.unique(lemmas._centres(n, h)) for n, h in zip((n_rho, n_omega), reach)]
        for n, h in zip((n_rho, n_omega), reach):
            assert np.max(np.abs(lemmas._centres(n, h) - np.arange(n))) <= h
        flat = (picks[0][:, None] * n_omega + picks[1]).ravel()
        assert np.array_equal(centres, flat)
        # the per-row pass: each of a few other nodes once, from the largest |q| down
        assert 0 < rest.size < share * n_rho * n_omega and np.unique(rest).size == rest.size
        assert np.all(np.diff(rest) < 0) and not np.isin(rest, flat).any()
        # windows of S nodes in float64, on fewer than 5 % of the nodes
        assert all(dtype == np.complex128 and width == stride and values.dtype == np.float64
                   and values.shape == (at.size, stride)
                   for _, dtype, width, at, values in stages["_windows"])
        nodes = sum(at.size * stride for _, _, _, at, _ in stages["_windows"])
        assert 0 < nodes < 0.05 * n_rho * n_omega * z_steps
        # whole rows in complex128 for at most two rows
        assert all(dtype == np.complex128 and columns == z_steps
                   for _, dtype, columns, _, _ in stages["_blocks"])
        assert 1 <= np.unique(np.concatenate([e[3] for e in stages["_blocks"]])).size <= 2


def test_default_scans_form_the_coefficients_of_the_nodes_they_read(monkeypatch):
    # no stage builds the whole (n_rho, n_omega, K) coefficient array: each forms the rows it
    # reads (`_Scan.rows`), 1137, 978 and 2 rows in k1 (of 6400 nodes) and 1155, 2108 and 2 in
    # k2 (of 3600 nodes; a node has a window row for each of its live windows)
    import sys
    from thetasep import lemmas
    formed, rows = {}, lemmas._Scan.rows

    def record(scan, at):
        formed.setdefault(sys._getframe(1).f_code.co_name, []).append(at.size)
        return rows(scan, at)

    monkeypatch.setattr(lemmas._Scan, "rows", record)
    for check, nodes, single, window in ((verify_lemma_k1_direct, 6400, 0.2, 0.2),
                                         (verify_lemma_k2, 3600, 0.35, 0.6)):
        formed.clear()
        check()
        assert set(formed) == {"_single", "_windows", "_blocks"}
        assert max(map(max, formed.values())) <= window * nodes
        assert sum(formed["_single"]) < single * nodes and sum(formed["_windows"]) < window * nodes
        assert sum(formed["_blocks"]) <= 4


@pytest.mark.parametrize("check", ["k1", "k2"])
def test_rho_and_omega_slopes_are_the_term_majorants(check):
    # for term moduli rho^s and phases e omega + p psi (k2: B weighted by |xi| = rho^{-3/2}),
    # L_omega = sum e rho^s, and L_rho's terms |s| rho^(s - 1) fall with rho for s < 1 and rise
    # for s >= 1; neighbouring columns and rows differ by at most L_omega domega and by L_rho
    # drho, rows of different term counts (k1) also by their dropped tails
    from thetasep.lemmas import _theta_dagger_terms
    lo, hi, top = (C0, 0.6, math.pi) if check == "k1" else (0.55, 0.6, 2 * math.pi / 3)
    grid = GridSpec((lo, hi), 40, (math.pi / 2, top), 40)
    scan = _scan(check, grid)
    rhos, omegas = grid.moduli(), grid.arguments()
    for r, rho in enumerate(map(float, rhos)):
        if check == "k1":
            terms = [(j * (j - 1) / 2, j * (j - 2) / 2) for j in range(_theta_dagger_terms(rho)[0])]
        else:
            terms = ([(e, e - 1.5 * p - 1.5) for p, e in ((0, 0), (1, 1), (2, 3))]
                     + [(e, e - 1.5 * p) for p, e in ((0, 0), (4, 6), (5, 10), (6, 15), (7, 21))])
        assert scan.omega_slope[r] == pytest.approx(math.fsum(e * rho ** s for e, s in terms),
                                                    rel=1e-12)
        assert scan.rho_slope[r] == pytest.approx(
            [math.fsum(abs(s) * rho ** (s - 1) for _, s in terms if s < 1),
             math.fsum(abs(s) * rho ** (s - 1) for _, s in terms if s >= 1)], rel=1e-12)
    basis = _basis(scan, np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
    values = np.stack([_row_values(scan, r, basis) for r in range(rhos.size)])
    delta2 = 2.0 ** -49 * scan.rounding  # twice a float64 value's distance to the exact one
    along_omega = np.max(np.abs(np.diff(values, axis=1)), axis=2)
    omega_bound = np.outer(scan.omega_slope, np.diff(omegas)) + delta2[:, None]
    assert np.all(along_omega <= omega_bound) and np.max(along_omega / omega_bound) > 0.3
    along_rho = np.max(np.abs(np.diff(values, axis=0)), axis=2)
    rho_bound = ((scan.rho_slope[:-1, 0] + scan.rho_slope[1:, 1]) * np.diff(rhos)
                 + 2 * scan.tail + np.maximum(delta2[:-1], delta2[1:]))[:, None]
    assert np.all(along_rho <= rho_bound) and np.max(along_rho / rho_bound) > 0.3
    assert (check == "k2") == (scan.tail == 0 and np.all(np.diff(scan.terms[:, 0]) == 0))


def test_unsound_rho_or_omega_slopes_miss_the_minimum():
    # with L_rho or L_omega zero one centre stands for half the grid in that direction, and
    # the nodes beside it are judged by its values alone
    from thetasep import lemmas
    rng, missed = np.random.default_rng(5), {"rho_slope": 0, "omega_slope": 0}
    for draw in range(30):
        check = ("k1", "k2")[draw % 2]
        lo, hi = (C0, 0.6) if check == "k1" else (0.55, 0.6)
        a, b = np.sort(rng.random(2))
        grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), int(rng.integers(20, 61)),
                        tuple(np.sort(rng.uniform(-math.pi, math.pi, 2))),
                        int(rng.integers(20, 61)))
        z_steps, scan = int(rng.integers(20, 200)), _scan(check, grid)
        exhaustive = _exhaustive_min(grid, z_steps, scan)
        assert lemmas._scan_min(grid, z_steps, scan) == exhaustive
        for name in missed:
            flat = scan._replace(**{name: np.zeros_like(getattr(scan, name))})
            missed[name] += lemmas._scan_min(grid, z_steps, flat) != exhaustive
    assert all(missed.values()), missed


@settings(max_examples=40, deadline=None)
@given(check=st.sampled_from(["k1", "k2"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       modulus_steps=st.integers(20, 60), argument_steps=st.integers(20, 60),
       z_steps=st.integers(1, 97), pad=st.sampled_from([None, 0.05, 1.0, 4.0]))
def test_pruned_scan_matches_the_exhaustive_scan_on_finer_grids(check, ends, modulus_steps,
                                                                argument_steps, z_steps, pad):
    # on these grids a centre stands for one to a few dozen nodes in |q| and in arg q
    from thetasep import lemmas
    lo, hi = (C0, 0.6) if check == "k1" else (0.55, 0.6)
    a, b = sorted(ends)
    grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), modulus_steps,
                    (math.pi / 2, math.pi if check == "k1" else 2 * math.pi / 3), argument_steps)
    scan = _scan(check, grid)
    with pytest.MonkeyPatch.context() as patch:
        if pad is not None:
            patch.setattr(lemmas, "_PAD", pad)
        pruned = lemmas._scan_min(grid, z_steps, scan)
    assert pruned == _exhaustive_min(grid, z_steps, scan)


def _coarse_error_and_allowance(check, grid, z_steps):
    """Per modulus row: the largest |complex64 value - float64 value| over every node, as
    `_single` evaluates the coarse pass, and delta32 + delta = (2^-21 + 2^-50)(K + 8)(M + L)."""
    from thetasep import lemmas
    scan = _scan(check, grid)
    basis = _basis(scan, np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False))
    n_omega = grid.argument_steps
    single = np.empty((grid.modulus_steps * n_omega, z_steps))
    for at, values in lemmas._single(scan, basis, n_omega * z_steps // 4,
                                     np.arange(single.shape[0])[::-1]):
        single[at] = values
    error = np.array([np.max(np.abs(single[r * n_omega:(r + 1) * n_omega]
                                    - _row_values(scan, r, basis)))
                      for r in range(grid.modulus_steps)])
    rounding = (scan.terms.max(axis=1) + 8) * (scan.scale + scan.slope)
    return error, (2.0 ** -21 + 2.0 ** -50) * rounding


@pytest.mark.parametrize("check", ["k1", "k2"])
def test_single_precision_values_lie_within_their_allowance_at_the_defaults(check):
    # the premise of the skip rule: at every node of a default grid, so at every coarse node
    from thetasep.lemmas import DEFAULT_K1_GRID, DEFAULT_K2_GRID
    grid, z_steps = (DEFAULT_K1_GRID, 720) if check == "k1" else (DEFAULT_K2_GRID, 360)
    error, allowance = _coarse_error_and_allowance(check, grid, z_steps)
    assert np.all(error <= allowance)
    assert np.all(error > 0)  # the pass does round: the bound is exercised, not vacuous


@settings(max_examples=40, deadline=None)
@given(check=st.sampled_from(["k1", "k2"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       modulus_steps=st.integers(2, 12), argument_steps=st.integers(2, 12),
       z_steps=st.integers(1, 97))
def test_single_precision_values_lie_within_their_allowance(check, ends, modulus_steps,
                                                            argument_steps, z_steps):
    lo, hi = (C0, 0.6) if check == "k1" else (0.55, 0.6)
    a, b = sorted(ends)
    grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), modulus_steps,
                    (math.pi / 2, math.pi if check == "k1" else 2 * math.pi / 3), argument_steps)
    error, allowance = _coarse_error_and_allowance(check, grid, z_steps)
    assert np.all(error <= allowance)


@settings(max_examples=60, deadline=None)
@given(check=st.sampled_from(["k1", "k2"]),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       modulus_steps=st.integers(2, 8), argument_steps=st.integers(2, 8),
       z_steps=st.integers(1, 300), data=st.data())
def test_window_values_lie_within_their_bound(check, ends, modulus_steps, argument_steps,
                                              z_steps, data):
    # the premise of the exact-row rule: each value of each window, any width, any start,
    # wrapping past 2 pi, is within eps of the exhaustive float64 value at its node
    from thetasep import lemmas
    lo, hi = (C0, 0.6) if check == "k1" else (0.55, 0.6)
    a, b = sorted(ends)
    grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), modulus_steps,
                    (math.pi / 2, math.pi if check == "k1" else 2 * math.pi / 3), argument_steps)
    scan = _scan(check, grid)
    basis = _basis(scan, np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False))
    half = data.draw(st.integers(0, min(z_steps // 2, 20)))
    n = modulus_steps * argument_steps
    rows, starts = np.repeat(np.arange(n), z_steps), np.tile(np.arange(z_steps), n)
    values, eps = lemmas._windows(scan, basis, half, 2.0 * math.pi / z_steps, rows, starts)
    exhaustive = np.concatenate([_row_values(scan, r, basis) for r in range(modulus_steps)])
    nodes = (starts[:, None] + np.arange(-half, half + 1)) % z_steps
    assert np.all(np.abs(values - exhaustive[rows[:, None], nodes]) <= eps[:, None])


@pytest.mark.parametrize("mutation", ["no eps", "one node narrower"])
def test_scan_min_misses_the_minimum_without_eps_or_full_windows(monkeypatch, mutation):
    # with eps = 0, rows whose values tie up to rounding (the argument range is symmetric,
    # and conjugate rows differ by a few ulps) lose their minimum to window rounding; with
    # each window one node short, a node that holds a row's minimum may lie in no window
    from thetasep import lemmas
    windows = lemmas._windows

    def mutated(*args):
        values, eps = windows(*args)
        if mutation == "no eps":
            return values, 0.0 * eps
        return (values[:, :-1] if values.shape[1] > 1 else values), eps

    rng, missed = np.random.default_rng(7), 0
    monkeypatch.setattr(lemmas, "_PAD", 1.0)  # short windows: a dropped node is often a minimum
    for draw in range(100):
        check = ("k1", "k2")[draw % 2]
        lo, hi, top = (C0, 0.6, math.pi) if check == "k1" else (0.55, 0.6, 2 * math.pi / 3)
        a, b = np.sort(rng.random(2))
        grid = GridSpec((lo + a * (hi - lo), lo + b * (hi - lo)), int(rng.integers(2, 8)),
                        (math.pi / 2 - top, top - math.pi / 2), int(rng.integers(2, 8)))
        z_steps, scan = int(rng.integers(20, 97)), _scan(check, grid)
        exhaustive = _exhaustive_min(grid, z_steps, scan)
        assert lemmas._scan_min(grid, z_steps, scan) == exhaustive
        with monkeypatch.context() as patch:
            patch.setattr(lemmas, "_windows", mutated)
            missed += lemmas._scan_min(grid, z_steps, scan) != exhaustive
    assert missed > 0


def test_default_scans_keep_their_minima_bit_for_bit():
    k1, k2 = verify_lemma_k1_direct().computed, verify_lemma_k2().computed
    assert (k1["min_abs"], k1["at_modulus"], k1["at_q_argument"], k1["at_z_argument"]) == (
        0.4832630030439204, 0.6, math.pi / 2, 1.5969762655748114)
    assert (k2["grid_min_margin"], k2["at_modulus"], k2["at_q_argument"],
            k2["at_xi_argument"]) == (0.10280925018208191, 0.6, math.pi / 2, 5.724679946541401)


def test_sample_pad_is_the_slope_bound_over_half_a_step_in_computed_only():
    from thetasep.lemmas import DEFAULT_K1_GRID, DEFAULT_K2_GRID, _theta_dagger_scan
    k1, k2 = verify_lemma_k1_direct(), verify_lemma_k2()
    slope = float(np.max(_theta_dagger_scan(DEFAULT_K1_GRID).slope))
    assert k1.computed["sample_pad"] == slope * math.pi / 720
    assert k2.computed["sample_pad"] == float(np.max(_scan("k2", DEFAULT_K2_GRID).slope)) \
        * math.pi / 360
    assert round(k1.computed["sample_pad"], 3) == 0.023 and round(k2.computed["sample_pad"], 3) \
        == 0.118
    assert "sample_pad" not in k1.margins and "sample_pad" not in k2.margins
    # one sample per circle: the reported minimum 0.975 could hide a dip of 16.7
    coarse = verify_lemma_k1(z_steps=1, samples=400)
    assert round(coarse.computed["direct.sample_pad"], 1) == 16.7
    assert round(coarse.computed["direct.min_abs"], 3) == 0.975
    assert not any("sample_pad" in key for key in coarse.margins)


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
    from thetasep.lemmas import BATTERY, DEFAULT_K1_Z_STEPS
    k2_z_steps = BATTERY["k2"].circle
    assert k2_z_steps(DEFAULT_K1_Z_STEPS) == 360
    assert k2_z_steps(180) == 128 and k2_z_steps(1000) == 500
    assert inspect.signature(verify_lemma_k2).parameters["z_steps"].default == 360

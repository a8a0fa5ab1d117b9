import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thetasep.cli import main, parse_complex
from thetasep.errors import DomainError
from thetasep.lemmas import verify_all, verify_lemma_k1_cases
from whole_array import coefficients


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complex parsing
# ---------------------------------------------------------------------------

def test_parse_complex_cartesian():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("-0.6") == -0.6
    assert parse_complex("0.55i") == 0.55j
    assert parse_complex("0.3+0.3i") == 0.3 + 0.3j
    assert parse_complex("0.3 - 0.2i") == 0.3 - 0.2j


def test_parse_complex_polar():
    assert abs(parse_complex("0.6@135deg") - cmath.rect(0.6, 3 * math.pi / 4)) < 1e-15
    assert abs(parse_complex("1@90deg") - 1j) < 1e-15


def test_parse_complex_rejects_garbage():
    for text in ("abc", "1@2rad", "0.5@", "1+2"):
        with pytest.raises(DomainError):
            parse_complex(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_theta_at_zero(capsys):
    code, out, _ = run(capsys, ["eval", "theta", "--q", "0.5", "--z", "0",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["value"] == {"re": 1.0, "im": 0.0}


def test_eval_Q_on_imaginary_axis(capsys):
    code, out, _ = run(capsys, ["eval", "Q", "--q", "0.6i", "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["abs"] >= 1.2


def test_eval_G_bound_on_inner_circle(capsys):
    z = f"{0.6 ** -4.5:.15f}@90deg"
    code, out, _ = run(capsys, ["eval", "G", "--q", "-0.6", "--z", z,
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["results"]["abs"] <= 0.1066576686 + 1e-9


def test_eval_domain_violations_exit_2(capsys):
    assert run(capsys, ["eval", "theta", "--q", "1.5", "--z", "1"])[0] == 2
    assert run(capsys, ["eval", "G", "--q", "0.5", "--z", "0"])[0] == 2
    assert run(capsys, ["eval", "theta", "--q", "0.5"])[0] == 2   # missing --z
    assert run(capsys, ["eval", "theta", "--q", "xyz", "--z", "1"])[0] == 2


def test_eval_error_message_names_precondition(capsys):
    code, _, err = run(capsys, ["eval", "G", "--q", "0.5", "--z", "0"])
    assert code == 2
    assert "z != 0" in err


@pytest.mark.parametrize("argv", [
    ["eval", "Q", "--q", "0.9999999"],               # product tail bound overflows
    ["eval", "U", "--q", "0.5", "--z", "1e200"],     # product overflows
    ["eval", "theta", "--q", "0.1", "--z", "1e40"],  # sum is about 2e780
])
def test_eval_overflow_exits_3_without_traceback(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: overflow") and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_U_whose_first_tail_bounds_overflow_prints_its_value(capsys):
    # U(0.5, 1e6) = 7.08649534951e57; e^S - 1 of its first factors' tail sum S is no float
    code, out, err = run(capsys, ["eval", "U", "--q", "0.5", "--z", "1e6"])
    assert (code, err) == (0, "")
    assert "results.value       7.08649534951e+57+0i" in out


def test_eval_R_at_a_subnormal_z_names_the_overflow_not_the_tail(capsys):
    code, out, err = run(capsys, ["eval", "R", "--q", "0.5", "--z", "1e-310",
                                  "--max-terms", "1000000"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: overflow") and "R: a factor of the product" in err
    assert "product tail" not in err


@pytest.mark.parametrize("max_terms", ["1000001", "1000000000000"])
def test_eval_max_terms_above_the_cap_is_refused_before_any_series(capsys, monkeypatch,
                                                                   max_terms):
    # a budget of 10^12 terms would let a series that never meets its tolerance run for days
    from thetasep import cli
    monkeypatch.setattr(cli, "_EVAL_FUNCTIONS", {"theta": (None, True)})
    code, out, err = run(capsys, ["eval", "theta", "--q", "-0.999999999", "--z", "1",
                                  "--max-terms", max_terms])
    assert code == 2 and out == ""
    assert err == f"error: --max-terms must be at most 1000000, got {max_terms}\n"


def test_eval_near_the_unit_circle_ends_within_the_default_budget(capsys):
    # the tail rule takes any term ratio below 1: 8057 terms, not the 693 147 after which the
    # ratio |q|^n falls below 1/2
    code, out, err = run(capsys, ["eval", "theta", "--q", "-0.999999", "--z", "1",
                                  "--format", "json"])
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["terms_used"] == 8057 and results["tail_bound"] <= 1e-12


def test_eval_max_terms_at_the_cap_is_accepted(capsys):
    code, out, err = run(capsys, ["eval", "theta", "--q", "0.5", "--z", "1",
                                  "--max-terms", "1000000", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["terms_used"] < 100


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def test_zeros_outside_the_region_warns_in_one_line_and_in_the_record(capsys):
    # a Python warning would also print its source line (and fail here: UserWarning is an error)
    code, out, err = run(capsys, ["zeros", "--q", "0.3", "--kmax", "2", "--format", "json"])
    message = ("q = (0.3+0j) is outside both the left half-disk of radius 0.6 and the disk "
               "|q| <= 0.2078750206; separation is not guaranteed there")
    assert code == 0
    assert err == f"warning: {message}\n"
    assert json.loads(out)["results"]["warnings"] == [message]


def test_zeros_separation_inside_055(capsys):
    code, out, _ = run(capsys, ["zeros", "--q", "0.55i", "--kmax", "6",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["results"]["strongly_separated"] is True
    assert all(payload["results"]["k"][str(k)]["count"] == 1 for k in range(1, 7))


def test_zeros_at_06_reports_combined_count(capsys):
    code, out, _ = run(capsys, ["zeros", "--q", "0.6@135deg", "--kmax", "6",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["combined_count_3half_7half"] == 2


def test_zeros_small_q_all_annuli(capsys):
    code, out, _ = run(capsys, ["zeros", "--q", "0.1", "--kmax", "4",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    for k in range(1, 5):
        entry = payload["results"]["k"][str(k)]
        assert entry["count"] == 1 and entry["annulus_ok"] is True


@pytest.mark.parametrize("q", ["1e-100", "1e-160"])
def test_zeros_seed_beyond_the_float_range_exits_3_per_k(capsys, q):
    # the first k whose circle leaves the float range carries one error for k..kmax
    past = {"1e-100": 3, "1e-160": 2}[q]
    code, out, err = run(capsys, ["zeros", "--q", q, "--kmax", "4", "--format", "json"])
    assert code == 3 and err == ""
    entries = json.loads(out)["results"]["k"]
    assert entries[str(past)] == {"count": None, "error": f"contour |z| = |q|^-{past + 0.5}: the "
                                                          "radius leaves the float range for "
                                                          f"k = {past}..4"}
    assert all(entries[str(k)] == {"count": None} for k in range(past + 1, 5))


@pytest.mark.parametrize("q, kmax, most, last", [("-0.3", "100000000", 1388, 589),
                                                 ("-0.3", "1389", 1388, 589),
                                                 ("0.7", "1990", 1989, 1989)])
def test_zeros_kmax_past_the_float_range_exits_2_at_once(capsys, monkeypatch, q, kmax, most,
                                                         last):
    # no contour work starts: every |q| <= 0.6 has lost its circles to overflow past k = 1388
    from thetasep import zeros
    monkeypatch.setattr(zeros, "verify_separation", None)
    code, out, err = run(capsys, ["zeros", "--q", q, "--kmax", kmax])
    assert code == 2 and out == ""
    assert err == (f"error: --kmax must be at most {most}, got {kmax}: the circle "
                   f"|z| = |q|^-(k+1/2) is a finite float up to k = {last} at |q| = "
                   f"{abs(complex(q)):g}\n")


def test_zeros_kmax_at_the_bound_is_accepted(capsys, monkeypatch):
    from thetasep import cli, zeros
    seen = []
    monkeypatch.setattr(zeros, "verify_separation", lambda q, k_max, **kw: seen.append(k_max)
                        or zeros.SeparationReport(q=q.value, k_max=k_max))
    run(capsys, ["zeros", "--q", "-0.3", "--kmax", "1388"])
    assert seen == [1388]
    assert 0.6 ** -(1388.5) < math.inf and cli._last_finite_circle(0.6) == 1388
    with pytest.raises(OverflowError):
        0.6 ** -(1389.5)


def test_zeros_to_k700_counts_every_finite_circle(capsys):
    # the circle of k = 590 is the first whose radius |q|^-(k+1/2) leaves the float range
    code, out, err = run(capsys, ["zeros", "--q", "-0.3", "--kmax", "700", "--format", "json"])
    assert code == 3 and err == ""
    ks = json.loads(out)["results"]["k"]
    assert all(ks[str(k)]["count"] == 1 and ks[str(k)]["annulus_ok"] for k in range(1, 590))
    assert all(ks[str(k)]["count"] is None for k in range(590, 701))
    notes = [k for k in range(1, 701) if "error" in ks[str(k)]]
    assert notes == [590]
    assert ks["590"]["error"].endswith("the radius leaves the float range for k = 590..700")


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["zeros", "--q", "-0.3", "--kmax", "3"],
    ["scan", "--a", "0.3", "--k", "1", "--steps", "2x2"],
])
def test_residual_tolerance_outside_the_positive_reals_exits_2(capsys, argv, tol):
    code, out, err = run(capsys, argv + ["--residual-tol", tol])
    assert code == 2 and out == ""
    assert err.startswith("error: residual tolerance") and err.count("\n") == 1


@pytest.mark.parametrize("argv, value", [
    (["zeros", "--q", "-0.3+0.3i", "--kmax", "2"], -0.3 + 0.3j),
    (["zeros", "--q", "-1e-10", "--kmax", "2"], -1e-10),
    (["zeros", "--kmax", "2", "--q", "-0.3-0.3i"], -0.3 - 0.3j),
    (["eval", "theta", "--q", "-0.2-0.1i", "--z", "-1e-3-2i"], -0.2 - 0.1j),
])
def test_negative_complex_values_follow_q_and_z(capsys, argv, value):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["inputs"]["q"] == {"re": value.real, "im": value.imag}
    if payload["command"] == "eval":
        assert payload["inputs"]["z"] == {"re": -1e-3, "im": -2.0}


@pytest.mark.parametrize("argv", [["zeros", "--q", "--kmax", "2"], ["zeros", "--q"]])
def test_a_word_that_is_no_complex_number_stays_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "argument --q: expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_k4_passes_with_expected_margin(capsys):
    code, out, _ = run(capsys, ["verify", "--lemma", "k4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    margin = payload["results"]["margins"]["product_exceeds_tail"]
    assert abs(margin - 0.0079055467) <= 1e-8


def test_verify_AB_passes(capsys):
    assert run(capsys, ["verify", "--lemma", "AB"])[0] == 0


def test_verify_Q_fails_with_report(capsys):
    code, out, _ = run(capsys, ["verify", "--lemma", "Q", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["results"]["margins"]["Q0_boundary_min"] < 0


@pytest.mark.parametrize("argv", [["--z-steps", "-5"], ["--z-steps", "0"],
                                  ["--modulus-steps", "0"], ["--argument-steps", "-1"],
                                  ["--samples", "1"]])
def test_verify_rejects_bad_step_flags(capsys, argv):
    code, out, err = run(capsys, ["verify", "--lemma", "k1", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_refuses_huge_step_flags_before_building_a_grid(capsys, monkeypatch):
    # refused in cmd_verify: no lemma check, and so no allocation, is reached
    from thetasep import lemmas
    monkeypatch.setattr(lemmas, "verify_lemma_k1", None)
    for flag in ("--z-steps", "--modulus-steps", "--argument-steps"):
        code, out, err = run(capsys, ["verify", "--lemma", "k1", flag, "1000000000000"])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} must lie in [1, ") and err.count("\n") == 1


@pytest.mark.parametrize("lemma, flag, value, least, most", [
    ("mu", "--samples", "1000000000000", 2, 1_000_000),
    ("mu", "--samples", "-3", 2, 1_000_000),
    ("k1", "--samples", "1000001", 2, 1_000_000),
    ("AB", "--grid-points", "100000000000", 1000, 1_000_000),
    ("AB", "--grid-points", "999", 1000, 1_000_000),
])
def test_verify_refuses_sample_flags_out_of_range_before_any_array(capsys, monkeypatch,
                                                                   lemma, flag, value,
                                                                   least, most):
    # refused in cmd_verify: no check, and so no sample array, is reached
    from thetasep import lemmas
    for check in ("mu_properties_check", "verify_AB_monotone", "verify_lemma_k1"):
        monkeypatch.setattr(lemmas, check, None)
    code, out, err = run(capsys, ["verify", "--lemma", lemma, flag, value])
    assert code == 2 and out == ""
    assert err == f"error: {flag} must lie in [{least}, {most}], got {value}\n"


@pytest.mark.parametrize("lemma, argv, grid", [
    ("k1", ["--modulus-steps", "10000", "--argument-steps", "10000"], "k1 grid of 10000 x 10000"),
    ("k2", ["--modulus-steps", "2001", "--argument-steps", "2000"], "k2 grid of 2001 x 2000"),
    ("Q", ["--modulus-steps", "2001"], "Q grid of 2001 x 2000"),
    ("all", ["--argument-steps", "2001"], "Q grid of 2000 x 2001"),
])
def test_verify_refuses_a_grid_above_the_node_cap_before_building_it(capsys, monkeypatch,
                                                                      lemma, argv, grid):
    # each flag lies within its own bound; the product is refused before any GridSpec
    from thetasep import cli, lemmas
    monkeypatch.setattr(lemmas, "GridSpec", None)
    code, out, err = run(capsys, ["verify", "--lemma", lemma, *argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: the {grid} nodes") and err.count("\n") == 1
    assert str(cli.MAX_VERIFY_GRID_NODES) in err


def test_verify_node_cap_admits_every_default_grid(capsys, monkeypatch):
    # Q's default 2000 x 2000 is the cap; a larger product on another check's grid passes
    from thetasep import cli, lemmas
    assert cli.MAX_VERIFY_GRID_NODES == 2000 * 2000
    grids = []

    def stub(grid, **kwargs):
        grids.append((grid.modulus_steps, grid.argument_steps))
        return lemmas.VerificationReport.build("Q", {}, {"stub": 1.0}, grid)

    monkeypatch.setattr(lemmas, "verify_lemma_Q", stub)
    assert run(capsys, ["verify", "--lemma", "Q"])[0] == 0
    assert run(capsys, ["verify", "--lemma", "Q", "--modulus-steps", "2000",
                        "--argument-steps", "2000"])[0] == 0
    monkeypatch.setattr(lemmas, "verify_lemma_k1", stub)
    assert run(capsys, ["verify", "--lemma", "k1", "--modulus-steps", "10000"])[0] == 0
    assert grids == [(2000, 2000), (2000, 2000), (10000, 80)]


def _exhaustive_grid_minimum(grid, z_steps, max_power, values):
    """(min, rho, omega, psi) of values(rho, omegas, basis) over every grid node."""
    psis = np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False)
    omegas = grid.arguments()
    basis = np.exp(1j * np.outer(np.arange(max_power + 1), psis))
    best = (math.inf,)
    for rho in map(float, grid.moduli()):
        vals = values(rho, omegas, basis)
        i, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[i, k] < best[0]:
            best = (float(vals[i, k]), rho, float(omegas[i]), float(psis[k]))
    return best


def test_verify_small_grids_give_the_exhaustive_minima(capsys):
    from thetasep.lemmas import C0, GridSpec, _theta_dagger_terms, recompute_constant
    small = ["--z-steps", "7", "--modulus-steps", "5", "--argument-steps", "3", "--format", "json"]

    def _circle_sum(rho, omegas, z_modulus, powers, q_exponents, basis):
        # one modulus row's coefficients, built on their own, times the powers e^{i p psi}
        rows = coefficients(np.array([rho]), [z_modulus], powers, q_exponents, omegas)[0]
        return rows[0] @ basis[powers]

    def theta_dagger(rho, omegas, basis):
        j = np.arange(_theta_dagger_terms(rho)[0])
        return np.abs(_circle_sum(rho, omegas, rho ** -0.5, j, j * (j - 1) / 2, basis))

    grid = GridSpec((C0, 0.6), 5, (math.pi / 2, math.pi), 3)
    n_max = max(_theta_dagger_terms(float(rho))[0] for rho in grid.moduli())
    code, out, _ = run(capsys, ["verify", "--lemma", "k1", *small])
    computed = json.loads(out)["results"]["computed"]
    assert code == 0
    assert (computed["direct.min_abs"], computed["direct.at_modulus"],
            computed["direct.at_q_argument"], computed["direct.at_z_argument"]) \
        == _exhaustive_grid_minimum(grid, 7, n_max - 1, theta_dagger)

    tail = recompute_constant("a_tail_bound")

    def dominance(rho, omegas, basis):
        xi = rho ** -1.5
        b = _circle_sum(rho, omegas, xi, [0, 1, 2], [0, 1, 3], basis)
        a = _circle_sum(rho, omegas, xi, [0, 4, 5, 6, 7], [0, 6, 10, 15, 21], basis)
        return xi * np.abs(b) - np.abs(a) - tail

    grid = GridSpec((0.55, 0.6), 5, (math.pi / 2, 2 * math.pi / 3), 3)
    code, out, _ = run(capsys, ["verify", "--lemma", "k2", *small])
    computed = json.loads(out)["results"]["computed"]
    assert code == 0
    assert (computed["grid_min_margin"], computed["at_modulus"], computed["at_q_argument"],
            computed["at_xi_argument"]) == _exhaustive_grid_minimum(grid, 128, 7, dominance)


def test_verify_k1_honours_samples(capsys):
    code, out, _ = run(capsys, ["verify", "--lemma", "k1", "--samples", "400",
                                "--format", "json"])
    assert code == 0
    computed = json.loads(out)["results"]["computed"]
    expected = verify_lemma_k1_cases(samples=400).computed["pinch_grid_modulus"]
    assert computed["cases.pinch_grid_modulus"] == expected == 0.34349719392631584


def test_verify_all_aggregates(capsys):
    code, out, _ = run(capsys, ["verify", "--lemma", "all", "--format", "json",
                                "--modulus-steps", "400", "--argument-steps", "400",
                                "--z-steps", "240", "--samples", "400",
                                "--grid-points", "1000"])
    assert code == 1   # the boundary-product floor fails; everything else passes
    payload = json.loads(out)
    assert payload["pass"] is False
    for name, rep in payload["results"].items():
        if name == "Q":
            assert rep["passed"] is False
        else:
            assert rep["passed"] is True, name


def test_verify_all_samples_rule_matches_library(capsys):
    # mu needs at least 100 samples; the CLI and verify_all apply the same rule
    code, out, err = run(capsys, ["verify", "--lemma", "all", "--samples", "50",
                                  "--format", "json"])
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    reports = verify_all(samples=50)
    assert sorted(results) == sorted(reports)
    for name, rep in reports.items():
        assert results[name]["passed"] is rep.passed, name
        assert results[name]["margins"] == rep.margins, name
    assert results["mu"]["computed"]["samples"] == 100.0


def test_zeros_small_q_to_k40(capsys):
    # terms near the 40th zero reach 1e780: summed with a carried exponent
    code, out, err = run(capsys, ["zeros", "--q", "0.1", "--kmax", "40", "--format", "json"])
    assert code == 0
    assert err == ""
    results = json.loads(out)["results"]
    assert results["strongly_separated"] is True
    assert all(entry["count"] == 1 and entry["annulus_ok"] for entry in results["k"].values())


# ---------------------------------------------------------------------------
# scan / table
# ---------------------------------------------------------------------------

def test_scan_small_grid(capsys):
    code, out, _ = run(capsys, ["scan", "--a", "0.3", "--k", "1", "--steps", "4x5",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["cells"] == 20
    assert payload["results"]["all_separated"] is True


def test_scan_cells_past_the_float_range_name_the_radius(capsys):
    code, out, _ = run(capsys, ["scan", "--a", "0.6", "--k", "3000", "--steps", "2x2",
                                "--format", "json"])
    assert code == 3
    rows = json.loads(out)["results"]["rows"]
    assert [row["error"] for row in rows] == ["the radius |q|^-3000.5 leaves the float range"] * 4


def test_scan_rejects_bad_steps(capsys):
    assert run(capsys, ["scan", "--a", "0.3", "--k", "1", "--steps", "4by5"])[0] == 2
    assert run(capsys, ["scan", "--a", "0.9", "--k", "1"])[0] == 2


@pytest.mark.parametrize("steps", ["10000000000000x1", "1x10000000000000", "2001x2000"])
def test_scan_refuses_more_cells_than_the_node_cap_before_any_array(capsys, monkeypatch, steps):
    from thetasep import cli
    monkeypatch.setattr(np, "linspace", None)
    monkeypatch.setattr(cli, "_scan_cell", None)
    code, out, err = run(capsys, ["scan", "--a", "0.5", "--k", "1", "--steps", steps])
    n_mod, n_arg = steps.split("x")
    assert code == 2 and out == ""
    assert err == f"error: --steps {n_mod} x {n_arg} cells exceeds {cli.MAX_VERIFY_GRID_NODES}\n"


def test_scan_node_cap_admits_its_edge(capsys, monkeypatch):
    from thetasep import cli

    def reached(*args):
        raise cli.DomainError("first cell reached")

    monkeypatch.setattr(cli, "_scan_cell", reached)
    code, _, err = run(capsys, ["scan", "--a", "0.5", "--k", "1", "--steps", "2000x2000"])
    assert code == 2 and err == "error: first cell reached\n"


def test_table_matches_reference_rows(capsys):
    code, out, _ = run(capsys, ["table", "--n", "5,9,30", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [r["tau_trunc"] for r in rows] == [0.27, 0.59, 0.87]
    assert [r["m_trunc"] for r in rows] == [336.2, 80.2, 44.7]
    assert [r["M_trunc"] for r in rows] == [1225.1, 134.4, 50.9]


def test_table_domain_error_exit_2(capsys):
    code, _, err = run(capsys, ["table", "--n", "3"])
    assert code == 2
    assert "tau" in err


def test_table_csv_output(capsys):
    code, out, _ = run(capsys, ["table", "--n", "5", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,tau,m,M")
    assert lines[1].startswith("5,")


# ---------------------------------------------------------------------------
# determinism / round-trip
# ---------------------------------------------------------------------------

def test_json_output_byte_identical(capsys):
    argv = ["eval", "theta", "--q", "0.3+0.3i", "--z", "2", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, ["zeros", "--q", "0.2i", "--kmax", "2", "--format", "json"])
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_timing_opt_in(capsys):
    argv = ["table", "--n", "5", "--format", "json"]
    _, without, _ = run(capsys, argv)
    _, with_timing, _ = run(capsys, argv + ["--timing"])
    assert "timing_ms" not in json.loads(without)
    assert "timing_ms" in json.loads(with_timing)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code, out, _ = run(capsys, ["table", "--n", "5", "--format", "json",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "table"


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_out_path_that_cannot_be_written_is_refused(tmp_path, capsys, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "record.json"
    code, out, err = run(capsys, ["eval", "theta", "--q", "0.3", "--z", "2",
                                  "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_main_builds_its_parser_once(capsys, monkeypatch):
    from thetasep import cli
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        argv = ["table", "--n", "5", "--format", "json"]
        first = run(capsys, argv)
        with pytest.raises(SystemExit):  # a refused argv leaves the parser as it was
            main(["table", "--no-such-flag"])
        assert run(capsys, ["table", "--n", "3"])[0] == 2
        assert run(capsys, argv) == first and first[0] == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_lemma_choices_are_the_battery_checks_and_all():
    from thetasep import cli, lemmas
    verify = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
    lemma = next(action for action in verify._actions if action.dest == "lemma")
    assert lemma.choices == (*lemmas.BATTERY, "all")


# ---------------------------------------------------------------------------
# any argv: an exit code and at most one error line, never a traceback
# ---------------------------------------------------------------------------

def _flag(name, values):
    """Absent, or `name` with a value drawn from `values`, a list or a strategy."""
    values = st.sampled_from(values) if isinstance(values, list) else values
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _size(least, most, refused):
    """A tiny count, or one the command refuses: no drawn size runs for long."""
    return st.one_of(st.integers(least, most), st.sampled_from(refused))


_Q = ["0.3", "-0.3+0.3i", "0.55@120deg", "-0.6", "0.2i", "1e-300", "-0.999999999", "0", "1.5",
      "abc", "nan"]
_TOLERANCES = [1e-10, 1e-3, 0, -1, "nan"]
_COMMANDS = {
    "eval": st.tuples(st.sampled_from(["theta", "theta_dagger", "theta_star", "G", "Q", "U", "R",
                                       "theta_prime"]).map(lambda f: [f]),
                      _flag("--q", _Q), _flag("--z", ["2", "-1.5+0.5i", "0", "1e300", "x"]),
                      _flag("--tol", _TOLERANCES),
                      _flag("--max-terms", [2, 3, 40, 0, -1, 1_000_001, 10 ** 12])),
    "zeros": st.tuples(_flag("--q", _Q), _flag("--kmax", _size(1, 3, [0, -1, 10 ** 13])),
                       _flag("--residual-tol", _TOLERANCES)),
    "verify": st.tuples(
        _flag("--lemma", ["constants", "mu", "AB", "Q", "k5", "k4", "k1", "k2", "all", "k3"]),
        _flag("--modulus-steps", _size(1, 4, [0, 10_001, 10 ** 13])),
        _flag("--argument-steps", _size(1, 4, [0, 10_001, 10 ** 13])),
        _flag("--z-steps", _size(1, 8, [0, 100_001, 10 ** 13])),
        _flag("--samples", _size(2, 150, [1, -5, 10 ** 13])),
        _flag("--grid-points", _size(1000, 1100, [999, 10 ** 13]))),
    "scan": st.tuples(_flag("--a", [0.3, 0.05, 1e-300, 0.6, 0, -1, 0.7, "nan"]),
                      _flag("--k", [1, 2, 3, 0, -1, 10 ** 6]),
                      _flag("--steps", ["1x1", "2x1", "1x2", "2x2", "10000000000000x1",
                                        "1x10000000000000", "0x3", "4by5", "-1x2"]),
                      _flag("--residual-tol", _TOLERANCES)),
    "table": st.tuples(_flag("--n", ["5", "5,9", "4", "3", "1000000000", "", "abc", "5,,6"])),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data(),
       fmt=_flag("--format", ["human", "json", "csv"]), timing=st.booleans(),
       out=st.sampled_from([None, "file", "directory", "missing directory"]))
def test_any_argv_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path, capsys, command,
                                                                   data, fmt, timing, out):
    parts = data.draw(_COMMANDS[command])
    argv = [command, *(word for part in parts for word in part), *fmt, *["--timing"][:timing]]
    target = {None: None, "file": tmp_path / "out.txt", "directory": tmp_path,
              "missing directory": tmp_path / "missing" / "out.txt"}[out]
    if target is not None:
        argv += ["--out", str(target)]
    if out == "file":
        target.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the words, with exit 2
        code = exc.code
    stdout, err = capsys.readouterr()
    record = bool(stdout) or (out == "file" and target.exists())
    errors = sum("error:" in line for line in err.splitlines())
    assert "Traceback" not in err
    assert code in (0, 1, 2, 3)
    if code == 1:  # a verdict: a failed check or a cell that is not separated
        assert command in ("verify", "scan") and record
    if code == 3 and command in ("zeros", "scan") and record:
        assert errors == 0  # a report whose entries name the numerical errors
    elif code in (2, 3):
        assert errors == 1 and not record, err
    else:
        assert errors == 0 and record


# ---------------------------------------------------------------------------
# scan memory cap and start-up imports
# ---------------------------------------------------------------------------

def _largest_accepted_z_steps(check, n_mod, n_arg):
    """The largest z-steps whose scan estimate stays within the cap, found by bisection."""
    from thetasep import cli, lemmas
    low, high = 1, cli.MAX_VERIFY_STEPS["z_steps"]
    while low < high:
        mid = (low + high + 1) // 2
        if lemmas.scan_bytes(check, n_mod, n_arg, mid) <= cli.MAX_VERIFY_SCAN_BYTES:
            low = mid
        else:
            high = mid - 1
    return low


@pytest.mark.parametrize("check, n_mod, n_arg", [("k1", 80, 2000), ("k2", 60, 4000)])
def test_verify_scan_byte_cap_admits_its_edge_and_refuses_one_step_more(capsys, monkeypatch,
                                                                        check, n_mod, n_arg):
    from thetasep import cli, lemmas
    z_steps = _largest_accepted_z_steps(check, n_mod, n_arg)
    assert 1 < z_steps < cli.MAX_VERIFY_STEPS["z_steps"]
    stub = lambda grid, **kwargs: lemmas.VerificationReport.build(check, {}, {"stub": 1.0}, grid)
    monkeypatch.setattr(lemmas, f"verify_lemma_{check}", stub)
    argv = ["verify", "--lemma", check, "--argument-steps", str(n_arg)]
    assert run(capsys, argv + ["--z-steps", str(z_steps)])[0] == 0
    # one step more is refused before any grid is built
    monkeypatch.setattr(lemmas, "GridSpec", None)
    code, out, err = run(capsys, argv + ["--z-steps", str(z_steps + 1)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: the {check} scan of {n_mod} x {n_arg} nodes and "
                          f"{z_steps + 1} z-steps would hold about ") and err.count("\n") == 1


@pytest.mark.parametrize("lemma, argv, accepted", [
    ("k1", ["--argument-steps", "400", "--z-steps", "20000"], True),  # 115 MB est., 49 MB growth
    ("k1", ["--argument-steps", "800", "--z-steps", "20000"], True),  # 210 MB est., 92 MB growth
    ("all", ["--argument-steps", "2000", "--z-steps", "100000"], False),
    ("k1", ["--modulus-steps", "2000", "--argument-steps", "2000"], False),  # 311 MB est.
    ("k2", ["--modulus-steps", "2000", "--argument-steps", "2000"], False),
    ("k2", ["--modulus-steps", "1000", "--argument-steps", "1000"], True),
])
def test_verify_scan_byte_cap_on_measured_requests(capsys, monkeypatch, lemma, argv, accepted):
    from thetasep import lemmas
    for check in ("k1", "k2"):  # accepted requests reach a stub; refused ones reach nothing
        monkeypatch.setattr(lemmas, f"verify_lemma_{check}", lambda grid, **kwargs:
                            lemmas.VerificationReport.build("stub", {}, {"stub": 1.0}, grid))
    code, out, err = run(capsys, ["verify", "--lemma", lemma, *argv])
    if accepted:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == "" and err.endswith("MB, more than 256 MB\n")


def _scan_growth(check, n_mod, n_arg, z_steps, tail=None):
    """ru_maxrss growth of one k1 or k2 scan in a fresh process, after a small scan has loaded
    BLAS; with `tail` the scan's tail is raised to it, so that pruning keeps every node live.
    The process is started by a small one, as a process's ru_maxrss starts at its parent's."""
    import subprocess
    import sys
    from pathlib import Path
    import thetasep
    script = ("import resource\n"
              "from thetasep import lemmas\n"
              f"check, tail, battery = {check!r}, {tail!r}, lemmas.BATTERY[{check!r}]\n"
              "run = lemmas.verify_lemma_k1_direct if check == 'k1' else lemmas.verify_lemma_k2\n"
              "if tail is not None:\n"
              "    scan_min = lemmas._scan_min\n"
              "    lemmas._scan_min = lambda g, z, scan: scan_min(g, z, scan._replace(tail=tail))\n"
              "run(battery.grid(12, 12), 97)\n"
              f"grid = battery.grid({n_mod}, {n_arg})\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              f"run(grid, battery.circle({z_steps}))\n"
              "print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))\n")
    src = str(Path(thetasep.__file__).resolve().parent.parent)
    spawn = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]])"
    proc = subprocess.run([sys.executable, "-c", spawn, script], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}, check=True,
                          timeout=120)
    return int(proc.stdout)


def test_scan_bytes_bound_the_measured_memory_of_a_scan():
    # one k1 scan at 400 x 400 x 90: the growth of its peak resident size stays within the
    # estimate the cap reads
    from thetasep import lemmas
    assert 0 < _scan_growth("k1", 400, 400, 90) <= lemmas.scan_bytes("k1", 400, 400, 90)


@pytest.mark.parametrize("shape, tail", [((1850, 1850, 20), None), ((80, 800, 5000), 1e6)])
def test_scan_bytes_bound_a_scan_at_the_cap_edge_and_one_with_every_node_live(shape, tail):
    # few z-steps on the largest grid the cap admits, where the per-node bytes dominate; and a
    # scan whose pruning is switched off, where every window of stage 2 is live
    from thetasep import cli, lemmas
    estimate = lemmas.scan_bytes("k1", *shape)
    if tail is None:
        assert estimate <= cli.MAX_VERIFY_SCAN_BYTES < lemmas.scan_bytes("k1", 1860, 1860, 20)
    assert 0 < _scan_growth("k1", *shape, tail=tail) <= estimate


@pytest.mark.parametrize("argv, loaded, absent", [
    (["eval", "theta", "--q", "0.3", "--z", "2"], {"thetasep.core"},
     {"numpy", "thetasep.zeros", "thetasep.lemmas"}),
    (["table", "--n", "5"], {"thetasep.asymptotics"},
     {"numpy", "thetasep.zeros", "thetasep.lemmas"}),
    (["zeros", "--q", "-0.3", "--kmax", "2"], {"numpy", "thetasep.zeros"}, {"thetasep.lemmas"}),
    (["verify", "--lemma", "k5"], {"numpy", "thetasep.lemmas"}, {"thetasep.zeros"}),
])
def test_commands_load_only_the_modules_they_use(argv, loaded, absent):
    import subprocess
    import sys
    from pathlib import Path
    import thetasep
    script = ("import sys\n"
              "from thetasep import cli\n"
              f"code = cli.main({argv!r} + ['--out', sys.argv[1]])\n"
              "print(*(m for m in sys.modules if m == 'numpy' or m.startswith('thetasep')))\n"
              "sys.exit(code)\n")
    src = str(Path(thetasep.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script, "/dev/null"], capture_output=True,
                          text=True, env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
                          check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert loaded <= modules and not modules & absent


def test_import_thetasep_loads_neither_numpy_nor_the_heavy_modules_until_asked():
    import subprocess
    import sys
    from pathlib import Path
    import thetasep
    script = ("import sys, thetasep\n"
              "before = {'numpy', 'thetasep.zeros', 'thetasep.lemmas'} & set(sys.modules)\n"
              "thetasep.locate_zero, thetasep.verify_lemma_k4, thetasep.zeros\n"
              "after = {'numpy', 'thetasep.zeros', 'thetasep.lemmas'} - set(sys.modules)\n"
              "print(sorted(before), sorted(after))\n")
    src = str(Path(thetasep.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}, check=True,
                          timeout=120)
    assert proc.stdout.split() == ["[]", "[]"]
    with pytest.raises(AttributeError):
        thetasep.no_such_name


def test_python_m_thetasep_runs_the_cli_from_a_checkout():
    import subprocess
    import sys
    from pathlib import Path
    import thetasep
    src = str(Path(thetasep.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "thetasep", "eval", "theta", "--q", "0.5",
                           "--z", "0", "--format", "json"], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}, check=False,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["value"] == {"re": 1.0, "im": 0.0}
    proc = subprocess.run([sys.executable, "-m", "thetasep", "scan", "--a", "0.9", "--k", "1"],
                          capture_output=True, text=True, env={"PYTHONPATH": src},
                          check=False, timeout=120)
    assert proc.returncode == 2 and proc.stderr.startswith("error: region radius")


def _readme_cli_lines():
    """The commands of README's `## CLI` block, each as an argv without the program name."""
    import shlex
    from pathlib import Path
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("thetasep ")]


def test_readme_cli_lines_run(tmp_path, capsys, monkeypatch):
    # every example of README's CLI block: exit 0, except `verify --lemma all` (1, from Q's
    # documented false floor); JSON output parses, and nothing prints a traceback
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 9
    for argv in lines:
        code, out, err = run(capsys, argv)
        assert code == (1 if argv[:3] == ["verify", "--lemma", "all"] else 0), (argv, err)
        if "--out" in argv:
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        assert out and "Traceback" not in out + err, argv
        if "json" in argv:
            assert json.loads(out)["command"] == argv[0]

import cmath
import json
import math

import pytest

from thetasep.cli import main, parse_complex
from thetasep.errors import DomainError
from thetasep.lemmas import verify_all, verify_lemma_k1_cases


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


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

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


def test_scan_rejects_bad_steps(capsys):
    assert run(capsys, ["scan", "--a", "0.3", "--k", "1", "--steps", "4by5"])[0] == 2
    assert run(capsys, ["scan", "--a", "0.9", "--k", "1"])[0] == 2


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

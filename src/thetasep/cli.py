"""Command-line surface: evaluation, zero location, verification, scans, tables.

Exit codes: 0 success / all checks passed, 1 a verification margin failed,
2 malformed input or domain violation, 3 numerical-reliability error
(contour too close to a zero, unresolved phase, Newton failure, a value
beyond the float range).

Output formats: human (default), json (deterministic: keys sorted, timing
omitted unless --timing is given), csv.  Complex numbers parse as Cartesian
`a+bi` or polar `r@THETAdeg`.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field

from .core import DEFAULT_BUDGET, QParameter, SeriesBudget
from .core import eval_G, eval_Q, eval_R, eval_U
from .core import eval_theta, eval_theta_dagger, eval_theta_star, ldexp_complex
from .errors import (
    BudgetExceeded,
    ContourTooClose,
    DomainError,
    NoConvergence,
    ThetaError,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

# Largest accepted `verify` step flags, refused before any grid is built.  Each alone keeps
# a check's largest arrays (a k1 row's products over arg q x arg z, and the coefficient
# matrices the k1 scan keeps for every modulus row) to a few hundred MB.
MAX_VERIFY_STEPS = {"modulus_steps": 10_000, "argument_steps": 10_000, "z_steps": 100_000}
# Accepted ranges of the `verify` sample flags, refused before any array is built: the
# least each check takes, and at the top a few hundred MB (mu keeps about 200 bytes a
# sample, AB about 100 a grid point).
VERIFY_SAMPLE_RANGES = {"samples": (2, 1_000_000), "grid_points": (1000, 1_000_000)}
# Largest accepted modulus x argument node count of a grid that a `verify` run scans, Q's
# default 2000 x 2000, and of the cells of a `scan`.
MAX_VERIFY_GRID_NODES = 2000 * 2000
# Largest accepted estimate of the bytes the k1 or k2 scan holds at once (lemmas.scan_bytes):
# the coefficients it keeps for every grid node, and one modulus row over arg q x arg z.
MAX_VERIFY_SCAN_BYTES = 256 * 2 ** 20
# Largest accepted `eval --max-terms`: about a second of series loop, within which theta(q, 1)
# meets its tail rule (term ratio |q^j| < 1/2) for |q| <= 1 - 7e-7 (693 147 terms at 1 - 1e-6).
MAX_EVAL_TERMS = 1_000_000


@dataclass
class OutputRecord:
    command: str
    inputs: dict
    results: dict
    ok: bool | None = None
    timing_ms: int = 0
    show_timing: bool = field(default=False, repr=False)

    def payload(self):
        out = {"command": self.command,
               "inputs": _jsonable(self.inputs),
               "results": _jsonable(self.results)}
        if self.ok is not None:
            out["pass"] = self.ok
        if self.show_timing:
            out["timing_ms"] = self.timing_ms
        return out


def parse_complex(text):
    """Cartesian 'a+bi' or polar 'r@THETAdeg'."""
    s = str(text).strip().replace(" ", "")
    if "@" in s:
        r_part, _, ang = s.partition("@")
        if not ang.endswith("deg"):
            raise DomainError(f"polar form must be r@THETAdeg, got {text!r}")
        try:
            return cmath.rect(float(r_part), math.radians(float(ang[:-3])))
        except ValueError:
            raise DomainError(f"cannot parse polar complex {text!r}") from None
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex number {text!r}") from None


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if type(obj).__module__ == "numpy":  # a numpy scalar; numpy itself need not be loaded
        return obj.item()
    return obj


def _fmt_value(v):
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _flatten(prefix, obj, into):
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        into[prefix] = f"{obj['re']:.12g}{obj['im']:+.12g}i"
    elif isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], into)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, into)
    elif isinstance(obj, (float, complex)):
        into[prefix] = _fmt_value(obj)
    else:
        into[prefix] = str(obj)


def render(record, fmt):
    payload = record.payload()
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows = record.results.get("rows")
        buf = io.StringIO()
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt_value(v) for k, v in row.items()})
        else:
            flat = {}
            _flatten("", payload, flat)
            writer = csv.writer(buf)
            writer.writerow(["key", "value"])
            for k in flat:
                writer.writerow([k, flat[k]])
        return buf.getvalue()
    # human
    flat = {}
    _flatten("", payload, flat)
    width = max((len(k) for k in flat), default=0)
    lines = [f"{k.ljust(width)}  {flat[k]}" for k in flat]
    return "\n".join(lines) + "\n"


def emit(record, args):
    text = render(record, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_EVAL_FUNCTIONS = {
    "theta": (eval_theta, True),
    "theta_dagger": (eval_theta_dagger, True),
    "theta_star": (eval_theta_star, True),
    "G": (eval_G, True),
    "Q": (eval_Q, False),
    "U": (eval_U, True),
    "R": (eval_R, True),
}


def cmd_eval(args):
    fn, needs_z = _EVAL_FUNCTIONS[args.function]
    q = QParameter(parse_complex(args.q))
    if args.max_terms > MAX_EVAL_TERMS:
        raise DomainError(f"--max-terms must be at most {MAX_EVAL_TERMS}, got {args.max_terms}")
    budget = SeriesBudget(args.tol, args.max_terms)
    inputs = {"function": args.function, "q": q.value, "tol": args.tol}
    if needs_z:
        if args.z is None:
            raise DomainError(f"eval {args.function} requires --z")
        z = parse_complex(args.z)
        inputs["z"] = z
        res = fn(q, z, budget)
    else:
        res = fn(q, budget)
    # ldexp raises OverflowError when the value leaves the float range
    value = ldexp_complex(res.value, res.exponent)
    results = {"value": value, "abs": abs(value),
               "tail_bound": math.ldexp(res.tail_bound, res.exponent),
               "terms_used": res.terms_used}
    return OutputRecord("eval", inputs, results), EXIT_OK


def _last_finite_circle(modulus):
    """The largest k whose circle |z| = modulus^-(k + 1/2) is a finite float, or 0."""
    k = int(math.log(sys.float_info.max) / -math.log(modulus))
    while k > 0:
        try:
            modulus ** -(k + 0.5)
            return k
        except OverflowError:
            k -= 1
    return 0


def cmd_zeros(args):
    from . import zeros

    q = QParameter(parse_complex(args.q))
    # No |q| <= 0.6 has a finite circle past k = 1388; the overflow notes of the indices a
    # given q loses to the float range before that (1e-100 from k = 3) stay in the report.
    if args.kmax > (most := _last_finite_circle(max(q.modulus, 0.6))):
        raise DomainError(
            f"--kmax must be at most {most}, got {args.kmax}: the circle |z| = |q|^-(k+1/2) "
            f"is a finite float up to k = {_last_finite_circle(q.modulus)} at |q| = "
            f"{q.modulus:g}")
    with warnings.catch_warnings():  # the report carries the warning: one line, no source line
        warnings.simplefilter("ignore", UserWarning)
        report = zeros.verify_separation(q, args.kmax, residual_tol=args.residual_tol,
                                         on_error="record")
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    per_k = {}
    for k in range(1, args.kmax + 1):
        rec = report.records.get(k)
        entry = {"count": report.counts.get(k)}
        if rec is not None:
            entry.update({"location": rec.location, "abs": abs(rec.location),
                          "residual": rec.residual, "annulus_ok": rec.annulus_ok,
                          "newton_iterations": rec.newton_iterations})
        if k in report.notes:
            entry["error"] = report.notes[k]
        per_k[str(k)] = entry
    results = {"k": per_k,
               "combined_count_3half_7half": report.combined_mid_count,
               "strongly_separated": report.strongly_separated,
               "warnings": report.warnings}
    record = OutputRecord("zeros", {"q": q.value, "kmax": args.kmax}, results,
                          ok=report.strongly_separated)
    return record, (EXIT_NUMERICAL if report.notes else EXIT_OK)


def _report_payload(rep):
    return {"passed": rep.passed,
            "worst_margin": min(rep.margins.values()) if rep.margins else None,
            "computed": rep.computed,
            "margins": rep.margins}


def cmd_verify(args):
    from . import lemmas

    ranges = {flag: (1, most) for flag, most in MAX_VERIFY_STEPS.items()} | VERIFY_SAMPLE_RANGES
    settings = {flag: value for flag in ranges if (value := getattr(args, flag)) is not None}
    for flag, value in settings.items():
        if not ranges[flag][0] <= value <= ranges[flag][1]:
            raise DomainError(f"--{flag.replace('_', '-')} must lie in "
                              f"[{ranges[flag][0]}, {ranges[flag][1]}], got {value}")
    check = None if args.lemma == "all" else args.lemma
    # every grid's size, refused before any grid is built
    nodes = {name: steps for name in (lemmas.BATTERY if check is None else [check])
             if (steps := lemmas.grid_steps(name, args.modulus_steps, args.argument_steps))}
    for name, (n_mod, n_arg) in nodes.items():
        if n_mod * n_arg > MAX_VERIFY_GRID_NODES:
            raise DomainError(
                f"the {name} grid of {n_mod} x {n_arg} nodes (--modulus-steps x "
                f"--argument-steps) exceeds {MAX_VERIFY_GRID_NODES}")
    zsteps = settings.get("z_steps", lemmas.DEFAULT_K1_Z_STEPS)
    for name in ("k1", "k2"):
        if name in nodes and (
                size := lemmas.scan_bytes(name, *nodes[name], zsteps)) > MAX_VERIFY_SCAN_BYTES:
            raise DomainError(
                f"the {name} scan of {nodes[name][0]} x {nodes[name][1]} nodes and {zsteps} "
                f"z-steps would hold about {size / 2 ** 20:.0f} MB, more than "
                f"{MAX_VERIFY_SCAN_BYTES // 2 ** 20} MB")
    reports = lemmas.verify_all(check=check, **settings)
    ok = all(rep.passed for rep in reports.values())
    results = {name: _report_payload(rep) for name, rep in reports.items()}
    results = results if check is None else results[check]
    record = OutputRecord("verify", {"lemma": args.lemma}, results, ok=ok)
    return record, (EXIT_OK if ok else EXIT_VERIFICATION_FAILED)


def _scan_cell(modulus, argument, k, residual_tol):
    from . import zeros

    q = QParameter.from_polar(modulus, argument)
    cell = {"modulus": modulus, "argument": argument}
    try:
        count = zeros.count_zeros_in_annulus(q, zeros.Annulus.for_index(k))
        rec = zeros.locate_zero(q, k, residual_tol=residual_tol)
        cell.update({"count": count, "location_re": rec.location.real,
                     "location_im": rec.location.imag, "residual": rec.residual,
                     "annulus_ok": rec.annulus_ok,
                     "separated": count == 1 and rec.annulus_ok})
    except (ContourTooClose, BudgetExceeded, NoConvergence, OverflowError) as exc:
        cell.update({"count": None, "separated": False, "error": str(exc)})
    return cell


def cmd_scan(args):
    import numpy as np

    from . import zeros

    if not 0.0 < args.a <= 0.6:
        raise DomainError(f"region radius must lie in (0, 0.6], got {args.a!r}")
    zeros.check_residual_tol(args.residual_tol)
    try:
        n_mod, n_arg = (int(part) for part in args.steps.lower().split("x"))
    except ValueError:
        raise DomainError(f"--steps must look like 20x20, got {args.steps!r}") from None
    if n_mod < 1 or n_arg < 1:
        raise DomainError("--steps counts must be >= 1")
    if n_mod * n_arg > MAX_VERIFY_GRID_NODES:
        raise DomainError(f"--steps {n_mod} x {n_arg} cells exceeds {MAX_VERIFY_GRID_NODES}")
    moduli = np.linspace(args.a / n_mod, args.a, n_mod)
    arguments = np.linspace(math.pi / 2, 3 * math.pi / 2, n_arg)
    rows = [_scan_cell(float(m), float(a), args.k, args.residual_tol)
            for m in moduli for a in arguments]
    ok = all(row.get("separated") for row in rows)
    had_errors = any("error" in row for row in rows)
    results = {"rows": rows, "cells": len(rows), "all_separated": ok}
    record = OutputRecord("scan", {"a": args.a, "k": args.k, "steps": args.steps},
                          results, ok=ok)
    if ok:
        return record, EXIT_OK
    return record, (EXIT_NUMERICAL if had_errors else EXIT_VERIFICATION_FAILED)


def cmd_table(args):
    from . import asymptotics

    if args.n:
        try:
            ns = [int(part) for part in args.n.split(",") if part.strip()]
        except ValueError:
            raise DomainError(f"--n must be a comma-separated integer list, got {args.n!r}") from None
    else:
        ns = list(asymptotics.DEFAULT_TABLE_INDICES)
    rows = []
    for n in ns:
        row = asymptotics.table_row(n)
        t2, m1, mm1 = row.truncated()
        rows.append({"n": row.n, "tau": row.tau, "m": row.m, "M": row.M,
                     "tau_trunc": t2, "m_trunc": m1, "M_trunc": mm1})
    results = {"rows": rows, "alpha0": asymptotics.alpha0(),
               "limit": math.exp(1.0 / asymptotics.alpha0())}
    return OutputRecord("table", {"n": ns}, results), EXIT_OK


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetasep",
        description="Partial theta function evaluation, zero separation, and "
                    "verification of its modulus-separation constants.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--timing", action="store_true",
                       help="include timing_ms in machine output")

    p_eval = sub.add_parser("eval", help="evaluate theta / theta_dagger / theta_star / G / Q / U / R")
    p_eval.add_argument("function", choices=sorted(_EVAL_FUNCTIONS))
    p_eval.add_argument("--q", required=True)
    p_eval.add_argument("--z", default=None)
    p_eval.add_argument("--tol", type=float, default=DEFAULT_BUDGET.tolerance)
    p_eval.add_argument("--max-terms", type=int, default=DEFAULT_BUDGET.max_terms)
    common(p_eval)
    p_eval.set_defaults(run=cmd_eval)

    p_zeros = sub.add_parser("zeros", help="count and locate zeros per annulus")
    p_zeros.add_argument("--q", required=True)
    p_zeros.add_argument("--kmax", type=int, default=6)
    p_zeros.add_argument("--residual-tol", type=float, default=1e-10)
    common(p_zeros)
    p_zeros.set_defaults(run=cmd_zeros)

    p_verify = sub.add_parser("verify", help="run the named verification suites")
    # the checks of lemmas.BATTERY, stated here so that parsing loads neither lemmas nor numpy
    p_verify.add_argument("--lemma", required=True,
                          choices=("constants", "mu", "AB", "Q", "k5", "k4", "k1", "k2", "all"))
    # an unset flag keeps lemmas.verify_all's default
    for flag in ("--modulus-steps", "--argument-steps", "--z-steps", "--samples",
                 "--grid-points"):
        p_verify.add_argument(flag, type=int, default=None)
    common(p_verify)
    p_verify.set_defaults(run=cmd_verify)

    p_scan = sub.add_parser("scan", help="separation scan of the left half-disk of radius a")
    p_scan.add_argument("--a", type=float, required=True)
    p_scan.add_argument("--k", type=int, required=True)
    p_scan.add_argument("--steps", default="20x20", help="modulus x argument cells, e.g. 20x20")
    p_scan.add_argument("--residual-tol", type=float, default=1e-10)
    common(p_scan)
    p_scan.set_defaults(run=cmd_scan)

    p_table = sub.add_parser("table", help="asymptotic annulus radii table")
    p_table.add_argument("--n", default=None, help="comma-separated indices, default 5..10,15,20,25,30")
    common(p_table)
    p_table.set_defaults(run=cmd_table)

    return parser


def _join_complex_values(argv):
    """argv with `--q VALUE` and `--z VALUE` joined as `--q=VALUE` where VALUE starts with '-'.

    argparse reads a word that starts with '-' as an option unless it looks
    like a plain negative number, so `--q -0.3+0.3i` or `--q -1e-10` would
    lose their value; a word is joined only if `parse_complex` accepts it.
    """
    words = list(argv)
    for i in reversed(range(1, len(words))):  # from the end, so a join moves no word still ahead
        if (words[i - 1] in ("--q", "--z") and words[i].startswith("-")
                and _parses_as_complex(words[i])):
            words[i - 1:i + 1] = [f"{words[i - 1]}={words[i]}"]
    return words


def _parses_as_complex(text):
    try:
        parse_complex(text)
    except DomainError:
        return False
    return True


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(_join_complex_values(sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    try:
        record, code = args.run(args)
    except (ContourTooClose, BudgetExceeded, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: overflow: a value leaves the float range ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    except ThetaError as exc:  # DomainError and ZeroArgument
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    record.timing_ms = int((time.perf_counter() - started) * 1000)
    record.show_timing = args.timing
    try:
        emit(record, args)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())

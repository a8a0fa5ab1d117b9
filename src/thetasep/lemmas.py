"""Recomputation of the named separation constants and the inequality battery.

Everything the zero-separation argument rests on is checked numerically
here: infinite products and series defining the constants, the sector chord
bounds mu_j and their triple compositions A_j / B_j, boundary and region
scans, and the case analysis that excludes zeros from the circles
|z| = |q|^{-k+1/2}.  Each check returns a `VerificationReport` whose margins
are the computed slack of every asserted inequality; a report passes iff
every margin is strictly positive.

The series and product constants are values of theta(q, z) = sum_{j>=0} q^{j(j+1)/2} z^j and
U(q, z) = prod_{j>=1} (1 + z q^j), from core's evaluators with a certified tail
(`core.eval_theta`, `core.eval_U`) under one budget: phi_flat(r) = theta(r, r^{1/2}), the
g-bounds 0.6^h theta(0.6, 0.6^h) (h = 9/2, 7/2), a0 = 1 + theta(0.6, 0.6^{3/2}), the A** tail
0.6^16 theta(0.6, 0.6^{11/2}), gamma = U(0.6, -0.6^11), xi = U(0.6, -0.6^{7/2}),
chi5 = U(0.6, -0.6^{23/2}) and eta = |U(0.6, -0.6^{-9/2})|.  phi_flat's array form sums the
terms of theta_dagger on |z| = r^{-1/2} from j = 2 to its proven count (`_theta_dagger_terms`).

Each named constant is one entry of `REFERENCE_CONSTANTS`, the only place its formula is
written.  The checks, and the entries built on others (the floors 1.2/gamma, 1.2 eta xi and
k4's chord product), read it through `recompute_constant`, which computes each value once
per process.

Grid-backed checks record the observed minimum and its location so the
resolution slack can be judged by the caller; they sample, they do not
certify.  The k1 and k2 circle scans sum a series sum_j c_j(q) z^j as matrix
products of the coefficients c_j(q) |z|^j with the powers e^{i j psi_k}.  Each
scan comes from a term table (`_term_scan`) and keeps per-|q| moduli and per-arg
q phases; a node's coefficients are formed only when a stage reads them.  k1
sums to the proven tail of theta_dagger and reports its bound.  Both scans
(`_scan_min`) return the exhaustive scan's minimum and location: complex64
passes at every S-th arg z, over a coarse (|q|, arg q) sub-grid and then the
nodes it leaves, with proven slope bounds in |q|, arg q and arg z and a
rounding allowance, rule out most windows of S arg z, the rest are evaluated
in float64, and only rows that can hold the minimum over every arg z in
complex128, in blocks whose rows round as their own modulus row's product.
The sampled checks use the array forms of `mu`, `A_j`, `B_j` and `phi_*`.

`BATTERY` defines the battery once, for `verify_all` and `thetasep verify`:
each check's grid, default steps and settings rules.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import C0, SeriesBudget, eval_theta, eval_U
from .errors import DomainError

# Two numbers are accepted as the same constant when they share at least the
# first 9 significant digits; references are printed to 10-11 digits, so a
# relative gap up to 5e-9 is attributable to reference truncation.
AGREEMENT_RTOL = 5e-9

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan grid in |q| and arg(q), endpoints included."""

    modulus_range: tuple
    modulus_steps: int
    argument_range: tuple
    argument_steps: int

    def __post_init__(self):
        if self.modulus_steps < 2 or self.argument_steps < 2:
            raise DomainError("grid steps must be >= 2")
        if not (self.modulus_range[0] <= self.modulus_range[1]
                and self.argument_range[0] <= self.argument_range[1]):
            raise DomainError("grid ranges must be ordered (lo, hi)")

    def moduli(self):
        return np.linspace(self.modulus_range[0], self.modulus_range[1], self.modulus_steps)

    def arguments(self):
        return np.linspace(self.argument_range[0], self.argument_range[1],
                           self.argument_steps)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check: computed values, inequality slacks, verdict."""

    lemma_id: str
    computed: dict
    margins: dict
    passed: bool
    grid: GridSpec | None = None

    @classmethod
    def build(cls, lemma_id, computed, margins, grid=None):
        passed = all(m > 0 for m in margins.values())
        return cls(lemma_id, dict(computed), dict(margins), passed, grid)


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------

# A battery check: run(s) runs it with the settings s (a _Run) of a battery run.  A grid-backed
# check also has grid(m, a), its grid of m x a steps, its default steps (m, a), and circle(z),
# the samples it takes on each circle in a run with z-steps z.
_Check = namedtuple("_Check", "run grid steps circle", defaults=(None, None, None))
_Run = namedtuple("_Run", "grid circle samples grid_points")

# The battery, in report order.  Q's segment starts one modulus step above 0; mu takes at
# least 100 samples; k2 samples its circles at half k1's z-steps, at least 128.
BATTERY = {
    "constants": _Check(lambda s: verify_constants()),
    "mu": _Check(lambda s: mu_properties_check(samples=max(s.samples, 100))),
    "AB": _Check(lambda s: verify_AB_monotone(grid_points=s.grid_points)),
    "Q": _Check(lambda s: verify_lemma_Q(grid=s.grid),
                lambda m, a: GridSpec((0.6 / m, 0.6), m, (math.pi / 2, math.pi), a), (2000, 2000)),
    "k5": _Check(lambda s: verify_lemma_k5()),
    "k4": _Check(lambda s: verify_lemma_k4()),
    "k1": _Check(lambda s: verify_lemma_k1(grid=s.grid, z_steps=s.circle, samples=s.samples),
                 lambda m, a: GridSpec((C0, 0.6), m, (math.pi / 2, math.pi), a), (80, 80),
                 lambda z: z),
    "k2": _Check(lambda s: verify_lemma_k2(grid=s.grid, z_steps=s.circle),
                 lambda m, a: GridSpec((0.55, 0.6), m, (math.pi / 2, 2 * math.pi / 3), a),
                 (60, 60), lambda z: max(128, z // 2)),
}
DEFAULT_K1_Z_STEPS = 720


def grid_steps(check, modulus_steps=None, argument_steps=None):
    """(modulus, argument) steps of `check`'s grid in a battery run, an unset one at its
    default; None without a grid.  It builds no grid, so a caller can bound the sizes first."""
    default = BATTERY[check].steps
    return default and (modulus_steps or default[0], argument_steps or default[1])


def _battery_grid(check, modulus_steps=None, argument_steps=None):
    """The GridSpec of `check` in a battery run (see `grid_steps`), None without a grid."""
    steps = grid_steps(check, modulus_steps, argument_steps)
    return steps and BATTERY[check].grid(*steps)


# ---------------------------------------------------------------------------
# Constants registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceConstant:
    name: str
    value: float
    definition: str
    recompute: object = field(default=None, repr=False, compare=False)  # () -> float


# Every series and product constant is a value of theta or U, summed to this budget: its
# certified tail is below 1e-18 (`core.eval_theta`, `core.eval_U`), far under an ulp.
_CONSTANT_BUDGET = SeriesBudget(tolerance=1e-18)


def _theta(q, z):
    """theta(q, z) = sum_{j>=0} q^{j(j+1)/2} z^j for real 0 < q, z < 1 (`core.eval_theta`)."""
    return eval_theta(q, z, _CONSTANT_BUDGET).value.real


def _U(z):
    """U(0.6, z) = prod_{j>=1} (1 + z 0.6^j) for real z (`core.eval_U`)."""
    return eval_U(0.6, z, _CONSTANT_BUDGET).value.real


def _span(x):  # (min, max) of a float or an array
    return (np.min(x), np.max(x)) if isinstance(x, np.ndarray) else (x, x)


def mu(j, m):
    """Chord lower bound sqrt(1 + m^2 - 2 m cos((j-1) pi/4)) for |1 - zeta|, |zeta| = m.

    Index j grades how far zeta is guaranteed to sit from the positive real
    axis: j = 1 assumes nothing (|1 - m|), j = 4 assumes arg(zeta) at least
    3pi/4 away.  An array m gives an array.
    """
    if j not in (1, 2, 3, 4):
        raise DomainError(f"j must be in 1..4, got {j!r}")
    if _span(m)[0] < 0:
        raise DomainError(f"m must be >= 0, got {m!r}")
    sqrt = np.sqrt if isinstance(m, np.ndarray) else math.sqrt
    return sqrt(1.0 + m * m - 2.0 * m * math.cos((j - 1) * math.pi / 4.0))


def A_j(rho, j):
    """Triple chord bound for three consecutive |1 + z q^k| factors, |zq^k| < 1.

    The moduli of the triple are rho^{3j-5/2} > rho^{3j-3/2} > rho^{3j-1/2};
    the weakest bound mu_1 must absorb the largest modulus, so the product
    pairs mu_1, mu_2, mu_3 with descending moduli.  This pairing is what the
    tabulated chi_j values realize.  An array rho gives an array, and a column
    of j with it one row a j.
    """
    return _chord_triple(rho, j, 1, 2, 3)


def B_j(rho, j):
    """Variant of A_j for the rotation pattern that pins the middle factor at mu_4."""
    return _chord_triple(rho, j, 1, 4, 1)


def _chord_triple(rho, j, a, b, c):
    lo, hi = _span(rho)
    if not (0.0 < lo and hi <= 0.6):
        raise DomainError(f"rho must lie in (0, 0.6], got {rho!r}")
    if _span(j)[0] < 1:
        raise DomainError(f"j must be >= 1, got {j!r}")
    return mu(a, rho ** (3 * j - 2.5)) * mu(b, rho ** (3 * j - 1.5)) * mu(c, rho ** (3 * j - 0.5))


def phi_flat(r):
    """sum_{j>=2} r^{j(j-2)/2} = theta(r, r^{1/2}), r a float or an array: bound on the tail from
    the z^2 term on.

    It is theta_dagger on |z| = r^{-1/2} less its first two terms, so an array sums, in order,
    the terms 2 <= j < n of that series, n from its proven tail (`_theta_dagger_terms`) at the
    largest r, to 1e-18: the rest are below half an ulp of the sum (>= 1) at every entry.
    """
    lo, hi = _span(r)
    if not (0.0 < lo and hi < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    if not isinstance(r, np.ndarray):
        return _theta(r, math.sqrt(r))
    j = np.arange(2, _theta_dagger_terms(hi, _CONSTANT_BUDGET.tolerance)[0])[:, None]
    return np.sum(r ** (j * (j - 2) / 2.0), axis=0)  # row by row: each entry's terms in j order


def phi_star(r):
    """sqrt(1 + 1/r), r a float or an array: bound for |1 + z| on |z| = r^{-1/2}, Re z >= 0."""
    lo, hi = _span(r)
    if not (0.0 < lo and hi < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    return (np.sqrt if isinstance(r, np.ndarray) else math.sqrt)(1.0 + 1.0 / r)


def _chi_star():  # chi2 chi3 chi4 chi5: the factor k4's floor squares, also in k4's report
    return math.prod(recompute_constant(f"chi{j}") for j in (2, 3, 4, 5))


# Each entry is the one definition of its constant: the checks, and the entries built on
# others, read values through `recompute_constant`, which computes each once per process.
REFERENCE_CONSTANTS = {c.name: c for c in (
    ReferenceConstant(  # quoted input, not derivable from the material in scope
        "c0", 0.2078750206,
        "radius below which strong modulus-separation of the zeros is already known", lambda: C0),
    ReferenceConstant("alpha0", 0.2756644477, "sqrt(3) / (2 pi)",
                      lambda: math.sqrt(3.0) / (2.0 * math.pi)),
    ReferenceConstant("exp_inv_alpha0", 37.62236657,
                      "e^{1/alpha0}, common limit of the annulus radii m_n and M_n",
                      lambda: math.exp(2.0 * math.pi / math.sqrt(3.0))),
    ReferenceConstant("gamma", 0.9945691384, "prod_{j>=12} (1 - 0.6^j) = U(0.6, -0.6^11)",
                      lambda: _U(-0.6 ** 11)),
    ReferenceConstant("Q0_floor", 1.206552620,
                      "1.2 / gamma, required boundary floor for prod_{j<=11} (1 - q^j)",
                      lambda: 1.2 / recompute_constant("gamma")),
    ReferenceConstant("eta", 0.2411047426,
                      "prod_{j>=1} |0.6^{j-9/2} - 1| = |U(0.6, -0.6^{-9/2})|",
                      lambda: abs(_U(-0.6 ** -4.5))),
    ReferenceConstant("xi", 0.7715882456, "prod_{j>=0} (1 - 0.6^{j+9/2}) = U(0.6, -0.6^{7/2})",
                      lambda: _U(-0.6 ** 3.5)),
    ReferenceConstant("qur_floor_k5", 0.2232403024,
                      "1.2 * eta * xi: product floor on |z| = |q|^{-k+1/2}, k >= 5",
                      lambda: 1.2 * recompute_constant("eta") * recompute_constant("xi")),
    ReferenceConstant("g_bound_k5", 0.1066576686,
                      "sum_{j>=1} 0.6^{j(j-1)/2 + 9j/2} = 0.6^{9/2} theta(0.6, 0.6^{9/2})",
                      lambda: 0.6 ** 4.5 * _theta(0.6, 0.6 ** 4.5)),
    ReferenceConstant("g_bound_k4", 0.1851580824,
                      "sum_{j>=1} 0.6^{j(j-1)/2 + 7j/2} = 0.6^{7/2} theta(0.6, 0.6^{7/2})",
                      lambda: 0.6 ** 3.5 * _theta(0.6, 0.6 ** 3.5)),
    ReferenceConstant("chi0", 1.742379963, "mu3(0.6^{-5/2}) mu2(0.6^{-3/2}) mu1(0.6^{-1/2})",
                      lambda: mu(3, 0.6 ** -2.5) * mu(2, 0.6 ** -1.5) * mu(1, 0.6 ** -0.5)),
    ReferenceConstant("chi1", 0.1749135662, "A_1(0.6)", lambda: A_j(0.6, 1)),
    ReferenceConstant("chi2", 0.7772399345, "A_2(0.6)", lambda: A_j(0.6, 2)),
    ReferenceConstant("chi3", 0.9492771959, "A_3(0.6)", lambda: A_j(0.6, 3)),
    ReferenceConstant("chi4", 0.9889171980, "A_4(0.6)", lambda: A_j(0.6, 4)),
    ReferenceConstant("chi5", 0.9957913379,
                      "prod_{k>=16} (1 - 0.6^{k-7/2}) = U(0.6, -0.6^{23/2})",
                      lambda: _U(-0.6 ** 11.5)),
    ReferenceConstant("qur_floor_k4", 0.1930636291,
                      "1.2 chi0 chi1 (chi2 chi3 chi4 chi5)^2: product floor on |z| = |q|^{-7/2}",
                      lambda: (1.2 * recompute_constant("chi0") * recompute_constant("chi1")
                               * _chi_star() ** 2)),
    ReferenceConstant("phi_star_06", 1.632993162, "sqrt(1 + 1/0.6)", lambda: phi_star(0.6)),
    ReferenceConstant("phi_flat_06", 1.618354488, "sum_{j>=2} 0.6^{j(j-2)/2}",
                      lambda: phi_flat(0.6)),
    ReferenceConstant("phi_flat_03_minus_1", 0.1725370862, "sum_{j>=3} 0.3^{j(j-2)/2}",
                      lambda: phi_flat(0.3) - 1.0),
    ReferenceConstant("a0", 2.330487021,
                      "1 + sum_{j>=4} 0.6^{j(j-1)/2 - 3j/2} = 1 + theta(0.6, 0.6^{3/2})",
                      lambda: 1.0 + _theta(0.6, 0.6 ** 1.5)),
    ReferenceConstant("xiB_floor_wide_arg", 2.405626123,
                      "0.6^{-3/2} sqrt(3/(4*0.6)): |xi B| floor for arg(q) in [2pi/3, pi]",
                      lambda: 0.6 ** -1.5 * math.sqrt(3.0 / (4.0 * 0.6))),
    ReferenceConstant("xiB_floor_small_q", 2.337543079,
                      "0.55^{-2}/sqrt(2): |xi B| floor for |q| <= 0.55",
                      lambda: 0.55 ** -2 / SQRT2),
    ReferenceConstant("a_tail_bound", 0.0002925303367,
                      "sum_{j>=8} 0.6^{j(j-1)/2 - 3j/2} = 0.6^16 theta(0.6, 0.6^{11/2})",
                      lambda: 0.6 ** 16 * _theta(0.6, 0.6 ** 5.5)),
    ReferenceConstant(
        "tau_pinch_modulus", 0.3431457506,
        "modulus where (2|q|)^{-1/2} - 2^{-1/2} = 1/2 (weakest point of the 3A bound)",
        lambda: 0.5 / (0.5 + 2.0 ** -0.5) ** 2),
    ReferenceConstant("case4d_drop", 0.7470048804,
                      "-(0.6^{-1/2} cos(11pi/12) + 1 + cos(8pi/3))",
                      lambda: -(0.6 ** -0.5 * math.cos(11 * math.pi / 12)
                                + 1.0 + math.cos(8 * math.pi / 3))),
)}


@functools.cache
def recompute_constant(name):
    """Recompute a registry constant from its defining formula, once per process."""
    if name not in REFERENCE_CONSTANTS:
        raise DomainError(f"unknown constant {name!r}")
    return REFERENCE_CONSTANTS[name].recompute()


def agreement_margin(computed, reference):
    """Positive iff computed and reference share >= 9 leading significant digits."""
    rel = abs(computed - reference) / max(abs(reference), 1e-300)
    return AGREEMENT_RTOL - rel


def verify_constants():
    """Recompute every registry entry and compare against its recorded digits."""
    computed = {name: recompute_constant(name) for name in REFERENCE_CONSTANTS}
    margins = {name: agreement_margin(computed[name], ref.value)
               for name, ref in REFERENCE_CONSTANTS.items()}
    return VerificationReport.build("constants", computed, margins)


# ---------------------------------------------------------------------------
# mu ordering / monotonicity / exchange properties
# ---------------------------------------------------------------------------

def mu_properties_check(samples=2000):
    """Sampled checks of the chord-bound family.

    Verifies, on random moduli: the strict ordering mu_4 > mu_3 > mu_2 > mu_1
    for m > 0; that each mu_j is increasing for m >= 1; and the exchange
    inequality mu_l(m1) mu_m(m2) > mu_l(m2) mu_m(m1) for 1 >= m1 > m2 > 0
    and 3 >= l > m >= 1.
    """
    if samples < 100:
        raise DomainError("samples must be >= 100")
    # per sample m, lo - 1, hi - lo, m2, m1, mapped as rng.uniform(low, high) maps a draw
    u = np.random.default_rng(20260811).random((samples, 5))
    m = 1e-4 + (8.0 - 1e-4) * u[:, 0]
    lo = 1.0 + 4.0 * u[:, 1]
    hi = lo + (1e-6 + (2.0 - 1e-6) * u[:, 2])
    m2 = 1e-4 + (0.99 - 1e-4) * u[:, 3]
    m1 = (m2 + 1e-3) + (1.0 - (m2 + 1e-3)) * u[:, 4]
    vals = [mu(j, m) for j in (1, 2, 3, 4)]
    order_margin = float(min(np.min(b - a) for a, b in zip(vals, vals[1:])))
    mono_margin = float(min(np.min(mu(j, hi) - mu(j, lo)) for j in (1, 2, 3, 4)))
    exchange_margin = float(min(
        np.min(mu(ell, m1) * mu(em, m2) - mu(ell, m2) * mu(em, m1))
        for ell, em in ((2, 1), (3, 1), (3, 2))))
    computed = {"samples": float(samples)}
    margins = {"ordering": order_margin,
               "monotone_above_1": mono_margin,
               "exchange": exchange_margin}
    return VerificationReport.build("mu", computed, margins)


def verify_AB_monotone(grid_points=2000):
    """Sampled strict decrease of A_j and B_j on (0, 0.6], j = 1..6.

    For larger j both functions saturate to 1.0 in double precision as
    rho -> 0 (the deviations fall below one ulp), so exact float ties
    between adjacent grid points get one ulp of slack; any representable
    increase still fails the check.
    """
    if grid_points < 1000:
        raise DomainError("grid_points must be >= 1000")
    ulp_tie = 5e-16
    rhos = np.linspace(0.6 / grid_points, 0.6, grid_points)  # ends at 0.6 exactly
    # a row a j, j = 1 apart: numpy takes rho ** 0.5 as a square root, not a power
    ab = [np.vstack([f(rhos, 1), f(rhos, np.arange(2, 7)[:, None])]) for f in (A_j, B_j)]
    drops = [np.min(x[:, :-1] - x[:, 1:], axis=1) + ulp_tie for x in ab]
    pairs = [(j, name, i) for j in range(1, 7) for i, name in enumerate("AB")]
    computed = {f"{name}_{j}(0.6)": float(ab[i][j - 1, -1]) for j, name, i in pairs}
    margins = {f"{name}_{j}_decreasing": float(drops[i][j - 1]) for j, name, i in pairs}
    return VerificationReport.build("AB", computed, margins)


# ---------------------------------------------------------------------------
# Product floor on the boundary of the left half-disk
# ---------------------------------------------------------------------------

def _partial_q_product(qs):
    """prod_{j=1}^{11} (1 - q^j) over an array of q values."""
    qs = np.asarray(qs, dtype=complex)
    p = np.ones(qs.shape, dtype=complex)
    power = np.ones(qs.shape, dtype=complex)
    for _ in range(11):
        power = power * qs
        p = p * (1.0 - power)
    return p


DEFAULT_Q_GRID = _battery_grid("Q")


def verify_lemma_Q(grid=DEFAULT_Q_GRID):
    """Scan |prod_{j<=11} (1 - q^j)| over the boundary of the left half-disk.

    The boundary is the segment arg(q) = pi/2 (lower half mirrors by
    conjugation) plus the arc |q| = 0.6; the asserted floor is 1.2/gamma, so
    that the full product stays above 1.2 throughout the region.

    The assertion fails: the scan finds boundary values near 1.0 on the
    segment as |q| -> 0 and 1.1341 on the arc at arg(q) = pi (full product
    1.13255 at q = -0.6, confirmed independently by the pentagonal-number
    series).  The report carries the observed minima and negative margins.
    """
    gamma, floor = recompute_constant("gamma"), recompute_constant("Q0_floor")
    segment_q = 1j * grid.moduli()
    seg_abs = np.abs(_partial_q_product(segment_q))
    arc_q = 0.6 * np.exp(1j * grid.arguments())
    arc_abs = np.abs(_partial_q_product(arc_q))
    seg_min_i = int(np.argmin(seg_abs))
    arc_min_i = int(np.argmin(arc_abs))
    overall_min = min(float(seg_abs[seg_min_i]), float(arc_abs[arc_min_i]))
    computed = {
        "gamma": gamma,
        "Q0_floor": floor,
        "segment_min": float(seg_abs[seg_min_i]),
        "segment_min_modulus": float(grid.moduli()[seg_min_i]),
        "arc_min": float(arc_abs[arc_min_i]),
        "arc_min_argument": float(grid.arguments()[arc_min_i]),
        "boundary_min": overall_min,
        "implied_Q_floor": overall_min * gamma,
    }
    margins = {
        "gamma_digits": agreement_margin(gamma, REFERENCE_CONSTANTS["gamma"].value),
        "floor_digits": agreement_margin(floor, REFERENCE_CONSTANTS["Q0_floor"].value),
        "Q0_boundary_min": overall_min - floor,
        "Q_overall": overall_min * gamma - 1.2,
    }
    return VerificationReport.build("Q", computed, margins, grid)


# ---------------------------------------------------------------------------
# Circle exclusions for k >= 5 and k = 4
# ---------------------------------------------------------------------------

def verify_lemma_k5():
    """Product floor 1.2*eta*xi versus the principal-part bound on |z| = |q|^{-k+1/2}, k >= 5."""
    eta, xi, floor, g_bound = map(recompute_constant,
                                  ("eta", "xi", "qur_floor_k5", "g_bound_k5"))
    computed = {"eta": eta, "xi": xi, "qur_floor": floor, "g_bound": g_bound}
    margins = {
        "eta_digits": agreement_margin(eta, REFERENCE_CONSTANTS["eta"].value),
        "xi_digits": agreement_margin(xi, REFERENCE_CONSTANTS["xi"].value),
        "floor_digits": agreement_margin(floor, REFERENCE_CONSTANTS["qur_floor_k5"].value),
        "g_bound_digits": agreement_margin(g_bound, REFERENCE_CONSTANTS["g_bound_k5"].value),
        "product_exceeds_tail": floor - g_bound,
    }
    return VerificationReport.build("k5", computed, margins)


def verify_lemma_k4():
    """Chord-product floor 1.2 chi0 chi1 chi_*^2 versus the tail bound on |z| = |q|^{-7/2}."""
    chis = {j: recompute_constant(f"chi{j}") for j in range(6)}
    floor, g_bound = recompute_constant("qur_floor_k4"), recompute_constant("g_bound_k4")
    computed = {"chi0": chis[0], "chi5": chis[5], "chi_star": _chi_star(),
                "qur_floor": floor, "g_bound": g_bound}
    computed.update({f"chi{j}": chis[j] for j in (1, 2, 3, 4)})
    margins = {
        "product_exceeds_tail": floor - g_bound,
        "floor_digits": agreement_margin(floor, REFERENCE_CONSTANTS["qur_floor_k4"].value),
        "g_bound_digits": agreement_margin(g_bound, REFERENCE_CONSTANTS["g_bound_k4"].value),
        "A_below_B": min(B_j(0.6, j) - chis[j] for j in (1, 2, 3, 4)),
    }
    margins.update({f"chi{j}_digits": agreement_margin(chi, REFERENCE_CONSTANTS[f"chi{j}"].value)
                    for j, chi in chis.items()})
    return VerificationReport.build("k4", computed, margins)


# ---------------------------------------------------------------------------
# Circle exclusion for k = 1 (|z| = |q|^{-3/2}), via the shifted series
# ---------------------------------------------------------------------------

# Samples of T(phi) on case 4C's arc.
_T_SAMPLES = 4096


def verify_lemma_k1_cases(samples=2000):
    """Recompute every numeric landmark of the sector case analysis.

    Each case bounds |1 + z + q z^2| (or a sub-sum) from below on
    |z| = |q|^{-1/2} and compares the bound against the tail majorant
    phi_flat - 1 (or phi_flat); the margins below are the recomputed slacks.
    """
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples!r}")
    c0 = C0
    pf06, ps06, pf03m1, pinch_closed, b4d = map(recompute_constant, (
        "phi_flat_06", "phi_star_06", "phi_flat_03_minus_1", "tau_pinch_modulus", "case4d_drop"))
    tail_cap = pf06 - 1.0

    rgrid = np.linspace(c0, 0.6, samples)
    ps_vals = phi_star(rgrid)
    pf_vals = phi_flat(rgrid)

    # weakest point of the two-sided 3A estimate sqrt((1-2 tau)^2/2 + 1/2)
    tau = (2.0 * rgrid) ** -0.5 - 2.0 ** -0.5
    bound_3a = np.sqrt((1.0 - 2.0 * tau) ** 2 / 2.0 + 0.5)
    i_min = int(np.argmin(bound_3a))
    spacing = float(rgrid[1] - rgrid[0])

    imag_branch_3a = (2.0 * 0.6) ** -0.5
    b3c_mid = 1.0 + 0.3 ** -0.5 * math.cos(5 * math.pi / 8) + math.cos(13 * math.pi / 8)
    b3c_small = 1.0 + c0 ** -0.5 * math.cos(5 * math.pi / 8) + math.cos(13 * math.pi / 8)
    b3e_re = 1.0 + c0 ** -0.5 * math.cos(9 * math.pi / 16)
    b3e_im = 0.6 ** -0.5 * math.sin(9 * math.pi / 16) - 1.0
    b4a = 0.6 ** -0.5 * math.sin(5 * math.pi / 6)
    b4b = 0.6 ** -0.5 * math.sin(11 * math.pi / 12) + math.sin(13 * math.pi / 6)
    shift = 0.6 ** -0.5 * math.cos(11 * math.pi / 12) + 1.0
    phis = np.linspace(5 * math.pi / 2, 17 * math.pi / 6, _T_SAMPLES)
    t_vals = np.sqrt(np.sin(phis) ** 2 + (shift + np.cos(phis)) ** 2)

    computed = {
        "phi_star_06": ps06, "phi_flat_06": pf06, "phi_flat_03_minus_1": pf03m1,
        "imag_branch_3a": imag_branch_3a,
        "pinch_modulus": pinch_closed, "pinch_grid_modulus": float(rgrid[i_min]),
        "pinch_value": float(bound_3a[i_min]), "inv_sqrt2": 1.0 / SQRT2,
        "case3C_mid": b3c_mid, "case3C_small": b3c_small,
        "case3E_re": b3e_re, "case3E_im": b3e_im,
        "case4A": b4a, "case4B": b4b, "case4C_T_min": float(np.min(t_vals)),
        "case4D": b4d,
    }
    margins = {
        "case1_star_exceeds_flat": ps06 - pf06,
        "phi_star_decreasing": float(np.min(ps_vals[:-1] - ps_vals[1:])),
        "phi_flat_increasing": float(np.min(pf_vals[1:] - pf_vals[:-1])),
        "case3A_imag_branch": imag_branch_3a - tail_cap,
        "case3A_tau_branch": 1.0 / SQRT2 - tail_cap,
        "case3A_pinch_location": 2.0 * spacing - abs(float(rgrid[i_min]) - pinch_closed),
        "case3A_pinch_value": 1e-6 - abs(float(bound_3a[i_min]) - 1.0 / SQRT2),
        "case3C_mid_above_068": b3c_mid - 0.68,
        "case3C_068_above_tail": 0.68 - tail_cap,
        "case3C_small_branch": b3c_small - pf03m1,
        "case3E_re_above_05712": b3e_re - 0.5712,
        "case3E_im_above_02661": b3e_im - 0.2661,
        "case3E_hypot_above_063": math.hypot(0.5712, 0.2661) - 0.63,
        "case3E_063_above_tail": 0.63 - tail_cap,
        "case4A": b4a - tail_cap,
        "case4B": b4b - tail_cap,
        "case4C_sin_branch": math.sqrt(3.0) / 2.0 - tail_cap,
        "case4C_T_above_1": float(np.min(t_vals)) - 1.0,
        "case4D": b4d - tail_cap,
    }
    return VerificationReport.build("k1_cases", computed, margins)


DEFAULT_K1_GRID = _battery_grid("k1")


class _Scan(NamedTuple):
    """A grid scan: at (rho_r, omega_i) its values over arg z are combine(sums, r), sum s being
    `rows` (moduli[r, :n] * phases[i, :n], n = terms[r, s]) @ basis[p[:n]]; moduli[r, n:] = 0."""

    sums: list          # (moduli (n_rho, K), phases (n_omega, K), powers p) per sum
    terms: np.ndarray   # (n_rho, len(sums)): the terms each modulus row sums of each sum
    combine: object     # (sums over stacked rows, the modulus row of each) -> real values
    slope: np.ndarray   # L_psi per modulus row: |d value / d psi| <= slope on each of its circles
    scale: np.ndarray   # M per modulus row: the moduli of the terms of one value, weighted, summed
    omega_slope: np.ndarray  # L_omega per modulus row: |d value / d omega| <= omega_slope
    rho_slope: np.ndarray    # (n_rho, 2): L_rho <= rho_slope[a, 0] + rho_slope[b, 1] on [a, b]
    tail: float = 0.0   # the largest series tail a modulus row drops

    @property
    def rounding(self):  # (K + 8)(M + L) per modulus row: delta of `_scan_min` is 2^-50 this
        return (self.terms.max(axis=1) + 8) * (self.scale + self.slope)

    def rows(self, at):
        """Per sum, the complex128 coefficients of the flat (rho, omega) nodes `at`, up to the most
        terms their rows sum, each the one product of two doubles moduli[r, j] phases[i, j]."""
        r, i = np.divmod(at, len(self.sums[0][1]))
        key = self.terms[r].max(axis=0)
        return [m[:, :n].take(r, axis=0) * ph[:, :n].take(i, axis=0)
                for (m, ph, _), n in zip(self.sums, key)]


def _term_scan(grid, z_exponent, sums, counts, value, tail=0.0):
    """The _Scan over `grid` of a term table on the circles |z| = rho^z_exponent: sum (e, p, w)
    has terms q^e_j z^p_j of modulus m_j = rho^e_j |z|^p_j and enters value(sums, |z|) weighted
    by |z|^w (w = 0, 1); row r sums counts[r, s] terms of sum s; tail bounds the tails dropped.
    Over a row's W_j = |z|^w m_j = rho^s_j: L_psi = sum p_j W_j, M = sum W_j, L_omega = sum e_j
    W_j, and L_rho's terms |s_j| W_j / rho are summed apart as each falls (s_j < 1) or rises."""
    rhos, omegas = grid.moduli(), grid.arguments()
    # scalar powers: numpy's array power rounds rho ** -0.5 otherwise
    z = np.array([rho ** z_exponent for rho in map(float, rhos)])
    parts, bounds = [], []
    for (e, p, w), n in zip(sums, np.transpose(counts)):
        moduli = rhos[:, None] ** np.asarray(e, float) * z[:, None] ** np.asarray(p, float)
        moduli *= np.arange(len(p)) < n[:, None]
        phases = np.exp(1j * np.outer(omegas, e))
        weight, s = z ** w, np.add(e, z_exponent * np.add(p, w))  # z ** 0, z ** 1 are exact
        rho_terms = weight[:, None] * moduli * np.abs(s) / rhos[:, None]
        parts.append((moduli, phases, np.asarray(p)))
        bounds.append((weight * (moduli @ p), weight * np.sum(moduli, axis=1),
                       weight * (moduli @ e), np.stack([rho_terms[:, s < 1].sum(axis=1),
                                                        rho_terms[:, s >= 1].sum(axis=1)], axis=1)))
    return _Scan(parts, np.asarray(counts), lambda sums, r: value(sums, z[r]),
                 *map(sum, zip(*bounds)), tail)


# Most complex multiply-adds of one gemm: OpenBLAS runs a larger product on two threads, and
# their hand-offs stalled for milliseconds at a time on a busy two-core host.
_GEMM_MADDS = 2 ** 16
# Most (|q|, arg q) rows whose coefficients a stage forms at once (`scan_bytes`).
_ROWS = 2 ** 15


def _blocks(scan, basis, rows, cap):
    """(rows, values) of `rows`, ascending flat (rho, omega) indices, over the basis columns.

    A block holds rows of one term count and at most cap values or one gemm; it is one
    batched product of gemms of `width` >= 2 rows (numpy hands a one-row product to gemv,
    which may round differently), padded with copies of the group's last row.  BLAS
    computes each row of a product from that row and the basis alone, so a row's values
    are those of C[r] @ basis[p] in full.
    """
    n_omega, columns = len(scan.sums[0][1]), basis.shape[1]
    present = np.bincount(rows // n_omega, minlength=len(scan.terms)) > 0
    for key in sorted(set(map(tuple, scan.terms[present].tolist()))):
        same = rows[np.all(scan.terms == key, axis=1)[rows // n_omega]]
        gemms = -(-same.size // max(2, _GEMM_MADDS // (max(key) * columns)))
        width = max(2, -(-same.size // gemms))  # the fewest gemms, evened out
        same = same[np.minimum(np.arange(gemms * width), same.size - 1)]
        span = width * max(1, cap // (width * columns))
        for at in (same[i:i + span] for i in range(0, same.size, span)):
            sums = [c.reshape(-1, width, n) @ basis[p[:n]]
                    for c, (*_, p), n in zip(scan.rows(at), scan.sums, key)]
            yield at, scan.combine([s.reshape(at.size, columns) for s in sums], at // n_omega)


def _products(scan, blocks, bases, rows):
    """scan.combine of block @ base per sum, rows[i] the flat (rho, omega) index of row i, in
    batched gemms of at most _GEMM_MADDS multiply-adds and one gemm for the rows left over."""
    sums = []
    for block, base in zip(blocks, bases):
        width, (k, columns) = max(1, _GEMM_MADDS // base.size), base.shape
        whole = rows.size - rows.size % width
        out = np.empty((rows.size, columns), base.dtype)
        np.matmul(block[:whole].reshape(-1, width, k), base,
                  out=out[:whole].reshape(-1, width, columns))
        np.matmul(block[whole:], base, out=out[whole:])
        sums.append(out)
    return scan.combine(sums, rows // len(scan.sums[0][1]))


def _single(scan, basis, cap, rows):
    """(rows, values) of the flat (rho, omega) rows `rows`, in their order, at the basis
    columns in complex64, max(cap, 2^15) values and _ROWS rows a block at most, each block's
    coefficients formed and cast once up to its largest term count (the rest are zeros)."""
    bases = [basis[p].astype(np.complex64) for *_, p in scan.sums]
    span = min(_ROWS, max(1, max(cap, _GEMM_MADDS // 2) // basis.shape[1]))
    for at in (rows[a:a + span] for a in range(0, rows.size, span)):
        block = [c.astype(np.complex64) for c in scan.rows(at)]
        yield at, _products(scan, block, [b[:c.shape[1]] for b, c in zip(bases, block)], at)


def _windows(scan, basis, half, spacing, rows, starts):
    """(values, eps): values[w, half + t] = sum_p (c_p e^{i p psi_s}) e^{i p t dpsi} in float64,
    flat (rho, omega) row rows[w] at node s + t mod z_steps, s = starts[w], |t| <= half; eps[w]
    = 2 delta of its modulus row bounds its distance to the exhaustive values."""
    offsets = np.arange(-half, half + 1) * spacing
    blocks = scan.rows(rows)
    ps = [p[:c.shape[1]] for c, (*_, p) in zip(blocks, scan.sums)]
    blocks = [np.multiply(c, basis[np.ix_(p, starts)].T, out=c) for c, p in zip(blocks, ps)]
    values = _products(scan, blocks, [np.exp(1j * np.outer(p, offsets)) for p in ps], rows)
    return values, 2.0 ** -49 * scan.rounding[rows // len(scan.sums[0][1])]


# The strides keep each Lipschitz pad of `_scan_min` at most this: L_psi floor(S/2) dpsi over
# arg z, and L_rho h_rho drho + L_omega h_omega domega over (|q|, arg q), half of it each.
# Both scans have values of order one (|theta_dagger| with t_0 = 1, and a margin of about
# 0.1 beside term sums of about 10), so a pad this size still parts most nodes from the
# minimum while one coarse sample stands for many fine ones.
_PAD = 0.25


def _reach(n, step):
    """The nodes h <= n // 2 on each side of a sample that it stands for: h step <= _PAD."""
    return n // 2 if step * (n // 2) <= _PAD else math.floor(_PAD / step)


def _centres(n, h):
    """The centre of each of n nodes: the node h + k (2h + 1), or the last node, within h."""
    return np.minimum(np.arange(n) // (2 * h + 1) * (2 * h + 1) + h, n - 1)


def _scan_min(grid, z_steps, scan):
    """Minimum over the grid of the values of `scan`, and its (rho, omega, psi).

    The scan samples; it does not certify.  It returns the minimum and location
    of the exhaustive scan (the first in (rho, omega, psi) order) in four stages:
    1. `_single` on the centres (`_centres`: each node is within h_rho modulus and
       h_omega argument steps of one) in complex64 at psis[::S]; ub is their least
       value.  A node is live if its centre's least value less A_c + L_rho |rho -
       rho_c| + L_omega |omega - omega_c| is <= ub.
    2. `_single` on the other live nodes, from the largest |q| down; ub is the least
       value so far.  A window is a coarse node c S and the nodes within floor(S/2)
       of it (psi wraps).  In a live row (node) whose coarse minimum less A is <= ub,
       a window is live if its coarse value less A is <= ub.
    3. `_windows`: live windows in float64, within eps of the exhaustive values;
       upper is the least window value plus eps.
    4. `_blocks`: in complex128 over all psi, the rows whose least window value
       less eps is <= upper (one row of each default scan).
    S = 2 floor(_PAD / (L dpsi)) + 1 and h = floor(_PAD / (2 L' d)) for the grid's
    largest L = scan.slope (|d value / d psi| <= L), L' = L_rho or L_omega and its
    step d.  A = L floor(S/2) dpsi + R with the row's L (A_c: the centre's), and R
    = 2 (delta32 + delta) for the grid's largest (K + 8)(M + L) plus twice scan.tail.
    L_omega is scan.omega_slope of the node's modulus row; L_rho is scan.rho_slope's
    falling part at the lower end of [rho, rho_c] plus its rising part at the upper.
    With cap = n_omega z_steps / 4 the coarse blocks hold at most max(cap, 2^15)
    single values, the windows and `_blocks` cap values, and stage 2 takes a
    block's live windows min(_ROWS, cap // S) at a time; each stage forms the
    coefficients of its nodes (`_Scan.rows`), at most _ROWS at once.

    Rounding.  With u = 2^-53 a computed value differs from the exact value of the
    row's formed coefficients at its node by less than u((2K + 10) M + 2 pi L), for
    K terms per sum and M = scan.scale: u(2 pi p + 2) from each rounded p psi and
    exp, 2(K + 2) u M from a complex dot product (exact zero terms add none), a few
    u M from the modulus and k2's weight and differences (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1 and 3.6).  The formed rows
    are within u(7 M + pi L_omega) of the exact ones at the node's rho and omega, and
    L_omega <= K L (e_j <= K p_j in both scans).  delta = 2^-50 (K + 8)(M + L) covers
    both, so a value is within delta of E, the exact sum of its row's terms at its node,
    and the rounding of the nodes, slopes, pads and tests; delta32 = 2^-21 (K + 8)(M + L)
    covers a coarse value's (u = 2^-24, casts included).  A window node c S dpsi + t dpsi
    is within 4 pi u of the linspace node, and two rounded exponentials and their
    product add u(2 pi p + 4.25) to term p: a window value is within u(38 L + (2K + 17) M)
    < delta of the exact value, so eps = 2 delta.

    Pruning.  From a node, E moves by at most L_omega |omega - omega_c| to its centre's
    column, L_rho |rho - rho_c| on to the centre (each term |s_j| rho^(s_j - 1) of the
    majorant is a power of rho, largest at an end; the row at the larger |q| holds every
    term of both, the other every term that falls) and L floor(S/2) dpsi to a coarse
    psi, with distances taken between the nodes themselves; rows of different term
    counts differ by their dropped tails besides.  So a node that is not live, or in a
    window that is not live, lies above ub's node, whose value is at most ub + delta32
    + delta: every node of least value is in a live window, upper is at least that
    value, and `_blocks`, whose rows round as their own modulus row's product, gives
    the exhaustive minimum, location and tie order.
    """
    psis = np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False)
    rhos, omegas = grid.moduli(), grid.arguments()
    basis = np.exp(1j * np.outer(np.arange(max(int(p[-1]) for *_, p in scan.sums) + 1), psis))
    spacing, n_omega = 2.0 * math.pi / z_steps, omegas.size
    half = _reach(z_steps, float(np.max(scan.slope)) * spacing)
    stride, cap = 2 * half + 1, n_omega * z_steps // 4
    coarse_basis = basis[:, ::stride]
    allowance = (scan.slope * half * spacing + 2.0 * scan.tail
                 + (2.0 ** -49 + 2.0 ** -20) * float(np.max(scan.rounding)))
    # 1. the centres, and the nodes they leave live
    cr, ci = (_centres(x.size, _reach(x.size, 2.0 * float(np.max(slope)) * (x[-1] - x[0])
                                      / (x.size - 1)))
              for x, slope in ((rhos, np.sum(scan.rho_slope, axis=1)), (omegas, scan.omega_slope)))
    (r_c, at_r), (i_c, at_i) = (np.unique(x, return_inverse=True) for x in (cr, ci))
    centres = (r_c[:, None] * n_omega + i_c).ravel()
    coarse = np.concatenate([values for _, values in _single(scan, coarse_basis, cap, centres)])
    least = np.min(coarse, axis=1)
    ub, r = float(np.min(least)), np.arange(rhos.size)
    pad = allowance[cr] + np.abs(rhos - rhos[cr]) * (scan.rho_slope[np.minimum(r, cr), 0]
                                                     + scan.rho_slope[np.maximum(r, cr), 1])
    bound = least.reshape(r_c.size, i_c.size)[np.ix_(at_r, at_i)] - pad[:, None]
    bound -= np.outer(scan.omega_slope, np.abs(omegas - omegas[ci]))
    live = bound.ravel() <= ub
    live_centres, live[centres] = live[centres], False  # a centre's values are at hand
    # 2, 3. the live nodes' coarse values, and their live windows in float64
    lows, upper, chunk = np.full(live.size, math.inf), math.inf, min(_ROWS, max(1, cap // stride))

    def refine(rows, starts):  # each row's least window value less eps into lows
        values, eps = _windows(scan, basis, half, spacing, rows, starts)
        low = np.min(values, axis=1)
        np.minimum.at(lows, rows, low - eps)
        return float(np.min(low + eps))

    rows = starts = np.empty(0, np.intp)  # live windows not yet evaluated
    passes = itertools.chain([(centres[live_centres], coarse[live_centres])],
                             _single(scan, coarse_basis, cap, np.flatnonzero(live)[::-1]))
    for at, values in passes:
        minima = np.min(values, axis=1)
        ub = min(ub, float(np.min(minima, initial=math.inf)))
        ok = np.flatnonzero(minima - allowance[at // n_omega] <= ub)  # the row rule
        windows = np.flatnonzero(values[ok] - allowance[at[ok] // n_omega, None] <= ub)
        for part in (windows[a:a + chunk] for a in range(0, windows.size, chunk)):
            i, c = np.divmod(part, values.shape[1])
            rows, starts = np.append(rows, at[ok[i]]), np.append(starts, c * stride)
            while rows.size >= chunk:
                upper = min(upper, refine(rows[:chunk], starts[:chunk]))
                rows, starts = rows[chunk:], starts[chunk:]
    if rows.size:
        upper = min(upper, refine(rows, starts))
    # 4. the rows that can hold the minimum, over every psi in complex128
    best = (math.inf, 0, 0)
    for block, vals in _blocks(scan, basis, np.flatnonzero(lows <= upper), cap):
        i, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = min(best, (float(vals[i, k]), int(block[i]), int(k)))
    value, row, k = best
    return value, (float(rhos[row // n_omega]), float(omegas[row % n_omega]), float(psis[k]))


def _theta_dagger_terms(rho, tolerance=1e-16):
    """(n, bound): theta_dagger on |z| = rho^{-1/2}, summed over j < n, drops a tail <= bound.

    Term moduli t_j = rho^{j(j-2)/2} have ratios rho^{j-1/2}, falling in j, so the tail
    from term n on is at most t_n / (1 - rho^{n-1/2}); n is the least with bound <= tolerance.
    Each n below x = sqrt(1 + 2 log(tolerance) / log(rho)) has t_n > tolerance rho^{-3/2}, so
    the rule starts at ceil(x), in one array pass for an array rho (which gives arrays).
    """
    if not 0.0 < np.min(rho) <= np.max(rho) < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
    rhos = np.atleast_1d(rho)
    x = np.sqrt(1.0 + 2.0 * math.log(tolerance) / np.log(rhos)) * (1.0 - 2.0 ** -40)
    found = []
    for r, n in zip(rhos.tolist(), np.maximum(2, np.ceil(x)).astype(int).tolist()):
        while (bound := r ** (n * (n - 2) / 2.0) / (1.0 - r ** (n - 0.5))) > tolerance:
            n += 1
        found.append((n, bound))
    return tuple(map(np.array, zip(*found))) if np.ndim(rho) else found[0]


def _theta_dagger_scan(grid):
    """The k1 scan of |theta_dagger| on |z| = rho^{-1/2} over `grid`: term j is q^{j(j-1)/2} z^j,
    of modulus rho^{j(j-2)/2}.  Each modulus row sums j < n, n from the proven geometric tail
    (`_theta_dagger_terms`), and the scan's tail is the largest dropped-tail bound."""
    counts, tails = _theta_dagger_terms(grid.moduli())
    j = np.arange(np.max(counts))
    return _term_scan(grid, -0.5, [(j * (j - 1) / 2, j, 0)], counts[:, None],
                      lambda sums, z: np.abs(sums[0]), tail=float(np.max(tails)))


def verify_lemma_k1_direct(grid=DEFAULT_K1_GRID, z_steps=DEFAULT_K1_Z_STEPS):
    """Direct scan: min |theta_dagger| on |z| = |q|^{-1/2} over the left quarter-disk.

    arg(q) in [pi/2, pi] suffices by conjugation symmetry.  The series is summed
    to the term count of the proven geometric tail (`_theta_dagger_scan`), whose
    largest bound is reported as `tail_bound`, and `_scan_min` refines only the
    windows its slope bounds cannot rule out.  The minimum must be strictly positive;
    its value and location are reported so resolution slack can be judged, and
    `sample_pad` = L pi / z_steps, with the largest slope bound L of the grid,
    is the most the value can dip between two neighbouring samples of a circle.
    """
    scan = _theta_dagger_scan(grid)
    best, at = _scan_min(grid, z_steps, scan)
    computed = {"min_abs": best, "at_modulus": at[0], "at_q_argument": at[1],
                "at_z_argument": at[2], "z_points": float(z_steps), "tail_bound": scan.tail,
                "sample_pad": float(np.max(scan.slope)) * math.pi / z_steps}
    return VerificationReport.build("k1_direct", computed, {"min_abs_positive": best}, grid)


# Bytes `_scan_min` holds, above the ru_maxrss growth of 48 scans in fresh processes (600 x 300
# grids, circles of up to 10^5 samples, up to 2000 x 2000 nodes, 1850 x 1850 at 20 z-steps;
# 21 with the scan's tail raised so that every node stays live; estimate / growth >= 1.15):
# per (|q|, arg q) node 72 (measured 18-34), per arg q x arg z value 12 for k1 and 20 for k2
# (5.3-7.9 and 9.2-15.6 in pruned scans, up to 9.1 and 17.0 with every node live).
_NODE_BYTES, _VALUE_BYTES = 72, {"k1": 12, "k2": 20}


def scan_bytes(check, modulus_steps, argument_steps, z_steps):
    """An upper estimate of the bytes the "k1" or "k2" scan holds at once, from its grid shape
    and the circles of a battery run with z_steps: per node and value (above), and a term (k1:
    the 14 of its largest modulus 0.6; k2: the 8 of B and A*) 24 a modulus row and 40 an arg q
    for the moduli and phases as they are built, 16 an arg z for the powers e^{i p psi}, and 40
    for each node whose coefficients a stage forms at once (at most _ROWS)."""
    terms = _theta_dagger_terms(DEFAULT_K1_GRID.modulus_range[1])[0] if check == "k1" else 8
    circle, nodes = BATTERY[check].circle(z_steps), modulus_steps * argument_steps
    return (_NODE_BYTES * nodes + _VALUE_BYTES[check] * argument_steps * circle
            + terms * (24 * modulus_steps + 40 * argument_steps + 16 * circle
                       + 40 * min(nodes, _ROWS)))


def verify_lemma_k1(grid=DEFAULT_K1_GRID, z_steps=DEFAULT_K1_Z_STEPS, samples=2000):
    """Case landmarks plus the direct grid scan, merged into one report."""
    cases = verify_lemma_k1_cases(samples=samples)
    direct = verify_lemma_k1_direct(grid=grid, z_steps=z_steps)
    parts = {"cases": cases, "direct": direct}
    computed = {f"{p}.{k}": v for p, rep in parts.items() for k, v in rep.computed.items()}
    margins = {f"{p}.{k}": v for p, rep in parts.items() for k, v in rep.margins.items()}
    return VerificationReport.build("k1", computed, margins, grid)


# ---------------------------------------------------------------------------
# Circle exclusion for k = 2 (|z| = |q|^{-5/2}), via theta = A + xi B
# ---------------------------------------------------------------------------

def B_closed_form(rho, omega, psi):
    """|1 + zeta + q zeta^2|^2 for q = rho e^{i omega}, zeta = rho^{-1/2} e^{i psi}.

    Closed form rho^{-1} + 4 rho^{-1/2} cos(psi + omega/2) cos(omega/2)
    + 4 cos^2(psi + omega/2); valid because |q zeta^2| = 1.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
    if not math.pi / 2 - 1e-12 <= omega <= math.pi + 1e-12:
        raise DomainError(f"omega must lie in [pi/2, pi], got {omega!r}")
    if not -1e-12 <= psi <= 2.0 * math.pi + 1e-12:
        raise DomainError(f"psi must lie in [0, 2pi], got {psi!r}")
    a = math.cos(psi + omega / 2.0)
    b = math.cos(omega / 2.0)
    return 1.0 / rho + 4.0 * a * b / math.sqrt(rho) + 4.0 * a * a


DEFAULT_K2_GRID = _battery_grid("k2")


def _dominance_scan(grid, tail):
    """The k2 scan of xi |B| - |A*| - tail on |xi| = rho^{-3/2} over `grid` (`_term_scan`):
    B = 1 + q xi + q^3 xi^2, weighted by |xi|, and A* = 1 + q^6 xi^4 + q^10 xi^5 + q^15 xi^6
    + q^21 xi^7; M also holds the tail that each value subtracts."""
    scan = _term_scan(grid, -1.5, [([0, 1, 3], [0, 1, 2], 1),
                                   ([0, 6, 10, 15, 21], [0, 4, 5, 6, 7], 0)],
                      np.tile([3, 5], (grid.modulus_steps, 1)),
                      lambda sums, xi: (xi[:, None].astype(sums[0].real.dtype) * np.abs(sums[0])
                                        - np.abs(sums[1]) - tail))  # in the precision of the sums
    return scan._replace(scale=scan.scale + tail)


def verify_lemma_k2(grid=DEFAULT_K2_GRID, z_steps=BATTERY["k2"].circle(DEFAULT_K1_Z_STEPS)):
    """Dominance |xi B| > |A| on |xi| = |q|^{-3/2} (i.e. |z| = |q|^{-5/2}).

    Analytic branches: (i) |A| <= a0 always; (ii) for arg(q) in [2pi/3, pi]
    or |q| <= 0.55 the floors 2.4056... and 2.3375... both exceed a0.  The
    remaining corner arg(q) in [pi/2, 2pi/3], |q| in [0.55, 0.6] is scanned:
    A is split as A* (terms j <= 7) plus a tail A** bounded by
    0.0002925...; the margin min(|xi B| - |A*| - bound) is reported as
    observed, not certified.  B and A* are exact (`_dominance_scan`), so only A**
    is bounded, and `_scan_min` refines only the windows its slope bounds cannot
    rule out.  `sample_pad` is k1's, for this scan's slope and circle.
    """
    a0, tail, wide, small = map(recompute_constant, (
        "a0", "a_tail_bound", "xiB_floor_wide_arg", "xiB_floor_small_q"))

    scan = _dominance_scan(grid, tail)
    worst, worst_at = _scan_min(grid, z_steps, scan)
    computed = {"a0": a0, "a_tail_bound": tail,
                "xiB_floor_wide_arg": wide, "xiB_floor_small_q": small,
                "grid_min_margin": worst, "at_modulus": worst_at[0],
                "at_q_argument": worst_at[1], "at_xi_argument": worst_at[2],
                "sample_pad": float(np.max(scan.slope)) * math.pi / z_steps}
    margins = {
        "a0_digits": agreement_margin(a0, REFERENCE_CONSTANTS["a0"].value),
        "tail_digits": agreement_margin(tail, REFERENCE_CONSTANTS["a_tail_bound"].value),
        "wide_arg_branch": wide - a0,
        "small_modulus_branch": small - a0,
        "grid_dominance": worst,
    }
    return VerificationReport.build("k2", computed, margins, grid)


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------

def verify_all(modulus_steps=None, argument_steps=None, z_steps=DEFAULT_K1_Z_STEPS,
               samples=2000, grid_points=2000, check=None):
    """Run the battery (`BATTERY`), or its one check `check`; returns an ordered {id: report}
    map.  The step counts apply to every grid, an unset one keeping each grid's default."""
    if check is not None and check not in BATTERY:
        raise DomainError(f"unknown check {check!r}; the battery has {', '.join(BATTERY)}")
    return {name: entry.run(_Run(_battery_grid(name, modulus_steps, argument_steps),
                                 entry.circle and entry.circle(z_steps), samples, grid_points))
            for name, entry in BATTERY.items() if check in (None, name)}

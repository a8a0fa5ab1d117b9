"""Recomputation of the named separation constants and the inequality battery.

Everything the zero-separation argument rests on is checked numerically
here: infinite products and series defining the constants, the sector chord
bounds mu_j and their triple compositions A_j / B_j, boundary and region
scans, and the case analysis that excludes zeros from the circles
|z| = |q|^{-k+1/2}.  Each check returns a `VerificationReport` whose margins
are the computed slack of every asserted inequality; a report passes iff
every margin is strictly positive.

Grid-backed checks record the observed minimum and its location so the
resolution slack can be judged by the caller; they sample, they do not
certify.  The k1 and k2 circle scans sum a series sum_j c_j(q) z^j over
one modulus row's (arg q) x (arg z) grid as one matrix product of the
coefficients c_j(q_i) |z|^j with the powers e^{i j psi_k}; k1 takes its term
count from the proven tail of theta_dagger and reports that tail's bound.
The sampled checks use the array forms of `mu`, `A_j`, `B_j` and `phi_*`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import C0
from .errors import BudgetExceeded, DomainError

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
# Constants registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceConstant:
    name: str
    value: float
    digits: int
    definition: str
    recompute: object = field(default=None, repr=False, compare=False)  # () -> float


def _infinite_product(factor, start, floor_deviation=1e-17, limit=200_000):
    """prod_{j>=start} factor(j); factor deviations must decay to 0."""
    p, j = 1.0, start
    while True:
        f = factor(j)
        p *= f
        if abs(f - 1.0) < floor_deviation and j > start + 4:
            return p
        j += 1
        if j - start > limit:
            raise BudgetExceeded("infinite product did not settle")


def _span(x):  # (min, max) of a float or an array
    return (np.min(x), np.max(x)) if isinstance(x, np.ndarray) else (x, x)


def _power_sum(base, exponent, start, floor_term=1e-18, limit=10_000):
    """sum_{j>=start} base**exponent(j) for superexponentially growing exponents.

    An array base is summed until the terms of every entry are below floor_term.
    """
    s, j = 0.0, start
    while True:
        t = base ** exponent(j)
        s = s + t
        if _span(t)[1] < floor_term:
            return s
        j += 1
        if j - start > limit:
            raise BudgetExceeded("power sum did not settle")


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
    tabulated chi_j values realize.  An array rho gives an array.
    """
    return _chord_triple(rho, j, 1, 2, 3)


def B_j(rho, j):
    """Variant of A_j for the rotation pattern that pins the middle factor at mu_4."""
    return _chord_triple(rho, j, 1, 4, 1)


def _chord_triple(rho, j, a, b, c):
    lo, hi = _span(rho)
    if not (0.0 < lo and hi <= 0.6):
        raise DomainError(f"rho must lie in (0, 0.6], got {rho!r}")
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j!r}")
    return mu(a, rho ** (3 * j - 2.5)) * mu(b, rho ** (3 * j - 1.5)) * mu(c, rho ** (3 * j - 0.5))


def phi_flat(r):
    """sum_{j>=2} r^{j(j-2)/2}, r a float or an array: bound on the tail from the z^2 term on."""
    lo, hi = _span(r)
    if not (0.0 < lo and hi < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    return _power_sum(r, lambda j: j * (j - 2) / 2.0, 2)


def phi_star(r):
    """sqrt(1 + 1/r), r a float or an array: bound for |1 + z| on |z| = r^{-1/2}, Re z >= 0."""
    lo, hi = _span(r)
    if not (0.0 < lo and hi < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    return (np.sqrt if isinstance(r, np.ndarray) else math.sqrt)(1.0 + 1.0 / r)


def _gamma():
    return _infinite_product(lambda j: 1.0 - 0.6 ** j, 12)


def _eta():
    return _infinite_product(lambda j: abs(0.6 ** (j - 4.5) - 1.0), 1)


def _xi():
    return _infinite_product(lambda j: 1.0 - 0.6 ** (j + 4.5), 0)


def _chi5():
    return _infinite_product(lambda k: 1.0 - 0.6 ** (k - 3.5), 16)


def _chi0():
    return mu(3, 0.6 ** -2.5) * mu(2, 0.6 ** -1.5) * mu(1, 0.6 ** -0.5)


def _g_bound(half_exponent):
    # sum_{j>=1} 0.6^{j(j-1)/2 + half_exponent * j}
    return _power_sum(0.6, lambda j: j * (j - 1) / 2.0 + half_exponent * j, 1)


def _a0():
    return 1.0 + _power_sum(0.6, lambda j: j * (j - 1) / 2.0 - 1.5 * j, 4)


def _a_tail_bound():
    return _power_sum(0.6, lambda j: j * (j - 1) / 2.0 - 1.5 * j, 8)


def _qur_floor_k4():
    chi_star = A_j(0.6, 2) * A_j(0.6, 3) * A_j(0.6, 4) * _chi5()
    return 1.2 * _chi0() * A_j(0.6, 1) * chi_star ** 2


REFERENCE_CONSTANTS = {c.name: c for c in (
    ReferenceConstant(  # quoted input, not derivable from the material in scope
        "c0", 0.2078750206, 10,
        "radius below which strong modulus-separation of the zeros is already known", lambda: C0),
    ReferenceConstant("alpha0", 0.2756644477, 10, "sqrt(3) / (2 pi)",
                      lambda: math.sqrt(3.0) / (2.0 * math.pi)),
    ReferenceConstant("exp_inv_alpha0", 37.62236657, 10,
                      "e^{1/alpha0}, common limit of the annulus radii m_n and M_n",
                      lambda: math.exp(2.0 * math.pi / math.sqrt(3.0))),
    ReferenceConstant("gamma", 0.9945691384, 10, "prod_{j>=12} (1 - 0.6^j)", _gamma),
    ReferenceConstant("Q0_floor", 1.206552620, 10,
                      "1.2 / gamma, required boundary floor for prod_{j<=11} (1 - q^j)",
                      lambda: 1.2 / _gamma()),
    ReferenceConstant("eta", 0.2411047426, 10, "prod_{j>=1} |0.6^{j-9/2} - 1|", _eta),
    ReferenceConstant("xi", 0.7715882456, 10, "prod_{j>=0} (1 - 0.6^{j+9/2})", _xi),
    ReferenceConstant("qur_floor_k5", 0.2232403024, 10,
                      "1.2 * eta * xi: product floor on |z| = |q|^{-k+1/2}, k >= 5",
                      lambda: 1.2 * _eta() * _xi()),
    ReferenceConstant("g_bound_k5", 0.1066576686, 10, "sum_{j>=1} 0.6^{j(j-1)/2 + 9j/2}",
                      lambda: _g_bound(4.5)),
    ReferenceConstant("g_bound_k4", 0.1851580824, 10, "sum_{j>=1} 0.6^{j(j-1)/2 + 7j/2}",
                      lambda: _g_bound(3.5)),
    ReferenceConstant("chi0", 1.742379963, 10,
                      "mu3(0.6^{-5/2}) mu2(0.6^{-3/2}) mu1(0.6^{-1/2})", _chi0),
    ReferenceConstant("chi1", 0.1749135662, 10, "A_1(0.6)", lambda: A_j(0.6, 1)),
    ReferenceConstant("chi2", 0.7772399345, 10, "A_2(0.6)", lambda: A_j(0.6, 2)),
    ReferenceConstant("chi3", 0.9492771959, 10, "A_3(0.6)", lambda: A_j(0.6, 3)),
    ReferenceConstant("chi4", 0.9889171980, 10, "A_4(0.6)", lambda: A_j(0.6, 4)),
    ReferenceConstant("chi5", 0.9957913379, 10, "prod_{k>=16} (1 - 0.6^{k-7/2})", _chi5),
    ReferenceConstant("qur_floor_k4", 0.1930636291, 10,
                      "1.2 chi0 chi1 (chi2 chi3 chi4 chi5)^2: product floor on |z| = |q|^{-7/2}",
                      _qur_floor_k4),
    ReferenceConstant("phi_star_06", 1.632993162, 10, "sqrt(1 + 1/0.6)", lambda: phi_star(0.6)),
    ReferenceConstant("phi_flat_06", 1.618354488, 10, "sum_{j>=2} 0.6^{j(j-2)/2}",
                      lambda: phi_flat(0.6)),
    ReferenceConstant("phi_flat_03_minus_1", 0.1725370862, 10, "sum_{j>=3} 0.3^{j(j-2)/2}",
                      lambda: phi_flat(0.3) - 1.0),
    ReferenceConstant("a0", 2.330487021, 10, "1 + sum_{j>=4} 0.6^{j(j-1)/2 - 3j/2}", _a0),
    ReferenceConstant("xiB_floor_wide_arg", 2.405626123, 10,
                      "0.6^{-3/2} sqrt(3/(4*0.6)): |xi B| floor for arg(q) in [2pi/3, pi]",
                      lambda: 0.6 ** -1.5 * math.sqrt(3.0 / (4.0 * 0.6))),
    ReferenceConstant("xiB_floor_small_q", 2.337543079, 10,
                      "0.55^{-2}/sqrt(2): |xi B| floor for |q| <= 0.55",
                      lambda: 0.55 ** -2 / SQRT2),
    ReferenceConstant("a_tail_bound", 0.0002925303367, 10,
                      "sum_{j>=8} 0.6^{j(j-1)/2 - 3j/2}", _a_tail_bound),
    ReferenceConstant(
        "tau_pinch_modulus", 0.3431457506, 10,
        "modulus where (2|q|)^{-1/2} - 2^{-1/2} = 1/2 (weakest point of the 3A bound)",
        lambda: 0.5 / (0.5 + 2.0 ** -0.5) ** 2),
    ReferenceConstant("case4d_drop", 0.7470048804, 10,
                      "-(0.6^{-1/2} cos(11pi/12) + 1 + cos(8pi/3))",
                      lambda: -(0.6 ** -0.5 * math.cos(11 * math.pi / 12)
                                + 1.0 + math.cos(8 * math.pi / 3))),
)}


def recompute_constant(name):
    """Recompute a registry constant from its defining formula."""
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

def mu_samples(samples):
    """mu's sample count in a battery run with `samples`: the same, at least 100."""
    return max(samples, 100)


def mu_properties_check(samples=2000, seed=20260811):
    """Sampled checks of the chord-bound family.

    Verifies, on random moduli: the strict ordering mu_4 > mu_3 > mu_2 > mu_1
    for m > 0; that each mu_j is increasing for m >= 1; and the exchange
    inequality mu_l(m1) mu_m(m2) > mu_l(m2) mu_m(m1) for 1 >= m1 > m2 > 0
    and 3 >= l > m >= 1.
    """
    if samples < 100:
        raise DomainError("samples must be >= 100")
    # per sample m, lo - 1, hi - lo, m2, m1, mapped as rng.uniform(low, high) maps a draw
    u = np.random.default_rng(seed).random((samples, 5))
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


def verify_AB_monotone(j_max=6, grid_points=2000):
    """Sampled strict decrease of A_j and B_j on (0, 0.6].

    For larger j both functions saturate to 1.0 in double precision as
    rho -> 0 (the deviations fall below one ulp), so exact float ties
    between adjacent grid points get one ulp of slack; any representable
    increase still fails the check.
    """
    if j_max < 4:
        raise DomainError("j_max must be >= 4")
    if grid_points < 1000:
        raise DomainError("grid_points must be >= 1000")
    ulp_tie = 5e-16
    rhos = np.linspace(0.6 / grid_points, 0.6, grid_points)
    computed = {}
    margins = {}
    for j in range(1, j_max + 1):
        a, b = A_j(rhos, j), B_j(rhos, j)
        margins[f"A_{j}_decreasing"] = float(np.min(a[:-1] - a[1:])) + ulp_tie
        margins[f"B_{j}_decreasing"] = float(np.min(b[:-1] - b[1:])) + ulp_tie
        computed[f"A_{j}(0.6)"] = A_j(0.6, j)
        computed[f"B_{j}(0.6)"] = B_j(0.6, j)
    return VerificationReport.build("AB", computed, margins)


# ---------------------------------------------------------------------------
# Product floor on the boundary of the left half-disk
# ---------------------------------------------------------------------------

def _partial_q_product(qs, degree=11):
    """prod_{j=1}^{degree} (1 - q^j) over an array of q values."""
    qs = np.asarray(qs, dtype=complex)
    p = np.ones(qs.shape, dtype=complex)
    power = np.ones(qs.shape, dtype=complex)
    for _ in range(degree):
        power = power * qs
        p = p * (1.0 - power)
    return p


DEFAULT_Q_GRID = GridSpec((0.6 / 2000, 0.6), 2000, (math.pi / 2, math.pi), 2000)


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
    gamma = _gamma()
    floor = 1.2 / gamma
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
    eta = _eta()
    xi = _xi()
    floor = 1.2 * eta * xi
    g_bound = _g_bound(4.5)
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
    chi0 = _chi0()
    chis = {j: A_j(0.6, j) for j in (1, 2, 3, 4)}
    bs = {j: B_j(0.6, j) for j in (1, 2, 3, 4)}
    chi5 = _chi5()
    chi_star = chis[2] * chis[3] * chis[4] * chi5
    floor = 1.2 * chi0 * chis[1] * chi_star ** 2
    g_bound = _g_bound(3.5)
    computed = {"chi0": chi0, "chi5": chi5, "chi_star": chi_star,
                "qur_floor": floor, "g_bound": g_bound}
    computed.update({f"chi{j}": chis[j] for j in (1, 2, 3, 4)})
    margins = {
        "product_exceeds_tail": floor - g_bound,
        "floor_digits": agreement_margin(floor, REFERENCE_CONSTANTS["qur_floor_k4"].value),
        "g_bound_digits": agreement_margin(g_bound, REFERENCE_CONSTANTS["g_bound_k4"].value),
        "A_below_B": min(bs[j] - chis[j] for j in (1, 2, 3, 4)),
    }
    for j in range(6):
        name = f"chi{j}"
        margins[f"{name}_digits"] = agreement_margin(computed[name],
                                                     REFERENCE_CONSTANTS[name].value)
    return VerificationReport.build("k4", computed, margins)


# ---------------------------------------------------------------------------
# Circle exclusion for k = 1 (|z| = |q|^{-3/2}), via the shifted series
# ---------------------------------------------------------------------------

def verify_lemma_k1_cases(samples=2000, t_samples=4096):
    """Recompute every numeric landmark of the sector case analysis.

    Each case bounds |1 + z + q z^2| (or a sub-sum) from below on
    |z| = |q|^{-1/2} and compares the bound against the tail majorant
    phi_flat - 1 (or phi_flat); the margins below are the recomputed slacks.
    """
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples!r}")
    c0 = C0
    pf06 = phi_flat(0.6)
    ps06 = phi_star(0.6)
    tail_cap = pf06 - 1.0
    pf03m1 = phi_flat(0.3) - 1.0

    rgrid = np.linspace(c0, 0.6, samples)
    ps_vals = phi_star(rgrid)
    pf_vals = phi_flat(rgrid)

    # weakest point of the two-sided 3A estimate sqrt((1-2 tau)^2/2 + 1/2)
    tau = (2.0 * rgrid) ** -0.5 - 2.0 ** -0.5
    bound_3a = np.sqrt((1.0 - 2.0 * tau) ** 2 / 2.0 + 0.5)
    i_min = int(np.argmin(bound_3a))
    pinch_closed = 0.5 / (0.5 + 2.0 ** -0.5) ** 2
    spacing = float(rgrid[1] - rgrid[0])

    imag_branch_3a = (2.0 * 0.6) ** -0.5
    b3c_mid = 1.0 + 0.3 ** -0.5 * math.cos(5 * math.pi / 8) + math.cos(13 * math.pi / 8)
    b3c_small = 1.0 + c0 ** -0.5 * math.cos(5 * math.pi / 8) + math.cos(13 * math.pi / 8)
    b3e_re = 1.0 + c0 ** -0.5 * math.cos(9 * math.pi / 16)
    b3e_im = 0.6 ** -0.5 * math.sin(9 * math.pi / 16) - 1.0
    b4a = 0.6 ** -0.5 * math.sin(5 * math.pi / 6)
    b4b = 0.6 ** -0.5 * math.sin(11 * math.pi / 12) + math.sin(13 * math.pi / 6)
    shift = 0.6 ** -0.5 * math.cos(11 * math.pi / 12) + 1.0
    phis = np.linspace(5 * math.pi / 2, 17 * math.pi / 6, t_samples)
    t_vals = np.sqrt(np.sin(phis) ** 2 + (shift + np.cos(phis)) ** 2)
    b4d = -(shift + math.cos(8 * math.pi / 3))

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


DEFAULT_K1_GRID = GridSpec((C0, 0.6), 80, (math.pi / 2, math.pi), 80)
DEFAULT_K1_Z_STEPS = 720


def k2_z_steps(k1_z_steps):
    """k2's circle samples for a run with k1_z_steps on the k1 circle: half, at least 128."""
    return max(128, k1_z_steps // 2)


def _circle_sum(rho, omegas, z_modulus, powers, q_exponents, basis):
    """sum_j q^{e_j} z^{p_j} at q = rho e^{i omega} (rows), z = z_modulus e^{i psi} (columns).

    The grid is an outer product, so the sum is one matrix product C @ V[p] with
    C[i, j] = rho^{e_j} z_modulus^{p_j} e^{i e_j omega_i} and basis V[p, k] = e^{i p psi_k}.
    """
    e = np.asarray(q_exponents, dtype=float)
    moduli = rho ** e * z_modulus ** np.asarray(powers, dtype=float)
    return (moduli * np.exp(1j * np.outer(omegas, e))) @ basis[powers]


def _scan_min(grid, z_steps, max_power, row_values):
    """Minimum over the grid of row_values(rho, omegas, basis), and its (rho, omega, psi).

    Rows are evaluated one modulus at a time, so memory stays one row; the basis
    e^{i p psi_k}, p <= max_power, is built once for all rows.
    """
    psis = np.linspace(0.0, 2.0 * math.pi, z_steps, endpoint=False)
    omegas = grid.arguments()
    basis = np.exp(1j * np.outer(np.arange(max_power + 1), psis))
    best, best_at = math.inf, (math.nan, math.nan, math.nan)
    for rho in grid.moduli():
        vals = row_values(float(rho), omegas, basis)
        i, k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[i, k] < best:
            best, best_at = float(vals[i, k]), (float(rho), float(omegas[i]), float(psis[k]))
    return best, best_at


def _theta_dagger_terms(rho, tolerance=1e-16):
    """(n, bound): theta_dagger on |z| = rho^{-1/2}, summed over j < n, drops a tail <= bound.

    Term moduli t_j = rho^{j(j-2)/2} have ratios rho^{j-1/2}, falling in j, so the tail
    from term n on is at most t_n / (1 - rho^{n-1/2}); n is the least with bound <= tolerance.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho!r}")
    n = 2
    while (bound := rho ** (n * (n - 2) / 2.0) / (1.0 - rho ** (n - 0.5))) > tolerance:
        n += 1
    return n, bound


def verify_lemma_k1_direct(grid=DEFAULT_K1_GRID, z_steps=DEFAULT_K1_Z_STEPS):
    """Direct scan: min |theta_dagger| on |z| = |q|^{-1/2} over the left quarter-disk.

    arg(q) in [pi/2, pi] suffices by conjugation symmetry.  Each modulus row
    is one matrix product of the series coefficients with the powers
    e^{i j psi} (`_circle_sum`), summed to the term count of the proven
    geometric tail (`_theta_dagger_terms`); the largest dropped-tail bound is
    reported as `tail_bound`.  The minimum must be strictly positive; its
    value and location are reported so resolution slack can be judged.
    """
    terms = {rho: _theta_dagger_terms(rho) for rho in map(float, grid.moduli())}

    def row(rho, omegas, basis):
        j = np.arange(terms[rho][0])
        return np.abs(_circle_sum(rho, omegas, rho ** -0.5, j, j * (j - 1) / 2, basis))

    counts, tails = zip(*terms.values())
    best, at = _scan_min(grid, z_steps, max(counts) - 1, row)
    computed = {"min_abs": best, "at_modulus": at[0], "at_q_argument": at[1],
                "at_z_argument": at[2], "z_points": float(z_steps), "tail_bound": max(tails)}
    return VerificationReport.build("k1_direct", computed, {"min_abs_positive": best}, grid)


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


DEFAULT_K2_GRID = GridSpec((0.55, 0.6), 60, (math.pi / 2, 2 * math.pi / 3), 60)


def verify_lemma_k2(grid=DEFAULT_K2_GRID, z_steps=k2_z_steps(DEFAULT_K1_Z_STEPS)):
    """Dominance |xi B| > |A| on |xi| = |q|^{-3/2} (i.e. |z| = |q|^{-5/2}).

    Analytic branches: (i) |A| <= a0 always; (ii) for arg(q) in [2pi/3, pi]
    or |q| <= 0.55 the floors 2.4056... and 2.3375... both exceed a0.  The
    remaining corner arg(q) in [pi/2, 2pi/3], |q| in [0.55, 0.6] is scanned:
    A is split as A* (terms j <= 7) plus a tail A** bounded by
    0.0002925...; the margin min(|xi B| - |A*| - bound) is reported as
    observed, not certified.  On each modulus row B = 1 + q xi + q^3 xi^2
    and A* = 1 + q^6 xi^4 + q^10 xi^5 + q^15 xi^6 + q^21 xi^7 are each one
    matrix product of their coefficients with the powers e^{i j psi}
    (`_circle_sum`); both polynomials are exact, so only A** is bounded.
    """
    a0 = _a0()
    tail = _a_tail_bound()
    wide, small = (recompute_constant(n) for n in ("xiB_floor_wide_arg", "xiB_floor_small_q"))

    def row(rho, omegas, basis):
        xi_mod = rho ** -1.5
        b_vals = _circle_sum(rho, omegas, xi_mod, [0, 1, 2], [0, 1, 3], basis)
        a_star = _circle_sum(rho, omegas, xi_mod, [0, 4, 5, 6, 7], [0, 6, 10, 15, 21], basis)
        return xi_mod * np.abs(b_vals) - np.abs(a_star) - tail

    worst, worst_at = _scan_min(grid, z_steps, 7, row)
    computed = {"a0": a0, "a_tail_bound": tail,
                "xiB_floor_wide_arg": wide, "xiB_floor_small_q": small,
                "grid_min_margin": worst, "at_modulus": worst_at[0],
                "at_q_argument": worst_at[1], "at_xi_argument": worst_at[2]}
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

def verify_all(q_grid=DEFAULT_Q_GRID, k1_grid=DEFAULT_K1_GRID, k2_grid=DEFAULT_K2_GRID,
               z_steps=DEFAULT_K1_Z_STEPS, samples=2000):
    """Run every named verification; returns an ordered {id: report} map."""
    return {
        "constants": verify_constants(),
        "mu": mu_properties_check(samples=mu_samples(samples)),
        "AB": verify_AB_monotone(),
        "Q": verify_lemma_Q(grid=q_grid),
        "k5": verify_lemma_k5(),
        "k4": verify_lemma_k4(),
        "k1": verify_lemma_k1(grid=k1_grid, z_steps=z_steps, samples=samples),
        "k2": verify_lemma_k2(grid=k2_grid, z_steps=k2_z_steps(z_steps)),
    }

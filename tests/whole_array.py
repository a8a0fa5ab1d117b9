"""The whole coefficient array of a circle scan, the reference that the tests hold
`lemmas._Scan.rows`, which forms single rows of it, against."""

import math

import numpy as np


def coefficients(rhos, z_moduli, powers, q_exponents, omegas, counts=math.inf):
    """(C, moduli): C[r, i, j] = moduli[r, j] e^{i e_j omega_i}, moduli[r, j] = rho_r^e_j z_r^p_j,
    or exact 0 from j = counts[r] on.

    z_moduli are scalar powers such as rho ** -0.5, which numpy's array power rounds otherwise.
    """
    e, p = np.asarray(q_exponents, dtype=float), np.asarray(powers, dtype=float)
    moduli = rhos[:, None] ** e * np.asarray(z_moduli)[:, None] ** p
    moduli *= np.arange(p.size) < np.asarray(counts)[..., None]
    return moduli[:, None, :] * np.exp(1j * np.outer(omegas, e)), moduli

"""Partial theta function: certified evaluation, zero separation, constant checks."""

import importlib

from .asymptotics import AsymptoticRow, alpha0, table, table_row
from .core import (
    C0,
    DEFAULT_BUDGET,
    EvalResult,
    QParameter,
    SeriesBudget,
    eval_G,
    eval_Q,
    eval_R,
    eval_U,
    eval_theta,
    eval_theta_and_dz,
    eval_theta_dagger,
    eval_theta_dz,
    eval_theta_star,
)
from .errors import (
    BudgetExceeded,
    ContourTooClose,
    DomainError,
    NoConvergence,
    ThetaError,
    ZeroArgument,
)

# `lemmas` and `zeros` (and numpy, which both import) load on first use (PEP 562), so that
# `import thetasep` and the commands that need neither start quickly.
_LAZY = {
    "lemmas": (
        "A_j", "B_closed_form", "B_j", "GridSpec", "REFERENCE_CONSTANTS", "VerificationReport",
        "mu", "mu_properties_check", "phi_flat", "phi_star", "recompute_constant",
        "verify_AB_monotone", "verify_all", "verify_constants", "verify_lemma_Q",
        "verify_lemma_k1", "verify_lemma_k1_cases", "verify_lemma_k1_direct", "verify_lemma_k2",
        "verify_lemma_k4", "verify_lemma_k5",
    ),
    "zeros": (
        "Annulus", "SeparationReport", "WindingResult", "ZeroRecord", "count_zeros_in_annulus",
        "locate_zero", "verify_separation", "winding_number", "winding_numbers",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

"""Verification suite for fractional powers of the Laplacian realized as
generalized Dirichlet-to-Neumann maps of weighted poly-Laplacian extension
problems, with exact operator calculus and sharp trace-inequality checks."""

import os

# fractrace computes on one thread; a second OpenBLAS thread only spins at start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .gammacore import (
    ExactConstant,
    GammaDomainError,
    GammaParams,
    PoleError,
    cs_normalization,
    dtn_constant_even,
    dtn_constant_odd,
    parse_gamma,
    pochhammer_ratio,
    symmetry_constant,
    yang_constant,
)
from .modes import GridField, dtn_apply, fractional_laplacian_fft, solve_extension
from .report import VerificationReport

__all__ = [
    "ExactConstant",
    "GammaDomainError",
    "GammaParams",
    "GridField",
    "PoleError",
    "VerificationReport",
    "cs_normalization",
    "dtn_apply",
    "dtn_constant_even",
    "dtn_constant_odd",
    "fractional_laplacian_fft",
    "parse_gamma",
    "pochhammer_ratio",
    "solve_extension",
    "symmetry_constant",
    "yang_constant",
]

__version__ = "0.1.0"

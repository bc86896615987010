"""Verification suite for fractional powers of the Laplacian realized as
generalized Dirichlet-to-Neumann maps of weighted poly-Laplacian extension
problems, with exact operator calculus and sharp trace-inequality checks.

The boundary data and operators come in two families, named in FAMILIES by
their branch shift s: the even family (s = 0) on y^(2j) and the odd family
(s = 1) on y^(2[g]+2j).  One rule in s serves both, with the base 1 - [g] or
[g]; dtn_constant(params, family, j) is its DtN constant."""

import os

# fractrace's numpy work runs on one thread per process (verify's second
# worker is a forked process); a second OpenBLAS thread only spins at start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .gammacore import (
    FAMILIES,
    ExactConstant,
    GammaDomainError,
    GammaParams,
    PoleError,
    cs_normalization,
    dtn_constant,
    parse_gamma,
    pochhammer_ratio,
    symmetry_constant,
    yang_constant,
)
from .modes import GridField, dtn_apply, fractional_laplacian_fft, solve_extension
from .report import VerificationReport

__all__ = [
    "FAMILIES",
    "ExactConstant",
    "GammaDomainError",
    "GammaParams",
    "GridField",
    "PoleError",
    "VerificationReport",
    "cs_normalization",
    "dtn_apply",
    "dtn_constant",
    "fractional_laplacian_fft",
    "parse_gamma",
    "pochhammer_ratio",
    "solve_extension",
    "symmetry_constant",
    "yang_constant",
]

__version__ = "0.1.0"

"""Modified Bessel kernel K_nu for the per-mode extension profiles.

A vectorized wrapper over ``scipy.special.kv`` and ``kvp`` (AMOS; Amos 1986,
ACM TOMS Algorithm 644).  It only adds the domain check: K_nu is singular at
t = 0 and undefined for t < 0, so t <= 0 is rejected rather than returned as
inf or nan.

``scipy.special`` is imported on the first call, not with the module: most
commands (``dtn``, ``fraclap``, ``sharpness``, shallow ``extend``) never
evaluate the kernel, and the import costs more than their whole computation.
"""

from __future__ import annotations

import numpy as np


class BesselDomainError(ValueError):
    pass


def _positive(t):
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise BesselDomainError(f"bessel_k requires t > 0, got min {np.min(t)}")
    return t


def bessel_k(nu: float, t):
    """K_nu(t) for t > 0, elementwise over scalars or arrays."""
    from scipy.special import kv

    return kv(nu, _positive(t))


def bessel_k_dt(nu: float, t):
    """d/dt K_nu(t) for t > 0, elementwise over scalars or arrays."""
    from scipy.special import kvp

    return kvp(nu, _positive(t))

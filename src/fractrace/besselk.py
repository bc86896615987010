"""Modified Bessel kernel K_nu for the per-mode extension profiles.

K_nu comes from the integral representation

    K_nu(t) = int_0^inf exp(-t cosh s) cosh(nu s) ds        (DLMF 10.32.9),

summed by the trapezoidal rule in s.  The integrand is analytic in the strip
|Im s| < pi/2 and decays double-exponentially, so the rule converges
exponentially in 1/h (Trefethen & Weideman, SIAM Rev. 56, 2014).  The step is
h = 0.1; above t = 60 it shrinks like t^(-1/2), with the width of the
integrand's peak at s = 0.  The nodes run from s = 0 until the exponent
-t cosh s + |nu| s of the smallest t has fallen 40 below its peak.  Measured
against ``scipy.special.kv`` over nu in [-27, 27] and t in [1e-4, 600], the
relative error is at most 1.3e-13 (tests/test_besselk.py).

The block exp(-t cosh s) does not depend on nu, so bessel_k takes an array
of orders and sums each of them over the one block of the largest |nu|: a
caller that needs several orders at the same t asks once.

K_nu' = -K_(|nu|-1) - (|nu|/t) K_|nu| (DLMF 10.29.2) takes two kernel calls;
its terms share a sign, and it is within 6.5e-14 of ``scipy.special.kvp``.

The kernel needs numpy only, so a command that evaluates it loads no scipy.
K_nu is singular at t = 0 and undefined for t < 0, so t <= 0 is rejected
rather than returned as inf or nan.
"""

from __future__ import annotations

import math

import numpy as np

STEP = 0.1            # trapezoidal step in s for t <= FLAT_T
FLAT_T = 60.0         # above: the step shrinks as (FLAT_T / t)^(1/2)
UNDERFLOW_T = 750.0   # above: exp(-t cosh s) underflows at every node
DROP = 40.0           # the last node's exponent lies this far below the peak
BLOCK = 1 << 18       # t values x nodes per block of the outer product


class BesselDomainError(ValueError):
    pass


def _positive(t):
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise BesselDomainError(f"bessel_k requires t > 0, got min {np.min(t)}")
    return t


def _nodes(nu: float, t_min: float, t_max: float):
    """Trapezoidal step and nodes s = 0, h, 2h, ... for this call's t range."""
    h = STEP * math.sqrt(FLAT_T / min(max(t_max, FLAT_T), UNDERFLOW_T))
    a = abs(nu)
    # past its peak at asinh(a/t) the exponent falls at least as fast as
    # -t (cosh u - 1) in the distance u from the peak, so this end is enough
    end = math.asinh(a / t_min) + math.acosh(1.0 + DROP / t_min)
    s = h * np.arange(int(end / h) + 2)
    with np.errstate(over="ignore"):   # nodes far past the end, trimmed below
        exponent = a * s - t_min * np.cosh(s)
    last = np.flatnonzero(exponent >= exponent.max() - DROP)[-1]
    return h, s[:last + 2]


def bessel_k(nu, t):
    """K_nu(t) for t > 0, elementwise over scalars or arrays of t.

    nu is one order or an array of them; an array gives nu.shape + t.shape,
    from one product of the block with the weights h cosh(nu s) of every
    order.  The nodes are those of the largest |nu|: a smaller order's own
    nodes end sooner, and the ones past them add terms below its DROP cut.
    Each order is still its own quadrature sum, never a recurrence from
    another, and one order alone gets the scalar call's nodes and bytes."""
    t = _positive(t)
    nu = np.asarray(nu, dtype=float)
    if t.size == 0:
        return np.empty(nu.shape + t.shape)
    flat = t.ravel()
    h, s = _nodes(float(np.abs(nu).max()), float(flat.min()), float(flat.max()))
    cosh_s = np.cosh(s)
    orders = nu.reshape(-1) if nu.ndim else nu   # one order keeps one weight vector
    weights = h * np.cosh(np.multiply.outer(s, orders))
    weights[0] *= 0.5
    out = np.empty(orders.shape + flat.shape)
    rows = max(1, BLOCK // s.size)
    for i in range(0, flat.size, rows):
        block = np.multiply.outer(-flat[i:i + rows], cosh_s)
        out[..., i:i + rows] = (np.exp(block, out=block) @ weights).T
    return out.reshape(nu.shape + t.shape)[()]


def bessel_k_dt(nu: float, t):
    """d/dt K_nu(t) for t > 0, elementwise over scalars or arrays."""
    a = abs(nu)
    return -bessel_k(a - 1.0, t) - a / _positive(t) * bessel_k(a, t)

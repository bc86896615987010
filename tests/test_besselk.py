"""Bessel kernel wrapper against closed forms, the small-t expansion, and the
classical Wronskian."""

import math

import numpy as np
import pytest
from scipy import special

from fractrace import besselk
from fractrace.besselk import BesselDomainError, bessel_k, bessel_k_dt


def test_half_order_closed_form():
    # K_(1/2)(t) = sqrt(pi/(2t)) e^(-t); frozen value at t = 1
    assert bessel_k(0.5, 1.0) == pytest.approx(0.4610685044478946, rel=1e-12)
    t = np.array([0.3, 1.7, 4.0, 12.0])
    np.testing.assert_allclose(bessel_k(0.5, t), np.sqrt(np.pi / (2 * t)) * np.exp(-t), rtol=1e-11)


def test_small_t_leading_behavior():
    t, nu = 1e-4, 0.3
    # two-term reflection form is accurate to O(t^2) relative
    s = math.sin(math.pi * nu)
    two_term = math.pi / (2 * s) * ((t / 2) ** (-nu) / math.gamma(1 - nu)
                                    - (t / 2) ** nu / math.gamma(1 + nu))
    assert bessel_k(nu, t) == pytest.approx(two_term, rel=1e-6)
    # pure leading term converges only at the O(t^(2 nu)) rate
    lead = math.gamma(nu) / 2.0 * (t / 2) ** (-nu)
    assert abs(bessel_k(nu, t) / lead - 1.0) <= 2.5 * (t / 2) ** (2 * nu)


def test_wronskian():
    # I_nu K_nu' - I_nu' K_nu = -1/t
    t, nu = np.array([0.5, 2.0, 7.5]), 0.7
    w = special.iv(nu, t) * bessel_k_dt(nu, t) - special.ivp(nu, t) * bessel_k(nu, t)
    np.testing.assert_allclose(w, -1.0 / t, rtol=1e-10)


def test_domain_errors():
    for fn in (bessel_k, bessel_k_dt):
        with pytest.raises(BesselDomainError):
            fn(0.5, 0.0)
        with pytest.raises(BesselDomainError):
            fn(0.5, -1.0)
        with pytest.raises(BesselDomainError):
            fn(0.5, np.array([1.0, 2.0, 0.0]))


# Worst relative error measured against scipy over the grid below: 1.3e-13
# for K (at nu = +-1/9) and 6.5e-14 for K' (DLMF 10.29.2).  The quarter steps cover the
# nu - j that ode_residual reaches at the cap; the orders p/q + s with
# q <= 9 and |s| <= 9 cover the fractional parts of admissible gamma.  t runs
# past the step's shrink at 60.
KERNEL_RTOL = 2e-13
ORDERS = np.union1d(np.linspace(-27.0, 27.0, 217),
                    [p / q + s for q in range(2, 10) for p in range(1, q)
                     if math.gcd(p, q) == 1 for s in range(-9, 10)])
TS = np.geomspace(1e-4, 600.0, 500)


def _worst_kernel_error():
    worst = 0.0
    for nu in ORDERS:
        for mine, ref in ((bessel_k, special.kv), (bessel_k_dt, special.kvp)):
            worst = max(worst, float(np.max(np.abs(mine(nu, TS) / ref(nu, TS) - 1.0))))
    return worst


def test_kernel_matches_scipy():
    assert _worst_kernel_error() <= KERNEL_RTOL


def test_kernel_accuracy_check_catches_a_coarse_step(monkeypatch):
    monkeypatch.setattr(besselk, "STEP", 2 * besselk.STEP)
    assert _worst_kernel_error() > KERNEL_RTOL


def test_scalar_in_scalar_out():
    for fn in (bessel_k, bessel_k_dt):
        assert np.ndim(fn(0.5, 1.0)) == 0
        assert fn(1.5, np.array([[1.0, 2.0, 3.0]])).shape == (1, 3)


def test_blocks_agree_with_one_pass(monkeypatch):
    t = np.linspace(2.0, 30.0, 1000)
    whole = bessel_k_dt(3.25, t)
    monkeypatch.setattr(besselk, "BLOCK", 64)
    np.testing.assert_allclose(bessel_k_dt(3.25, t), whole, rtol=4 * np.finfo(float).eps)

"""Bessel kernel wrapper against closed forms, the small-t expansion, and the
classical Wronskian."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from fractrace import besselk
from fractrace.besselk import BesselDomainError, bessel_k, bessel_k_dt
from fractrace.cli import DEFAULT_GAMMAS
from fractrace.gammacore import GammaParams
from fractrace.modes import all_profiles


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


def test_an_array_of_orders_gives_one_row_per_order():
    """An array of orders gives nu.shape + t.shape, and one order in an
    array is the scalar call's bytes: the same nodes and weights."""
    t = np.array([[2.0, 2.5, 6.0], [12.0, 24.0, 30.0]])
    nus = np.array([[0.5, -1.25], [7.75, -9.0]])
    got = bessel_k(nus, t)
    assert got.shape == nus.shape + t.shape
    for idx in np.ndindex(nus.shape):
        np.testing.assert_allclose(got[idx], bessel_k(float(nus[idx]), t), rtol=1e-15, atol=0)
    assert bessel_k(nus, 1.0).shape == nus.shape
    assert bessel_k(nus, np.empty((0, 3))).shape == nus.shape + (0, 3)
    for nu in ORDERS:
        assert np.array_equal(bessel_k(np.array([nu]), TS)[0], bessel_k(nu, TS))


def _caller_order_sets():
    """(orders, t) as the profile code asks for them at verify's default and
    near-cap orders: nu - j for j <= 2k at ode_residual's samples and seam,
    and every profile's nu on the Bessel window."""
    window = np.geomspace(2.0, 30.0, 64)
    for gamma in DEFAULT_GAMMAS + ["11/2", "13/2", "15/2", "31/4"]:
        profiles = all_profiles(GammaParams(Fraction(gamma)))
        k = len(profiles)
        for prof in profiles:
            yield prof.nu_f - np.arange(2 * k + 1), np.array([2.5, 6.0, 12.0, 24.0, 2.0])
            yield np.array([prof.nu_f, prof.nu_f - 1.0]), window
        yield np.array([prof.nu_f for prof in profiles]), window


def test_array_rows_match_the_scalar_calls():
    """Each row of one block is the scalar call to 1e-15 relative on the
    order sets the profiles ask for; the whole grid below in one block,
    with the nodes of |nu| = 27 down to t = 1e-4, stays within 16 ulps of
    the scalar calls (10 measured) and within KERNEL_RTOL of scipy."""
    for orders, t in _caller_order_sets():
        rows = bessel_k(orders, t)
        for nu, row in zip(orders, rows):
            np.testing.assert_allclose(row, bessel_k(nu, t), rtol=1e-15, atol=0)
    block = bessel_k(ORDERS, TS)
    scalar = np.array([bessel_k(nu, TS) for nu in ORDERS])
    assert np.max(np.abs(block / scalar - 1.0)) <= 16 * np.finfo(float).eps
    assert np.max(np.abs(block / special.kv(ORDERS[:, None], TS) - 1.0)) <= KERNEL_RTOL

"""Bessel kernel wrapper against closed forms, the small-t expansion, and the
classical Wronskian."""

import math

import numpy as np
import pytest
from scipy import special

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

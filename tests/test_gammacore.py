"""Exact constants against independent floating-Gamma oracles and closed forms."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace.gammacore import (
    ExactConstant,
    GammaDomainError,
    GammaParams,
    IndexSet2Gamma,
    PoleError,
    brute_force_F,
    brute_force_H,
    brute_force_K,
    closed_form_F,
    closed_form_H,
    closed_form_K,
    cs_normalization,
    double_factorial,
    dtn_constant_even,
    dtn_constant_odd,
    halfint_dtn_even,
    halfint_dtn_odd,
    parse_gamma,
    pochhammer_ratio,
    symmetry_constant,
    yang_constant,
)

GAMMAS = [F(1, 3), F(1, 2), F(4, 5), F(4, 3), F(3, 2), F(9, 4), F(5, 2), F(10, 3), F(7, 2), F(9, 2)]


def dtn_even_oracle(gamma: float, j: int) -> float:
    """Direct floating evaluation of the even closed-form constant."""
    fl = math.floor(gamma)
    fr = gamma - fl
    return (
        (-1) ** (1 + fl) * 2.0 ** (1 - 2 * fr) * math.factorial(fl - j)
        * math.gamma(1 - fr) * math.gamma(1 - j + gamma) * math.gamma(2 * j - gamma)
        / (math.factorial(j) * math.gamma(fr) * math.gamma(1 + j - fr) * math.gamma(-2 * j + gamma))
    )


def dtn_odd_oracle(gamma: float, j: int) -> float:
    fl = math.floor(gamma)
    fr = gamma - fl
    return (
        (-1) ** fl * 2.0 ** (2 * fr - 1) * math.factorial(fl - j)
        * math.gamma(fr) * math.gamma(1 + fl - j - fr) * math.gamma(2 * j - fl + fr)
        / (math.factorial(j) * math.gamma(1 - fr) * math.gamma(1 + j + fr)
           * math.gamma(-2 * j + fl - fr))
    )


def test_pochhammer_examples():
    assert pochhammer_ratio(F(1, 2), 2) == F(3, 4)
    assert pochhammer_ratio(F(5, 7), 0) == 1
    assert pochhammer_ratio(F(1, 3), -1) == F(-3, 2)
    with pytest.raises(PoleError):
        pochhammer_ratio(F(0), 3)
    with pytest.raises(PoleError):
        pochhammer_ratio(F(2), -3)


@given(st.fractions(min_value=F(-10), max_value=F(10)).filter(lambda q: q.denominator > 1),
       st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=80, deadline=None)
def test_pochhammer_cocycle(q, i, j):
    # Gamma(q+i+j)/Gamma(q) = [Gamma(q+i+j)/Gamma(q+i)] [Gamma(q+i)/Gamma(q)]
    assert pochhammer_ratio(q, i + j) == pochhammer_ratio(q + i, j) * pochhammer_ratio(q, i)


def test_params_validation():
    with pytest.raises(GammaDomainError):
        GammaParams(F(2))
    with pytest.raises(GammaDomainError):
        GammaParams(F(-1, 2))
    with pytest.raises(GammaDomainError):
        GammaParams(F(17, 2))  # above the default cap
    p = GammaParams(F(7, 3))
    assert (p.floor_gamma, p.frac_gamma, p.k, p.m) == (2, F(1, 3), 3, F(1, 3))
    assert p.floor_gamma + p.frac_gamma == p.gamma


def test_parse_gamma():
    assert parse_gamma("7/3") == F(7, 3)
    assert parse_gamma("0.8") == F(4, 5)  # decimal digits convert exactly
    assert parse_gamma("2.25") == F(9, 4)
    with pytest.raises(GammaDomainError):
        parse_gamma("x")


def test_index_set():
    for g in GAMMAS:
        p = GammaParams(g)
        idx = IndexSet2Gamma.from_params(p)
        assert len(idx.even_indices) == p.floor_gamma // 2 + 1
        assert len(idx.odd_indices) == p.floor_gamma - p.floor_gamma // 2
        assert len(idx.even_indices) + len(idx.odd_indices) == p.k
        for v in idx.even_indices + idx.odd_indices:
            assert v > 0 and v.denominator != 1


def test_cs_normalization():
    assert cs_normalization(F(1, 2)) == pytest.approx(1.0, abs=1e-14)
    # oracle: direct Gamma evaluation
    assert cs_normalization(F(1, 4)) == pytest.approx(
        2.0 ** 0.5 * math.gamma(0.75) / math.gamma(0.25), rel=1e-13)
    assert cs_normalization(F(1, 4)) == pytest.approx(0.478, abs=5e-4)
    assert cs_normalization(F(1, 100)) == pytest.approx(
        2.0 ** 0.98 * math.gamma(0.99) / math.gamma(0.01), rel=1e-13)
    with pytest.raises(GammaDomainError):
        cs_normalization(F(3, 2))


def test_dtn_constants_match_direct_gamma():
    # 50+ rational orders in (0,5), all slots, relative error <= 1e-12
    trials = [F(num, den) for den in (2, 3, 4, 5, 7) for num in range(1, 5 * den)
              if F(num, den).denominator > 1 and 0 < F(num, den) < 5]
    assert len(trials) >= 50
    for g in trials:
        p = GammaParams(g)
        for j in range(p.n_even_data):
            mine = dtn_constant_even(p, j).value(p.frac_gamma)
            assert mine == pytest.approx(dtn_even_oracle(float(g), j), rel=1e-12)
        for j in range(p.n_odd_data):
            mine = dtn_constant_odd(p, j).value(p.frac_gamma)
            assert mine == pytest.approx(dtn_odd_oracle(float(g), j), rel=1e-12)


def test_dtn_even_reduces_to_cs_normalization():
    for g in (F(1, 3), F(1, 2), F(4, 5), F(1, 100)):
        p = GammaParams(g)
        assert dtn_constant_even(p, 0).value(p.frac_gamma) == pytest.approx(
            cs_normalization(g), rel=1e-12)


def test_dtn_index_ranges():
    p = GammaParams(F(1, 2))
    with pytest.raises(IndexError):
        dtn_constant_odd(p, 0)  # empty odd range below gamma = 1
    with pytest.raises(IndexError):
        dtn_constant_even(p, 1)


def test_half_integer_constants_exact():
    # gamma = kk + 1/2 for kk <= 6: exact rational equality with the
    # double-factorial closed forms, cap lifted for the top orders
    for kk in range(0, 7):
        p = GammaParams(F(2 * kk + 1, 2), cap=8)
        for j in range(p.n_even_data):
            assert dtn_constant_even(p, j).as_fraction(F(1, 2)) == halfint_dtn_even(kk, j)
        for j in range(p.n_odd_data):
            assert dtn_constant_odd(p, j).as_fraction(F(1, 2)) == halfint_dtn_odd(kk, j)


def test_half_integer_values_frozen():
    # spot values computed by hand from the double-factorial forms
    assert halfint_dtn_even(0, 0) == 1          # classical order 1/2
    assert halfint_dtn_even(1, 0) == 2
    assert halfint_dtn_even(2, 0) == F(8, 3)
    assert halfint_dtn_even(2, 1) == 3
    # odd family: 2^(kk-2j) convention (an explicit biharmonic extension
    # gives B_2 = -2 (-Lap)^(1/2) B_1 at gamma = 3/2, so d = 2, not 1)
    assert halfint_dtn_odd(1, 0) == 2
    assert halfint_dtn_odd(2, 0) == 8
    assert halfint_dtn_odd(3, 0) == 16
    assert halfint_dtn_odd(3, 1) == 4


def test_biharmonic_oracle_for_odd_constant():
    """Independent derivation of d at gamma = 3/2: U = -y e^(-y) e(i x) solves
    the biharmonic equation per unit mode, B_1 U = -d_y U = 1, and
    B_2 U = -d_yy U + Lap U = -2 at |xi| = 1, so B_2 = -2 (-Lap)^(1/2) B_1."""
    import numpy as np
    u = lambda y: -y * np.exp(-y)
    h = 1e-5
    d1 = (u(h) - u(-h)) / (2 * h)
    d2 = (u(h) - 2 * u(0) + u(-h)) / h ** 2
    assert -d1 == pytest.approx(1.0, abs=1e-9)          # B_1 datum
    assert -d2 == pytest.approx(-2.0, abs=1e-4)         # B_2 output
    assert halfint_dtn_odd(1, 0) == 2


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(-3) == -1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105


def test_yang_constant_equals_order_zero():
    for g in GAMMAS:
        p = GammaParams(g)
        a, b = yang_constant(p), dtn_constant_even(p, 0)
        assert a.equals_at(b, p.frac_gamma)
        assert a.value(p.frac_gamma) == pytest.approx(b.value(p.frac_gamma), rel=1e-12)


def test_F_identity_examples_and_ranges():
    p = GammaParams(F(3, 2))
    # single-term sum equals the closed form trivially at l = 0
    for j in range(4):
        assert brute_force_F(j, 0, p) == closed_form_F(j, 0, p)
    # F(0,1,3/2): termwise Gamma(1/2)/Gamma(-3/2) - Gamma(3/2)/Gamma(-1/2) = 3/4 + 1/4
    assert brute_force_F(0, 1, p) == 1
    p73 = GammaParams(F(7, 3))
    assert brute_force_F(2, 3, p73) == closed_form_F(2, 3, p73)
    for g in GAMMAS:
        pg = GammaParams(g)
        for j in range(9):
            for ell in range(9):
                assert brute_force_F(j, ell, pg) == closed_form_F(j, ell, pg)


def test_H_identity():
    for d in range(9):
        g = F(5, 3)
        assert brute_force_H(0, d, g) == closed_form_H(0, d, g)
    assert brute_force_H(1, 1, F(5, 3)) == closed_form_H(1, 1, F(5, 3))
    assert brute_force_H(3, 5, F(9, 4)) == closed_form_H(3, 5, F(9, 4))
    gs = [F(a, b) + F(c, 7) for (a, b) in ((1, 3), (5, 2), (-2, 3), (9, 4))
          for c in range(1, 6)]
    assert len(gs) == 20
    for nn in range(9):
        for d in range(9):
            for g in gs:
                assert brute_force_H(nn, d, g) == closed_form_H(nn, d, g)


def test_K_identity():
    a, b = F(7, 2), F(4, 3)
    assert brute_force_K(a, b, 0) == 1
    assert brute_force_K(a, b, 1) == a + b - 1
    for j in range(9):
        for (aa, bb) in ((F(7, 2), F(4, 3)), (F(1, 5), F(9, 7)), (F(11, 4), F(2, 5))):
            assert brute_force_K(aa, bb, j) == closed_form_K(aa, bb, j)


def test_symmetry_constant_low_order():
    # gamma in (1, 2): the single coupling constant is 1/[gamma]
    for g in (F(3, 2), F(4, 3), F(9, 5)):
        p = GammaParams(g)
        c = symmetry_constant(p, 0, 0)
        assert c.gamma_ratio_power == 0 and c.two_power == 0
        assert c.rational_part == 1 / p.frac_gamma
    with pytest.raises(IndexError):
        symmetry_constant(GammaParams(F(1, 2)), 0, 0)


@given(st.fractions(min_value=F(-50), max_value=F(50)),
       st.integers(-3, 3), st.fractions(min_value=F(-2), max_value=F(2)),
       st.fractions(min_value=F(-50), max_value=F(50)).filter(lambda x: x != 0),
       st.integers(-3, 3), st.fractions(min_value=F(-2), max_value=F(2)))
@settings(max_examples=60, deadline=None)
def test_exact_constant_algebra(r1, p1, e1, r2, p2, e2):
    a = ExactConstant(r1, p1, e1)
    b = ExactConstant(r2, p2, e2)
    prod = a * b
    assert prod.rational_part == r1 * r2
    assert prod.gamma_ratio_power == p1 + p2
    assert prod.two_power == e1 + e2
    if r1 != 0:
        quot = prod / a
        assert quot.equals_at(b, F(1, 3))
    fr = F(2, 5)
    assert prod.value(fr) == pytest.approx(a.value(fr) * b.value(fr), rel=1e-12, abs=1e-300)


def test_pole_adjacent_gamma_accepted():
    # exactly rational, within 1e-6 of an integer when floated: still valid,
    # and the exact constant paths stay pole-free by construction
    g = F(1000001, 1000000)
    p = GammaParams(g)
    assert p.floor_gamma == 1 and p.frac_gamma == F(1, 1000000)
    val = dtn_constant_even(p, 0).value(p.frac_gamma)
    assert math.isfinite(val)
    assert dtn_constant_odd(p, 0).value(p.frac_gamma) != 0.0

"""Exact radial-polynomial calculus: closure, commutation, covariance."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace import jets, polys
from fractrace.gammacore import GammaParams
from fractrace.polys import (
    BoundaryPoly,
    HalfSpacePoly,
    YPowerField,
    apply_laplacian,
    apply_weighted_laplacian,
    boundary_operator_poly,
    boundary_operators_poly,
    default_samples,
    hyperbolic_laplacian,
    kelvin_pullback,
    poly_T,
    verify_commutator,
    verify_conformal_covariance,
    verify_flat_hyperbolic_correspondence,
    verify_product_factorization,
    verify_r2s_commutation,
    weighted_poly_power,
)

GAMMAS = [F(1, 3), F(1, 2), F(4, 5), F(4, 3), F(3, 2), F(9, 4), F(5, 2), F(10, 3), F(7, 2), F(9, 2)]


def mono(n=1, fr=F(1, 3), **kw):
    return HalfSpacePoly.monomial(n, fr, **kw)


def test_laplacian_basics():
    # Delta r^2 = 2 (n + 1)
    for n in (1, 2, 3):
        assert (apply_laplacian(mono(n, s=1)) - mono(n, coeff=2 * (n + 1))).is_zero_function()
    # Delta_m y^2 = 2 + 2m
    m = F(1, 5)
    assert (apply_weighted_laplacian(mono(beta=1), m) - mono(coeff=2 + 2 * m)).is_zero_function()
    # Delta_m x1^2 = 2
    assert (apply_weighted_laplacian(mono(2, alpha=(2, 0)), m) - mono(2, coeff=2)).is_zero_function()


def test_normal_operator_kills_branch_bottom():
    p = GammaParams(F(4, 3))
    assert poly_T(mono(fr=p.frac_gamma, b=1), p.m).is_zero_function()


def test_zero_test_cross_multiplication():
    # r^(-2) (x^2 + y^2) == 1 even though the term maps differ
    lhs = mono(s=-1, alpha=(2,)) + mono(s=-1, beta=1)
    assert (lhs - mono()).is_zero_function()


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(-2, 2),
       st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_class_closure(alpha1, beta, b, s_int, n):
    """Structural closure of the class under every generator."""
    fr = F(2, 7)
    alpha = (alpha1,) + (0,) * (n - 1)
    p = HalfSpacePoly.monomial(n, fr, s=F(s_int, 2), alpha=alpha, beta=beta, b=b)
    results = [
        apply_laplacian(p),
        apply_weighted_laplacian(p, F(1) - 2 * fr),
        p.mul_r2(),
        p.directional_r2(2),
        kelvin_pullback(p, F(5, 3)),
    ]
    for q in results:
        for (s, a, be, bb), c in q.terms.items():
            assert isinstance(s, F) and bb in (0, 1)
            assert all(e >= 0 for e in a)


def test_double_inversion_identity():
    for n in (1, 2):
        for u in default_samples(n, F(2, 5), seed=3):
            w = F(7, 3)
            assert (kelvin_pullback(kelvin_pullback(u, w), w) - u).is_zero_function()


def test_commutator_examples():
    m = F(1, 3)
    # k=1 on y^4 and x1^2 y^2, exact polynomial oracle via direct application
    for sample in (mono(beta=2), mono(2, alpha=(2, 0), beta=1)):
        lhs = weighted_poly_power(
            weighted_poly_power(weighted_poly_power(sample, m - 2, 1), m, 0), m + 2, 1)
        rhs = weighted_poly_power(sample, m, 2)
        assert (lhs - rhs).is_zero_function()
    # constant sample trivially zero on both sides
    assert verify_commutator(m, 3, [mono()], "1/3", 1).passed


@pytest.mark.parametrize("gamma", GAMMAS)
def test_commutator_sweep(gamma):
    p = GammaParams(gamma)
    samples = default_samples(1, p.frac_gamma, seed=0)
    for k in (1, 2, 4):
        assert verify_commutator(p.m, k, samples[:7], str(p), 1).passed


@pytest.mark.parametrize("gamma", GAMMAS)
def test_product_factorization(gamma):
    p = GammaParams(gamma)
    assert verify_product_factorization(p, default_samples(1, p.frac_gamma, seed=0)[:8]).passed


def test_factorization_specific_samples():
    # k=2 at gamma=3/2 on y^4 x1^2; k=3 at gamma=5/2 on r^2 y^2
    p = GammaParams(F(3, 2))
    assert verify_product_factorization(p, [mono(fr=p.frac_gamma, alpha=(2,), beta=2)]).passed
    p = GammaParams(F(5, 2))
    assert verify_product_factorization(p, [mono(fr=p.frac_gamma, s=1, beta=1)]).passed


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_r2s_commutation_k_sweep(gamma, k):
    p = GammaParams(gamma)
    samples = default_samples(1, p.frac_gamma, seed=0)[:4]
    assert verify_r2s_commutation(p, k, F(-3, 2), samples, n=1).passed


@pytest.mark.parametrize("s", [F(-2), F(-3, 2), F(-1), F(0), F(1, 2), F(1), F(2)])
def test_r2s_commutation_s_sweep(s):
    p = GammaParams(F(4, 3))
    samples = default_samples(1, p.frac_gamma, seed=1)[:4]
    assert verify_r2s_commutation(p, 2, s, samples, n=1).passed


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_r2s_commutation_dimensions(n):
    p = GammaParams(F(9, 4), n=n)
    samples = default_samples(n, p.frac_gamma, seed=2)[:3]
    assert verify_r2s_commutation(p, 2, F(1, 2), samples, n=n).passed


def test_hyperbolic_eigenrelation():
    # Delta_hyp y^s = s (s - n) y^s
    for n in (1, 2):
        for s in (F(3, 2), F(-1, 3), F(2)):
            f = YPowerField.pure_power(n, F(1, 3), s)
            assert (hyperbolic_laplacian(f, n) - f.scale(s * (s - n))).is_zero_function()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_flat_hyperbolic_correspondence(gamma):
    for n in (1, 2):
        assert verify_flat_hyperbolic_correspondence(GammaParams(gamma, n=n), n=n).passed


def test_conformal_covariance_trivial_case():
    # alpha = 0 on the constant: both sides are the same boundary power
    p = GammaParams(F(4, 3), n=1)
    u = mono(1, p.frac_gamma)
    pulled = kelvin_pullback(u, p.gamma - F(1, 2))
    got = boundary_operator_poly(p, "even", 0, pulled)
    want = boundary_operator_poly(p, "even", 0, u).kelvin_pullback(p.gamma - F(1, 2))
    assert (got - want).is_zero_function()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_conformal_covariance(gamma):
    p = GammaParams(gamma, n=1)
    samples = default_samples(1, p.frac_gamma, seed=0, extra=1)[:5]
    assert verify_conformal_covariance(p, samples=samples, n=1).passed


@pytest.mark.parametrize("n", [2, 3])
def test_conformal_covariance_dimensions(n):
    p = GammaParams(F(5, 2), n=n)
    samples = default_samples(n, p.frac_gamma, seed=1)[:3]
    assert verify_conformal_covariance(p, samples=samples, n=n).passed


def test_odd_family_covariance_with_branch_sample():
    # a pure branch sample exercises the odd operators non-trivially
    p = GammaParams(F(1, 2), n=1)
    u = mono(1, p.frac_gamma, alpha=(2,), b=1)
    assert verify_conformal_covariance(p, samples=[u], n=1).passed


def test_boundary_operators_poly_build_one_T_chain(monkeypatch):
    p = GammaParams(F(15, 2), n=1)
    u = mono(1, p.frac_gamma, s=-1, b=1)
    real = polys.poly_T
    calls = []

    def counting(q, m):
        calls.append(1)
        return real(q, m)

    monkeypatch.setattr(polys, "poly_T", counting)
    ops = boundary_operators_poly(p, u)
    assert len(calls) == p.floor_gamma
    assert set(ops) == {(fam, j) for fam in ("even", "odd") for j in range(p.floor_gamma + 1)}
    assert (boundary_operator_poly(p, "odd", 3, u) - ops[("odd", 3)]).is_zero_function()
    with pytest.raises(IndexError):
        boundary_operator_poly(p, "even", p.floor_gamma + 1, u)


def _perturb_symbol(monkeypatch, target):
    original = jets.boundary_operator_symbol

    def perturbed(params, fam, idx):
        sym = original(params, fam, idx)
        if (fam, idx) == target:
            sym[min(sym)] += F(1, 7)   # lowest normal power; below the T^j term when j > 0
        return sym

    monkeypatch.setattr(jets, "boundary_operator_symbol", perturbed)


@pytest.mark.parametrize("family, j", [("even", 1), ("even", 2), ("odd", 1), ("odd", 2)])
def test_perturbed_symbol_fails_conformal_covariance(monkeypatch, family, j):
    """The polynomial operators read the shared symbol through the jets module,
    so a wrong coefficient fails covariance on the samples verify uses."""
    p = GammaParams(F(5, 2), n=1)
    assert verify_conformal_covariance(p, n=1).passed
    _perturb_symbol(monkeypatch, (family, j))
    assert not verify_conformal_covariance(p, n=1).passed


@pytest.mark.parametrize("gamma", [F(9, 4), F(15, 2)])
def test_default_covariance_samples_reach_every_odd_operator(monkeypatch, gamma):
    """Without a fractional-branch sample every odd-family comparison is 0 = 0;
    the default samples must catch a wrong (odd, j) symbol for each j >= 1."""
    p = GammaParams(gamma, n=1)
    missed = []
    for j in range(1, p.floor_gamma + 1):
        with monkeypatch.context() as patch:
            _perturb_symbol(patch, ("odd", j))
            if verify_conformal_covariance(p, n=1).passed:
                missed.append(j)
    assert missed == []


def test_randomized_closure_bulk():
    """1000 randomized terms stay in the representable class under the
    generators (structural invariant)."""
    rng = random.Random(11)
    fr = F(3, 7)
    count = 0
    for _ in range(250):
        n = rng.choice((1, 2))
        term = HalfSpacePoly.monomial(
            n, fr,
            s=F(rng.randint(-4, 4), rng.choice((1, 2))),
            alpha=tuple(rng.randint(0, 3) for _ in range(n)),
            beta=rng.randint(0, 3),
            b=rng.randint(0, 1),
        )
        for op in (lambda q: apply_weighted_laplacian(q, F(1, 2)),
                   lambda q: q.mul_r2(),
                   lambda q: q.directional_r2(1),
                   lambda q: kelvin_pullback(q, F(1, 3))):
            out = op(term)
            count += 1
            for (s, a, be, bb), c in out.terms.items():
                assert bb in (0, 1) and all(e >= 0 for e in a)
    assert count == 1000

"""Exact radial-polynomial calculus: closure, commutation, covariance."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace import jets, polys
from fractrace.gammacore import GammaParams
from fractrace.polys import (
    HalfSpacePoly,
    boundary_operators_poly,
    default_samples,
    hyperbolic_resolvent,
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
        assert (mono(n, s=1).laplacian() - mono(n, coeff=2 * (n + 1))).is_zero_function()
    # Delta_m y^2 = 2 + 2m
    m = F(1, 5)
    assert (mono(beta=1).weighted_laplacian(m) - mono(coeff=2 + 2 * m)).is_zero_function()
    # Delta_m x1^2 = 2
    assert (mono(2, alpha=(2, 0)).weighted_laplacian(m) - mono(2, coeff=2)).is_zero_function()


@pytest.mark.parametrize("n", range(6))
def test_multinomial_expanders(n):
    """(x_1^2 + ... + x_n^2 + y^2)^t against the multinomial theorem, t <= 6:
    one term per exponent vector e, coefficient t! / prod e_i!.  At n = 0 it
    is (y^2)^t, the expansion a boundary function of one variable reads."""
    def multinomial(parts, t):
        return {e: math.factorial(t) // math.prod(map(math.factorial, e))
                for e in itertools.product(range(t + 1), repeat=parts) if sum(e) == t}

    for t in range(7):
        want = multinomial(n + 1, t)
        got = polys._expand_r2(n, t)
        assert len(got) == len(want)
        assert {(xa, ny): c for xa, ny, c in got} == {
            (tuple(2 * x for x in e[:-1]), e[-1]): c for e, c in want.items()}


def test_normal_operator_kills_branch_bottom():
    p = GammaParams(F(4, 3))
    assert poly_T(mono(fr=p.frac_gamma, b=1), p.m).is_zero_function()


def test_zero_test_cross_multiplication():
    # r^(-2) (x^2 + y^2) == 1 even though the term maps differ
    lhs = mono(s=-1, alpha=(2,)) + mono(s=-1, beta=1)
    assert (lhs - mono()).is_zero_function()


def test_zero_test_sees_powers_of_y_inside_r():
    """y^(1/3) (r^2 - x^2) - y^(7/3) is the zero function at n = 1, and the
    same with y^(4/3) is not: r^2 hides a y^2, so no y power can be decided
    on its own."""
    third = F(1, 3)
    left = HalfSpacePoly(1, third, {(1, (0,), third): 1, (0, (2,), third): -1})
    assert left.is_zero_function() is False
    for top, zero in ((F(7, 3), True), (F(4, 3), False)):
        right = HalfSpacePoly(1, third, {(0, (0,), top): 1})
        assert (left - right).is_zero_function() is zero
        assert (left == right) is zero


@given(st.integers(-4, 4), st.integers(1, 3), st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.integers(-6, 6), st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=60, deadline=None)
def test_zero_test_decides_r2_at_any_y_power(s2, n, alpha, qn, qd):
    """r^(2s+2) x^alpha y^q - sum_i r^(2s) x^(alpha+2e_i) y^q - r^(2s) x^alpha y^(q+2)
    is zero for any rational s and q, and each term alone is not."""
    fr, s, q, alpha = F(2, 7), F(s2, 2), F(qn, qd), tuple(alpha[:n])
    terms = {(s + 1, alpha, q): 1, (s, alpha, q + 2): -1}
    for i in range(n):
        terms[(s, alpha[:i] + (alpha[i] + 2,) + alpha[i + 1:], q)] = -1
    assert HalfSpacePoly(n, fr, terms).is_zero_function()
    for key in terms:
        del_one = dict(terms)
        del del_one[key]
        assert not HalfSpacePoly(n, fr, del_one).is_zero_function()


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.integers(-2, 2),
       st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_class_closure(alpha1, beta, b, s_int, n):
    """Structural closure of the class under every generator: the exponents
    stay Fractions, the multi-indices nonnegative, and the y exponent keeps
    its class mod 2 (no generator moves a term off the fractional branch)."""
    fr = F(2, 7)
    alpha = (alpha1,) + (0,) * (n - 1)
    p = HalfSpacePoly.monomial(n, fr, s=F(s_int, 2), alpha=alpha, beta=beta, b=b)
    results = [
        p.laplacian(),
        p.weighted_laplacian(F(1) - 2 * fr),
        p.mul_r2(),
        p.directional_r2(2),
        p.kelvin_pullback(F(5, 3)),
    ]
    for out in results:
        for (s, a, q), c in out.terms.items():
            assert isinstance(s, F) and isinstance(q, F)
            assert (q - 2 * fr * b) % 2 == 0
            assert all(e >= 0 for e in a)


def test_double_inversion_identity():
    for n in (1, 2):
        for u in default_samples(n, F(2, 5), seed=3):
            w = F(7, 3)
            assert (u.kelvin_pullback(w).kelvin_pullback(w) - u).is_zero_function()


def test_commutator_examples():
    m = F(1, 3)
    # k=1 on y^4 and x1^2 y^2, exact polynomial oracle via direct application
    for sample in (mono(beta=2), mono(2, alpha=(2, 0), beta=1)):
        lhs = weighted_poly_power(
            weighted_poly_power(weighted_poly_power(sample, m - 2, 1), m, 0), m + 2, 1)
        rhs = weighted_poly_power(sample, m, 2)
        assert (lhs - rhs).is_zero_function()
    # constant sample trivially zero on both sides
    assert verify_commutator(GammaParams(F(1, 3)), 3, [mono()]).passed   # m = 1/3


@pytest.mark.parametrize("gamma", GAMMAS)
def test_commutator_sweep(gamma):
    p = GammaParams(gamma)
    samples = default_samples(1, p.frac_gamma, seed=0)
    for k in (1, 2, 4):
        assert verify_commutator(p, k, samples[:7]).passed


def test_commutator_sees_a_shifted_weight(monkeypatch):
    """The outer factor of the left side at weight m + 2k + 1/7 instead of
    m + 2k fails the check."""
    p, k = GammaParams(F(4, 3)), 2
    power = polys.weighted_poly_power

    def shifted(u, m, kk):
        return power(u, m + F(1, 7) if (m, kk) == (p.m + 2 * k, 1) else m, kk)

    monkeypatch.setattr(polys, "weighted_poly_power", shifted)
    rep = verify_commutator(p, k, default_samples(1, p.frac_gamma, seed=0)[:7])
    assert rep.status == "fail"


@pytest.mark.parametrize("gamma", GAMMAS)
def test_product_factorization(gamma):
    p = GammaParams(gamma)
    assert verify_product_factorization(p, default_samples(1, p.frac_gamma, seed=0)[:8]).passed


@pytest.mark.parametrize("gamma", [F(4, 3), F(10, 3)])
def test_product_factorization_sees_a_wrong_weight(gamma, monkeypatch):
    """The k-th power's weight m x (1 + 1e-3) on the right side."""
    p = GammaParams(gamma)
    power = polys.weighted_poly_power
    monkeypatch.setattr(polys, "weighted_poly_power", lambda u, m, k: power(u, m * F(1001, 1000), k))
    rep = verify_product_factorization(p, default_samples(1, p.frac_gamma, seed=0)[:8])
    assert rep.status == "fail"


@pytest.mark.parametrize("gamma", [F(4, 3), F(10, 3)])
def test_flat_hyperbolic_correspondence_sees_a_wrong_weight(gamma, monkeypatch):
    """The flat weighted poly-Laplacian's weight m x (1 + 1e-3); the
    hyperbolic groupings, which do not use it, still agree."""
    power = polys.weighted_poly_power
    monkeypatch.setattr(polys, "weighted_poly_power", lambda u, m, k: power(u, m * F(1001, 1000), k))
    rep = verify_flat_hyperbolic_correspondence(GammaParams(gamma))
    assert rep.status == "fail"
    assert all("flat/hyperbolic conjugation fails" in d for d in rep.details)


def test_factorization_specific_samples():
    # k=2 at gamma=3/2 on y^4 x1^2; k=3 at gamma=5/2 on r^2 y^2
    p = GammaParams(F(3, 2))
    assert verify_product_factorization(p, [mono(fr=p.frac_gamma, alpha=(2,), beta=2)]).passed
    p = GammaParams(F(5, 2))
    assert verify_product_factorization(p, [mono(fr=p.frac_gamma, s=1, beta=1)]).passed


def _r2s_samples(p):
    """The five fixed and two drawn samples of verify's r^2s checks at seed 0
    (the drawn ones have s != 0 on the b branch and so reach the boundary
    weights), plus r^2 x^2 y^4 on the b branch, which L^4 does not annihilate
    at the half-integer orders."""
    samples = default_samples(1, p.frac_gamma, seed=0, extra=2)
    high = HalfSpacePoly.monomial(1, p.frac_gamma, s=1, alpha=(2,), beta=2, b=1)
    return samples[:5] + samples[9:] + [high]


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_r2s_commutation_k_sweep(gamma, k):
    p = GammaParams(gamma)
    assert verify_r2s_commutation(p, k, F(-3, 2), _r2s_samples(p)).passed


@pytest.mark.parametrize("s", [F(-2), F(-3, 2), F(-1), F(0), F(1, 2), F(1), F(2)])
def test_r2s_commutation_s_sweep(s):
    p = GammaParams(F(4, 3))
    assert verify_r2s_commutation(p, 2, s, _r2s_samples(p)).passed


@pytest.mark.parametrize("gamma, k, s", [(F(1, 2), 4, F(-3, 2)), (F(9, 2), 3, F(-3, 2)),
                                         (F(4, 3), 2, F(2)), (F(4, 3), 2, F(-2))])
def test_r2s_sweep_samples_see_each_boundary_weight(gamma, k, s, monkeypatch):
    """Each boundary weight x (1 + 1/7) fails the sweeps' samples."""
    real, calls = polys._r2s_weights, []

    def faulty(kk, ss, base):
        out = real(kk, ss, base)
        calls.append(1)
        if len(calls) == 2 and index is not None:   # the second list is the boundary one
            j, ell, w = out[index]
            out[index] = (j, ell, w * F(8, 7))
        return out

    monkeypatch.setattr(polys, "_r2s_weights", faulty)
    p = GammaParams(gamma)
    index = None
    assert verify_r2s_commutation(p, k, s, _r2s_samples(p)).passed
    size = len(real(k, s, F(p.n, 2) + 1 + p.frac_gamma + s + k))
    for index in range(size):
        calls.clear()
        assert verify_r2s_commutation(p, k, s, _r2s_samples(p)).status == "fail", index


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_r2s_commutation_dimensions(n):
    p = GammaParams(F(9, 4), n=n)
    samples = default_samples(n, p.frac_gamma, seed=2)[:3]
    assert verify_r2s_commutation(p, 2, F(1, 2), samples).passed


def _verify_r2s_samples(monkeypatch, gamma, n, seed):
    """The samples verify passes to both of its r^2s commutation checks."""
    from fractrace import cli

    real, seen = polys.verify_r2s_commutation, []

    def spy(params, k, s, samples):
        seen.append(samples)
        return real(params, k, s, samples)

    with monkeypatch.context() as patch:
        patch.setattr(polys, "verify_r2s_commutation", spy)
        cli._exact_checks(gamma, n, seed)
    assert len(seen) == 2 and seen[0] == seen[1]
    return seen[0]


_R2S_FAULTS = [pytest.param(side, F(4, 3), 1, 0, 2, F(-3, 2), id=side) for side in ("interior", "boundary")]
_R2S_FAULTS += [
    pytest.param("boundary", gamma, n, seed, k, s,
                 id=f"boundary-{gamma.numerator}_{gamma.denominator}-n{n}-seed{seed}-k{k}")
    for n, gammas in ((1, (F(1, 3), F(4, 3), F(9, 4), F(7, 2))), (2, (F(4, 3), F(9, 4))))
    for gamma in gammas for seed in range(4) for k, s in ((2, F(-3, 2)), (1, F(1, 2)))
    if (n, gamma, seed, k) != (1, F(4, 3), 0, 2)
]


@pytest.mark.parametrize("side, gamma, n, seed, k, s", _R2S_FAULTS)
def test_r2s_commutation_sees_a_wrong_weight(side, gamma, n, seed, k, s, monkeypatch):
    """Each weight of the interior or the boundary list, built once per call,
    times 1 + 1/7 fails that side's identity on verify's samples at both of
    verify's (k, s), every seed, and the other side still holds."""
    real = polys._r2s_weights
    p = GammaParams(gamma, n=n)
    samples = _verify_r2s_samples(monkeypatch, gamma, n, seed)
    target = ("interior", "boundary").index(side)
    lists = []

    def faulty(kk, ss, base):
        out = real(kk, ss, base)
        if len(lists) == target and index is not None:
            j, ell, w = out[index]
            out[index] = (j, ell, w * F(8, 7))
        lists.append(out)
        return out

    monkeypatch.setattr(polys, "_r2s_weights", faulty)
    index = None
    assert verify_r2s_commutation(p, k, s, samples).passed
    size = len(lists[target])
    assert size == (k + 1) * (k + 2) // 2   # no weight vanishes at these orders
    for index in range(size):
        lists.clear()
        rep = verify_r2s_commutation(p, k, s, samples)
        assert rep.status == "fail" and len(lists) == 2, index
        assert all(f"{side} r^2s commutation fails" in d for d in rep.details), index


def test_hyperbolic_eigenrelation():
    # Delta_hyp y^s = s (s - n) y^s, so D_s y^s = 0
    for n in (1, 2):
        for s in (F(3, 2), F(-1, 3), F(2)):
            f = mono(n).mul_y(s)
            assert (hyperbolic_resolvent(f, 0) - f.scale(s * (s - n))).is_zero_function()
            assert hyperbolic_resolvent(f, s).is_zero_function()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_flat_hyperbolic_correspondence(gamma):
    for n in (1, 2):
        assert verify_flat_hyperbolic_correspondence(GammaParams(gamma, n=n)).passed


def test_conformal_covariance_trivial_case():
    # alpha = 0 on the constant: both sides are the same boundary power
    p = GammaParams(F(4, 3), n=1)
    u = mono(1, p.frac_gamma)
    pulled = u.kelvin_pullback(p.gamma - F(1, 2))
    got = boundary_operators_poly(p, pulled)[("even", 0)]
    want = boundary_operators_poly(p, u)[("even", 0)].kelvin_pullback(p.gamma - F(1, 2))
    assert (got - want).is_zero_function()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_conformal_covariance(gamma):
    p = GammaParams(gamma, n=1)
    samples = default_samples(1, p.frac_gamma, seed=0, extra=1)[:5]
    assert verify_conformal_covariance(p, samples=samples).passed


@pytest.mark.parametrize("n", [2, 3])
def test_conformal_covariance_dimensions(n):
    p = GammaParams(F(5, 2), n=n)
    samples = default_samples(n, p.frac_gamma, seed=1)[:3]
    assert verify_conformal_covariance(p, samples=samples).passed


def test_odd_family_covariance_with_branch_sample():
    # a pure branch sample exercises the odd operators non-trivially
    p = GammaParams(F(1, 2), n=1)
    u = mono(1, p.frac_gamma, alpha=(2,), b=1)
    assert verify_conformal_covariance(p, samples=[u]).passed


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
    assert verify_conformal_covariance(p).passed
    _perturb_symbol(monkeypatch, (family, j))
    assert not verify_conformal_covariance(p).passed


@pytest.mark.parametrize("gamma", [F(9, 4), F(15, 2)])
def test_default_covariance_samples_reach_every_odd_operator(monkeypatch, gamma):
    """Without a fractional-branch sample every odd-family comparison is 0 = 0;
    the default samples must catch a wrong (odd, j) symbol for each j >= 1."""
    p = GammaParams(gamma, n=1)
    missed = []
    for j in range(1, p.floor_gamma + 1):
        with monkeypatch.context() as patch:
            _perturb_symbol(patch, ("odd", j))
            if verify_conformal_covariance(p).passed:
                missed.append(j)
    assert missed == []


def _restrict_keeping_n(monkeypatch):
    """Both restrictions label their result with the interior n instead of n - 1."""
    for name in ("iota", "iota_weighted_neumann"):
        real = getattr(HalfSpacePoly, name)

        def keeping_n(self, real=real):
            out = real(self)
            out.n = self.n
            return out

        monkeypatch.setattr(HalfSpacePoly, name, keeping_n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_wrong_boundary_dimension_fails_covariance(monkeypatch, n):
    """A boundary function held with one variable too many gets a wrong
    tangential Laplacian, whose |x|^(2s) term reads the dimension.  Below order
    1 (1/2, 4/5) every boundary operator is a bare trace and applies no
    tangential Laplacian, so covariance cannot see the fault there; at 5/2 and
    10/3 it must."""
    gammas = [F(1, 2), F(4, 5), F(5, 2), F(10, 3)]
    assert all(verify_conformal_covariance(GammaParams(g, n=n)).passed for g in gammas)
    _restrict_keeping_n(monkeypatch)
    assert [verify_conformal_covariance(GammaParams(g, n=n)).passed for g in gammas] == [True, True, False, False]


def test_combining_two_dimensions_raises(monkeypatch):
    """Keys of different lengths would zip short in the zero test, so a sum or
    difference across dimensions raises, and the r^2s boundary side, which
    adds restrictions to an element in n - 1 variables, cannot pass with a
    wrong boundary dimension."""
    fr = F(1, 3)
    for a, b in ((mono(2, fr), mono(1, fr)), (mono(2, fr).iota(), mono(2, fr))):
        for op in (a.__add__, a.__sub__):
            with pytest.raises(ValueError, match="variables"):
                op(b)
    p = GammaParams(F(5, 2), n=2)
    samples = default_samples(2, p.frac_gamma, extra=0)
    assert verify_r2s_commutation(p, 1, F(1, 2), samples).passed
    _restrict_keeping_n(monkeypatch)
    with pytest.raises(ValueError, match="variables"):
        verify_r2s_commutation(p, 1, F(1, 2), samples)


def test_randomized_closure_bulk():
    """1000 randomized terms stay in the representable class under the
    generators (structural invariant), each on its branch: y exponents keep
    their class mod 2."""
    rng = random.Random(11)
    fr = F(3, 7)
    count = 0
    for _ in range(250):
        n = rng.choice((1, 2))
        b = rng.randint(0, 1)
        term = HalfSpacePoly.monomial(
            n, fr,
            s=F(rng.randint(-4, 4), rng.choice((1, 2))),
            alpha=tuple(rng.randint(0, 3) for _ in range(n)),
            beta=rng.randint(0, 3),
            b=b,
        )
        for op in (lambda p: p.weighted_laplacian(F(1, 2)),
                   lambda p: p.mul_r2(),
                   lambda p: p.directional_r2(1),
                   lambda p: p.kelvin_pullback(F(1, 3))):
            out = op(term)
            count += 1
            for (s, a, q), c in out.terms.items():
                assert isinstance(q, F) and (q - 2 * fr * b) % 2 == 0 and all(e >= 0 for e in a)
    assert count == 1000


# ---------------------------------------------------------------------------
# Storage layout against a Fraction reference
# ---------------------------------------------------------------------------
# The classes keep integer numerators over one denominator and key the r and y
# exponents by integers over an exponent denominator D.  The reference below
# applies the per-term formulas of each generator directly in Fraction
# arithmetic on {(s, alpha, q): coeff} maps.


def _ref_add(acc, key, c):
    if c:
        acc[key] = acc.get(key, 0) + c


def _ref_clean(acc):
    return {k: v for k, v in acc.items() if v != 0}


def _ref_lap_x(terms, n):
    acc = {}
    for (s, a, q), c in terms.items():
        if s != 0:
            _ref_add(acc, (s - 1, a, q), c * (2 * s * n + 4 * s * sum(a) + 4 * s * (s - 1)))
            _ref_add(acc, (s - 2, a, q + 2), -c * 4 * s * (s - 1))
        for i in range(n):
            if a[i] >= 2:
                a2 = a[:i] + (a[i] - 2,) + a[i + 1:]
                _ref_add(acc, (s, a2, q), c * a[i] * (a[i] - 1))
    return _ref_clean(acc)


def _ref_boundary_lap(terms, n):
    """Laplacian on {(s, alpha): coeff}, one |x|^(2s-2) term per term."""
    acc = {}
    for (s, a), c in terms.items():
        if s != 0:
            _ref_add(acc, (s - 1, a), c * 2 * s * (n + 2 * sum(a) + 2 * s - 2))
        for i in range(n):
            if a[i] >= 2:
                _ref_add(acc, (s, a[:i] + (a[i] - 2,) + a[i + 1:]), c * a[i] * (a[i] - 1))
    return _ref_clean(acc)


def _ref_dy2(terms):
    acc = {}
    for (s, a, q), c in terms.items():
        if s != 0:
            _ref_add(acc, (s - 2, a, q + 2), c * 4 * s * (s - 1))
            _ref_add(acc, (s - 1, a, q), c * 2 * s * (2 * q + 1))
        _ref_add(acc, (s, a, q - 2), c * q * (q - 1))
    return _ref_clean(acc)


def _ref_dy_over_y(terms):
    acc = {}
    for (s, a, q), c in terms.items():
        if s != 0:
            _ref_add(acc, (s - 1, a, q), c * 2 * s)
        _ref_add(acc, (s, a, q - 2), c * q)
    return _ref_clean(acc)


def _ref_y_dy(terms):
    acc = {}
    for (s, a, q), c in terms.items():
        if s != 0:
            _ref_add(acc, (s - 1, a, q + 2), c * 2 * s)
        _ref_add(acc, (s, a, q), c * q)
    return _ref_clean(acc)


def _ref_sum(*maps):
    acc = {}
    for weight, terms in maps:
        for key, c in terms.items():
            _ref_add(acc, key, weight * c)
    return _ref_clean(acc)


def _ref_directional(terms, ell):
    acc = {}
    for (s, a, q), c in terms.items():
        d = 2 * s + sum(a) + q
        falling = F(1)
        for t in range(ell):
            falling *= d - t
        _ref_add(acc, (s, a, q), c * 2 ** ell * falling)
    return _ref_clean(acc)


def _ref_kelvin(terms, w):
    return {(w - s - sum(a) - q, a, q): c for (s, a, q), c in terms.items()}


def _on_boundary(x):
    """{(s, alpha): coeff} of a function on R^n held in n - 1 variables, its y
    read back as the last axis x_n."""
    return {(s, a + (q,)): c for (s, a, q), c in x.terms.items()}


def _assert_canonical(x):
    """den > 0, gcd(den, numerators) = 1, no zero numerator, integer keys."""
    assert x.den > 0 and all(x.nums.values())
    assert math.gcd(x.den, *x.nums.values()) == 1
    if isinstance(x, HalfSpacePoly):
        assert all(type(key[0]) is int and type(key[2]) is int for key in x.nums)
        assert x.D % math.lcm(2, x.frac_gamma.denominator) == 0


_monomial_terms = st.tuples(
    st.integers(-6, 6),                 # s = k/2
    st.integers(0, 3), st.integers(0, 3),
    st.integers(-1, 2),                 # beta
    st.integers(0, 1),                  # b: the fractional branch y^(2[g])
    st.sampled_from([0, 0, F(1, 3), F(-5, 2)]),  # y exponent off both lattices
    st.integers(-5, 5).filter(bool), st.integers(1, 6),
)


@given(st.lists(_monomial_terms, min_size=1, max_size=4), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_layout_matches_fraction_reference(raw, n, ell):
    """Every generator on a random sum of monomials reads back, through
    ``terms``, exactly the Fraction reference; exponent denominators that [g]
    does not fix ([g] = 2/7 against w = 5/3, m = 1/5, s = k/2, y^(1/3) and
    y^(ell/3)) included, and every result is canonical.  The restrictions
    raise on a y exponent with no boundary limit."""
    fr, m, w = F(2, 7), F(1, 5), F(5, 3)
    p = HalfSpacePoly(n, fr)
    for s2, a1, a2, be, b, extra, num, den in raw:
        p = p + HalfSpacePoly.monomial(n, fr, s=F(s2, 2), alpha=(a1, a2)[:n], beta=be, b=b,
                                       coeff=F(num, den)).mul_y(extra)
    _assert_canonical(p)
    ref = dict(p.terms)
    lap, dy2, dyy = _ref_lap_x(ref, n), _ref_dy2(ref), _ref_dy_over_y(ref)
    cases = [
        (p.dy2(), dy2),
        (p.dy_over_y(), dyy),
        (p.y_dy(), _ref_y_dy(ref)),
        (p.weighted_laplacian(m), _ref_sum((1, lap), (1, dy2), (m, dyy))),
        (p.laplacian(), _ref_sum((1, lap), (1, dy2))),
        (p.directional_r2(ell), _ref_directional(ref, ell)),
        (p.mul_r2(F(ell, 2)), {(s + F(ell, 2), a, q): c for (s, a, q), c in ref.items()}),
        (p.mul_y(F(ell, 3)), {(s, a, q + F(ell, 3)): c for (s, a, q), c in ref.items()}),
        (p.kelvin_pullback(w), _ref_kelvin(ref, w)),
        (p.scale(F(-3, 4)), _ref_sum((F(-3, 4), ref))),
        (p - p.kelvin_pullback(w), _ref_sum((1, ref), (-1, _ref_kelvin(ref, w)))),
        (p.mul_y(F(ell, 3)) - p, _ref_sum((1, {(s, a, q + F(ell, 3)): c for (s, a, q), c in ref.items()}),
                                          (-1, ref))),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert dict(got.terms) == want
    for restrict, q0, factor in ((p.iota, 0, 1), (p.iota_weighted_neumann, 2 * fr, 2 * fr)):
        if any(q < q0 and q != 0 for _, _, q in ref):
            with pytest.raises(ValueError):
                restrict()
            continue
        bnd = restrict()
        want = {(s, a): c * factor for (s, a, q), c in ref.items() if q == q0}
        _assert_canonical(bnd)
        assert bnd.n == n - 1
        assert _on_boundary(bnd) == want
        assert _on_boundary(bnd.laplacian()) == _ref_boundary_lap(want, n)
        for out in (bnd.laplacian(), bnd.directional_r2(ell), bnd.kelvin_pullback(w),
                    bnd.mul_r2(F(1, 2)), bnd - bnd.kelvin_pullback(w)):
            _assert_canonical(out)
        assert (bnd.kelvin_pullback(w).kelvin_pullback(w) - bnd).is_zero_function()


def _count_fractions(monkeypatch, fn, arg):
    """Number of Fraction objects built by fn(arg), after one warm-up call
    (memo tables and cached parameters are filled once per process)."""
    fn(arg)
    real, count = F.__new__, [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counting)
        fn(arg)
    return count[0]


def test_inner_loops_build_no_fraction_per_term(monkeypatch):
    """Regression guard by counting, not timing: the hot operations build the
    same number of Fractions on a 1-term input as on a 100-term one."""
    fr, m = F(2, 7), F(1, 5)
    params = GammaParams(2 + fr)

    def half_space(size):
        terms = {}
        for i in range(size):
            terms[(F(i % 7 - 3, 2), (i % 4, i // 40), 2 * (i // 4 % 3) + 2 * fr * (i // 12 % 2))] = F(i + 1, i % 5 + 1)
        return HalfSpacePoly(2, fr, terms)

    def jet(size):
        expr = jets.BoundaryExpr({(f"u{i}", i % 3, bool(i % 2)): F(i + 1, 7) for i in range(size)})
        return jets.Jet(params, 4, (expr,) * 5, (expr,) * 5)

    ops = [
        (half_space, lambda p: p.weighted_laplacian(m)),
        (half_space, HalfSpacePoly.is_zero_function),
        (jet, jets.apply_T),
    ]
    for build, op in ops:
        small, large = build(1), build(120)
        assert len(large.a[0].terms if isinstance(large, jets.Jet) else large.terms) >= 100
        assert _count_fractions(monkeypatch, op, small) == _count_fractions(monkeypatch, op, large)

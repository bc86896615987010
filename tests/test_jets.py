"""Exact jet algebra: operator rules, scattering relations, expansions."""

from fractions import Fraction as F

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace import jets
from fractrace.gammacore import (
    ExactConstant,
    GammaParams,
    dtn_constant,
    pochhammer_ratio,
)
from fractrace.jets import (
    BoundaryExpr,
    Jet,
    TruncationError,
    apply_T,
    apply_tangential,
    apply_weighted_laplacian,
    boundary_operator_symbol,
    boundary_operators,
    make_generic_jet,
    make_scattering_jet,
    restrict,
    restrict_weighted_neumann,
    scattering_relation_constants,
    verify_operators_via_laplacian,
    verify_scattering_annihilation,
    verify_scattering_relations,
)

GAMMAS = [F(1, 3), F(1, 2), F(4, 5), F(4, 3), F(3, 2), F(9, 4), F(5, 2), F(10, 3), F(7, 2), F(9, 2)]


def single_jet(params, branch, idx, sym="f", trunc=6):
    a = [BoundaryExpr.zero() for _ in range(trunc + 1)]
    b = [BoundaryExpr.zero() for _ in range(trunc + 1)]
    (a if branch == "a" else b)[idx] = BoundaryExpr.symbol(sym)
    return Jet(params, trunc, tuple(a), tuple(b))


def test_normal_operator_rules():
    p = GammaParams(F(7, 3))
    fr = p.frac_gamma
    # T(y^2 f) = 4 (1 - [g]) f at order zero
    jet = single_jet(p, "a", 1)
    out = apply_T(jet)
    assert out.a[0] == BoundaryExpr.symbol("f", coeff=4 * (1 - fr))
    # order-zero terms die
    assert apply_T(single_jet(p, "a", 0)).is_zero()
    assert apply_T(single_jet(p, "b", 0)).is_zero()
    # b branch: T(y^(2[g]+2) f) = 4 (1 + [g]) f y^(2[g])
    out = apply_T(single_jet(p, "b", 1))
    assert out.b[0] == BoundaryExpr.symbol("f", coeff=4 * (1 + fr))
    with pytest.raises(TruncationError):
        apply_T(Jet.zero(p, 0))


def test_tangential_rules():
    p = GammaParams(F(1, 2))
    jet = single_jet(p, "a", 0)
    out = apply_tangential(jet)
    assert out.a[0] == BoundaryExpr.symbol("f", lap=1)
    out3 = apply_tangential(Jet(p, jet.truncation, (jet.a[0].scale(3),) + jet.a[1:], jet.b))
    assert out3.a[0] == BoundaryExpr.symbol("f", lap=1, coeff=3)
    assert apply_tangential(Jet.zero(p, 3)).is_zero()


def test_weighted_laplacian_combines_both():
    p = GammaParams(F(7, 3))
    fr = p.frac_gamma
    # pure order-zero: only the tangential part survives
    out = apply_weighted_laplacian(single_jet(p, "a", 0))
    assert out.a[0] == BoundaryExpr.symbol("f", lap=1)
    # order-one: normal part plus shifted tangential part
    out = apply_weighted_laplacian(single_jet(p, "a", 1))
    assert out.a[0] == BoundaryExpr.symbol("f", coeff=4 * (1 - fr))
    assert out.a[1] == BoundaryExpr.symbol("f", lap=1)


def test_restrictions():
    p = GammaParams(F(4, 3))
    fr = p.frac_gamma
    jet = make_scattering_jet(p, 0, "even")
    assert restrict(jet) == BoundaryExpr.symbol("f")  # unit leading coefficient
    assert restrict_weighted_neumann(single_jet(p, "a", 2)).is_zero()
    out = restrict_weighted_neumann(single_jet(p, "b", 0, sym="b0"))
    assert out == BoundaryExpr.symbol("b0", coeff=2 * fr)


def test_boundary_operator_base_cases():
    p = GammaParams(F(4, 3))
    jet = make_generic_jet(p)
    ops = boundary_operators(p, jet)
    assert ops[("even", 0)] == restrict(jet)
    # order-one even operator: -T restriction - ((1-[g])/(1-g)) Lap restriction
    fr, g = p.frac_gamma, p.gamma
    want = restrict(apply_T(jet)).scale(-1) - restrict(jet).laplacian().scale(
        (1 - fr) / (1 - g))
    assert ops[("even", 1)] == want


def test_half_order_neumann_is_classical():
    # gamma = 1/2: the half-order operator is minus the plain normal trace
    p = GammaParams(F(1, 2))
    jet = make_generic_jet(p)
    got = boundary_operators(p, jet)[("odd", 0)]  # 2 alpha = 2 [gamma] = 1
    assert got == jet.b[0].scale(-1)  # -2 [g] b0 = -b0 at [g] = 1/2


@pytest.mark.parametrize("gamma", GAMMAS)
def test_scattering_relations(gamma):
    assert verify_scattering_relations(GammaParams(gamma)).passed


@pytest.mark.parametrize("gamma", GAMMAS)
def test_operators_via_laplacian(gamma):
    assert verify_operators_via_laplacian(GammaParams(gamma)).passed


@pytest.mark.parametrize("gamma", GAMMAS)
def test_scattering_annihilation(gamma):
    assert verify_scattering_annihilation(GammaParams(gamma)).passed


@pytest.mark.parametrize("gamma", [F(1, 3), F(5, 2), F(9, 2)])
def test_scattering_annihilation_sees_a_wrong_gamma_ratio(gamma, monkeypatch):
    """The Pochhammer (Gamma) ratio of the scattering jets' first order x
    (1 + 1e-3): the weighted Laplacian powers no longer annihilate them."""
    real = jets.pochhammer_ratio
    monkeypatch.setattr(jets, "pochhammer_ratio",
                        lambda a, n: real(a, n) * (F(1001, 1000) if n == 1 else 1))
    assert verify_scattering_annihilation(GammaParams(gamma)).status == "fail"


def test_scattering_jet_frozen_coefficients():
    # leading-order coefficients of the even order-zero jet: y^2 slot holds
    # -Lap f / (4 (1 - gamma))
    for g in (F(1, 2), F(7, 3)):
        p = GammaParams(g)
        jet = make_scattering_jet(p, 0, "even")
        want = BoundaryExpr.symbol("f", lap=1, coeff=F(-1) / (4 * (1 - g)))
        assert jet.a[1] == want
        # hat branch leads with unit coefficient
        assert jet.b[p.floor_gamma] == BoundaryExpr.symbol("f", hat=True)
    # gamma = 1/2 special value: y^2 coefficient is -Lap f / 2
    jet = make_scattering_jet(GammaParams(F(1, 2)), 0, "even")
    assert jet.a[1] == BoundaryExpr.symbol("f", lap=1, coeff=F(-1, 2))


def test_scattering_relation_constants_frozen():
    # gamma = 1/2: B_0 V = f and B_1 V = -f^ (the classical Neumann datum)
    p = GammaParams(F(1, 2))
    (fam0, idx0, k0, h0), (fam1, idx1, k1, h1) = scattering_relation_constants(p, 0, "even")
    assert (fam0, idx0, k0, h0) == ("even", 0, 1, False)
    assert (fam1, idx1, k1, h1) == ("odd", 0, -1, True)


def test_parity_of_branches():
    # operators never mix branches: even-family output of a pure b jet is zero
    p = GammaParams(F(5, 2))
    ops = boundary_operators(p, make_scattering_jet(p, 0, "even"))
    for j in range(p.floor_gamma + 1):
        assert not any(hat for _, _, hat in ops[("even", j)].terms)


def test_leading_coefficients_in_operator_algebra():
    for g in GAMMAS:
        p = GammaParams(g)
        for j in range(p.floor_gamma + 1):
            sym_even = boundary_operator_symbol(p, "even", j)
            assert sym_even[(j, 0)] == F(-1) ** j
            sym_odd = boundary_operator_symbol(p, "odd", j)
            assert sym_odd[(j, 0)] == F(-1) ** (j + 1)


def _dilate_expr(expr, lam2):
    """Each term of expr scaled by lam2**laplacian_power (boundary dilation
    bookkeeping)."""
    return BoundaryExpr({key: c * lam2 ** key[1] for key, c in expr.terms.items()})


def _dilate_jet(jet, lam2):
    """Jet of U(lam x, lam y) in terms of the rescaled base symbols: the
    coefficient at branch order j carrying lap tangential powers picks up
    lam2^(j - lap) (y powers and x derivatives scale oppositely).  The common
    lam2^[g] factor of the b branch is left out and reappears in the
    homogeneity degree of the odd operator family."""
    orders = range(jet.truncation + 1)
    return Jet(jet.params, jet.truncation,
               tuple(_dilate_expr(jet.a[j], 1 / lam2).scale(lam2 ** j) for j in orders),
               tuple(_dilate_expr(jet.b[j], 1 / lam2).scale(lam2 ** j) for j in orders))


@pytest.mark.parametrize("gamma", [F(4, 5), F(7, 3), F(7, 2)])
def test_homogeneity(gamma):
    """Parabolic dilation covariance: B at index 2 alpha is homogeneous of
    degree 2 alpha.  In terms of the rescaled symbols, B applied to the
    dilated jet equals lam2^j times the lap-rescaled output (the common
    lam2^[g] of the odd family cancels against the b-branch bookkeeping)."""
    p = GammaParams(gamma)
    lam2 = F(9, 4)
    for kind, count in (("even", p.n_even_data), ("odd", p.n_odd_data)):
        if count == 0:
            continue
        jet = make_scattering_jet(p, 0, kind)
        ops, scaled = boundary_operators(p, jet), boundary_operators(p, _dilate_jet(jet, lam2))
        for (fam, j), op in ops.items():
            assert scaled[(fam, j)] == _dilate_expr(op, 1 / lam2).scale(lam2 ** j), (gamma, kind, fam, j)


def test_above_scattering_range_defined_by_recursion():
    # odd-family indices past the scattering range exist and stay homogeneous
    p = GammaParams(F(7, 3))
    jet = make_generic_jet(p)
    top = boundary_operators(p, jet)[("odd", p.floor_gamma)]
    assert not top.is_zero()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dtn_relation_at_jet_level(gamma):
    """Assemble the solved Dirichlet jet for a unit datum and compare the
    Neumann output against the closed-form constant times the scattering
    symbol, exact in the constant algebra."""
    p = GammaParams(gamma)
    fl, fr, g = p.floor_gamma, p.frac_gamma, p.gamma
    for j in range(p.n_even_data):
        gt = g - 2 * j
        (fam_d, _, kap_d, _), (fam_h, idx_h, _, _) = scattering_relation_constants(p, j, "even")
        jet = make_scattering_jet(p, j, "even").scale(1 / kap_d)
        coeff = boundary_operators(p, jet)[(fam_h, idx_h)].terms[("f", 0, True)]
        symbol = ExactConstant(
            pochhammer_ratio(1 - fr, 2 * j - fl - 1) / pochhammer_ratio(fr, fl - 2 * j),
            gamma_ratio_power=1, two_power=-2 * gt)
        assert (ExactConstant(coeff) * symbol).equals_at(dtn_constant(p, "even", j), fr)
    for j in range(p.n_odd_data):
        gt = fl - fr - 2 * j
        (fam_d, _, kap_d, _), (fam_h, idx_h, _, _) = scattering_relation_constants(p, j, "odd")
        jet = make_scattering_jet(p, j, "odd").scale(1 / kap_d)
        coeff = boundary_operators(p, jet)[(fam_h, idx_h)].terms[("phi", 0, True)]
        symbol = ExactConstant(
            pochhammer_ratio(fr, 2 * j - fl) / pochhammer_ratio(1 - fr, fl - 2 * j - 1),
            gamma_ratio_power=-1, two_power=-2 * gt)
        lhs = ExactConstant(coeff) * symbol
        assert lhs.equals_at(ExactConstant(-1) * dtn_constant(p, "odd", j), fr)


@pytest.mark.parametrize("family, j", [("even", 1), ("even", 2), ("odd", 0), ("odd", 2)])
def test_perturbed_symbol_fails_exact_checks(monkeypatch, family, j):
    """Both evaluators share the memoized symbol; a wrong coefficient in it
    must still be caught, so the checks do not compare the symbol with itself."""
    p = GammaParams(F(5, 2))
    original = jets.boundary_operator_symbol

    def perturbed(params, fam, idx):
        sym = original(params, fam, idx)
        if (fam, idx) == (family, j):
            sym[min(sym)] += F(1, 7)   # lowest normal power; below the T^j term when j > 0
        return sym

    monkeypatch.setattr(jets, "boundary_operator_symbol", perturbed)
    assert not verify_scattering_relations(p).passed
    assert not verify_operators_via_laplacian(p).passed


def test_boundary_operators_stop_at_the_truncation():
    """The table holds j <= min([g], truncation), each entry equal to the
    full jet's."""
    p = GammaParams(F(9, 2))
    short = make_generic_jet(p, truncation=2)
    ops = boundary_operators(p, short)
    assert set(ops) == {(fam, j) for fam in ("even", "odd") for j in range(3)}
    full = boundary_operators(p, make_generic_jet(p))
    for key, op in ops.items():
        assert op == full[key]


def _count_apply_T(monkeypatch):
    real = jets.apply_T
    calls = []

    def counting(jet):
        calls.append(1)
        return real(jet)

    monkeypatch.setattr(jets, "apply_T", counting)
    return calls


@pytest.mark.parametrize("gamma, truncation", [(F(1, 3), None), (F(15, 2), None), (F(15, 2), 3)])
def test_boundary_operators_build_one_T_chain(monkeypatch, gamma, truncation):
    p = GammaParams(gamma)
    jet = make_generic_jet(p, truncation)
    calls = _count_apply_T(monkeypatch)
    boundary_operators(p, jet)
    assert len(calls) == min(p.floor_gamma, jet.truncation)


def test_scattering_relations_apply_T_once_per_step_and_jet(monkeypatch):
    p = GammaParams(F(15, 2))
    calls = _count_apply_T(monkeypatch)
    assert verify_scattering_relations(p).passed
    assert len(calls) == p.floor_gamma * (p.n_even_data + p.n_odd_data) > 0


def test_symbol_mutation_does_not_leak_into_cache():
    p = GammaParams(F(7, 2))
    first = boundary_operator_symbol(p, "odd", 3)
    expected = dict(first)
    first[(3, 0)] += 1
    first[(9, 9)] = F(5)
    del first[min(first)]
    assert boundary_operator_symbol(p, "odd", 3) == expected


_expr_terms = st.dictionaries(
    st.tuples(st.sampled_from(["f", "phi", "u0"]), st.integers(0, 3), st.booleans()),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=6,
)


def _assert_canonical(e):
    assert e.den > 0 and all(e.nums.values()) and math.gcd(e.den, *e.nums.values()) == 1


def _clean(terms):
    return {k: c for k, c in terms.items() if c != 0}


@given(_expr_terms, _expr_terms, st.fractions(min_value=-3, max_value=3, max_denominator=9))
@settings(max_examples=80, deadline=None)
def test_expression_layout_matches_fraction_reference(t1, t2, c):
    """Integer numerators over one denominator read back as the Fraction maps
    of every operation, and every result is canonical, so equality stays map
    equality."""
    e1, e2 = BoundaryExpr(t1), BoundaryExpr(t2)
    keys = set(t1) | set(t2)
    cases = [
        (e1, _clean(t1)),
        (e1 + e2, _clean({k: t1.get(k, 0) + t2.get(k, 0) for k in keys})),
        (e1 - e2, _clean({k: t1.get(k, 0) - t2.get(k, 0) for k in keys})),
        (e1.scale(c), _clean({k: v * c for k, v in t1.items()})),
        (e1.laplacian(2), _clean({(s, lap + 2, h): v for (s, lap, h), v in t1.items()})),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert dict(got.terms) == want
    assert (e1 + e2 - e2) == e1 and hash(e1 + e2 - e2) == hash(e1)


@pytest.mark.parametrize("gamma", [F(2, 7), F(9, 4), F(31, 4)])
def test_apply_T_factors_match_fraction_reference(gamma):
    p = GammaParams(gamma)
    fr = p.frac_gamma
    jet = make_generic_jet(p)
    jet = Jet(p, jet.truncation, tuple(e.scale(F(3, 5)) for e in jet.a), jet.b)
    out = apply_T(jet)
    for j in range(out.truncation + 1):
        assert dict(out.a[j].terms) == {(f"u{j + 1}", 0, False): F(3, 5) * 4 * (j + 1) * (j + 1 - fr)}
        assert dict(out.b[j].terms) == {(f"v{j + 1}", 0, False): 4 * (j + 1) * (j + 1 + fr)}
        _assert_canonical(out.a[j])

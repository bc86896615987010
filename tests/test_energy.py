"""Energies, quadratic forms, and the sharp-inequality bench."""

import copy
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from scipy import special

from fractrace import energy as en
from fractrace.gammacore import GammaParams
from fractrace.cli import DEFAULT_GAMMAS
from fractrace.modes import (
    T_SERIES,
    GridField,
    NumericJets,
    all_profiles,
    dirichlet_condition_list,
    gaussian_field,
    neumann_condition_list,
    solve_extension,
)
from fractrace.energy import (
    Bubble,
    ModeFieldView,
    PolyGaussModeFn,
    SobolevQuotient,
    boundary_correction,
    bubble_tail_p,
    dirichlet_principle_check,
    dtn_rhs,
    energy_trace_check,
    extension_field_view,
    interior_energy,
    lebedev_milin_check,
    lebedev_milin_extremal_energy,
    q_form,
    random_two_branch_field,
    sharp_sobolev_check,
    sharp_sobolev_constant,
    sphere_volume,
    verify_q_symmetry,
    zero_data_perturbation,
    _pair_matrix,
    _ul_pair,
)
from test_cli import _child_env
from test_modes import _summed_profile_jets


def full_spectrum(f: GridField):
    """c_xi on every mode of the grid by plain np.fft.fftn, and |xi|^2 there:
    the full-spectrum reference for the half-spectrum sums."""
    axes = [2.0 * np.pi * np.fft.fftfreq(s) * s / f.box_length for s in f.shape]
    return np.fft.fftn(f.values) / f.values.size, sum(k ** 2 for k in np.ix_(*axes))


def plancherel_energy(f: GridField, power: float) -> float:
    """oint f (-Lap)^power f via the Fourier symbol (the classical oracle)."""
    modes, xi2 = full_spectrum(f)
    sym = xi2 ** power
    sym.flat[0] = 0.0
    return float(np.sum(np.abs(modes) ** 2 * sym)) * f.box_length ** f.n


def test_pair_integral_against_closed_form():
    # int_0^inf y^4 e^(-2y^2) y^m dy = Gamma((5+m)/2) / (2 * 2^((5+m)/2))
    m = 1.0 / 3.0
    atom = PolyGaussModeFn(0.7, F(1, 3), 1.0, {F(2): 1.0 + 0j})
    got = complex(_pair_matrix([atom], [atom])[0, 0]).real
    a = (5 + m) / 2
    want = math.gamma(a) / (2.0 * 2.0 ** a)
    assert got == pytest.approx(want, rel=1e-11)


# integral_lo^hi y^j e^(-y) dy in closed form: the antiderivative of y^j e^(-y)
# is -e^(-y) (1, y + 1 and y^2 + 2y + 2 for j = 0, 1, 2)
_EXP_ANTIDERIVATIVE = {0: lambda y: -math.exp(-y), 2: lambda y: -(y * y + 2 * y + 2) * math.exp(-y)}


def _panels(fn, lo, hi):
    """integral_lo^hi fn(y) dy on the outer region's panels, as a one-by-one
    batch: fn times the constant 1."""
    one = np.ones((1, 1), dtype=bool)
    return en._adaptive_gl(lambda y: fn(y)[None], lambda y: np.ones((1, y.size)), lo, hi, one)[0, 0]


@pytest.mark.parametrize("j", [0, 2])
def test_outer_panels_against_closed_form(j):
    """The outer region's geometric panels, each the Gauss-Jacobi rule at
    beta = 0 mapped to [a, b] with a > 0, on e^(-y) and y^2 e^(-y)."""
    lo, hi = 0.8, 40.0
    got = complex(_panels(lambda y: y ** j * np.exp(-y), lo, hi))
    want = _EXP_ANTIDERIVATIVE[j](hi) - _EXP_ANTIDERIVATIVE[j](lo)
    assert got.imag == 0.0
    assert got.real == pytest.approx(want, rel=1e-12)


def test_outer_panels_fail_with_a_shifted_rule(monkeypatch):
    """A rule built at beta + 1e-6 instead of beta misses the closed form."""
    real = en._gauss_jacobi_01
    monkeypatch.setattr(en, "_gauss_jacobi_01", lambda n, beta: real(n, beta + 1e-6))
    lo, hi = 0.8, 40.0
    got = complex(_panels(lambda y: y * y * np.exp(-y), lo, hi)).real
    want = _EXP_ANTIDERIVATIVE[2](hi) - _EXP_ANTIDERIVATIVE[2](lo)
    assert got != pytest.approx(want, rel=1e-12)


# Gauss rules against scipy's roots_jacobi/roots_legendre, in x on [-1, 1].
# Worst measured over the grids below, before these bounds were set: nodes
# 3.3e-16 (4.4e-16 over beta in [-0.95, 21] by 0.05 and n up to 768);
# weights, relative to the largest weight, 6.3e-12 at n = 48, 1.3e-10 at
# n = 96 and 8.3e-9 at n = 768, all at beta = -0.6 or -7/9, where the weight
# (1 + x)^beta is singular.  There the error is scipy's: against a 50-digit
# Newton-polished rule the numpy weights are off by 7.8e-13 at (96, -0.6) and
# 8.7e-12 at (768, -0.6), scipy's by 8.5e-11 and 8.3e-9.  Exactness on u^k,
# k <= 2n - 1, relative to 1/(beta + k + 1): 6.5e-14, 3.7e-14 and 5.7e-13.
# A rule built at beta + 1e-6 moves its nodes by at least 1.2e-9, its weights
# by 4.5e-7 and its moments by 1e-7.  RULE_WIDE_BETAS reach the ends of what
# `verify --full --gamma 71/9` integrates; at 12, 15 and 18.78 plain Newton
# from the same first guesses lands two nodes on one root.
RULE_NODE_ATOL = 1e-15
RULE_WEIGHT_RTOL = {48: 1e-11, 96: 2e-10, 768: 1e-8}
RULE_MOMENT_RTOL = {48: 5e-13, 96: 2e-12, 768: 2e-10}
RULE_BETAS = np.linspace(-0.6, 9.0, 9)
RULE_WIDE_BETAS = (-7.0 / 9.0, 12.0, 15.0, 18.78)


def _rule_defects(n, beta_built, beta):
    """Node and weight defects of the rule built at beta_built against scipy's
    at beta, and its worst moment error against integral_0^1 u^beta u^k du."""
    u, w = en._gauss_jacobi_01(n, beta_built)
    x, wx = 2.0 * u - 1.0, w * 2.0 ** (beta_built + 1.0)
    xs, ws = special.roots_jacobi(n, 0.0, beta)
    return (np.max(np.abs(x - xs)), np.max(np.abs(wx - ws)) / ws.max(),
            _moment_defect(u, w, beta))


def _moment_defect(u, w, beta):
    k = np.arange(2 * u.size)
    return np.max(np.abs((u ** k[:, None]) @ w * (beta + k + 1.0) - 1.0))


@pytest.mark.parametrize("n", [48, 96, 768])
def test_gauss_jacobi_matches_scipy(n):
    for beta in [*(RULE_BETAS if n < 768 else RULE_BETAS[::2]), *RULE_WIDE_BETAS]:
        nodes, weights, moments = _rule_defects(n, beta, beta)
        assert nodes <= RULE_NODE_ATOL, beta
        assert weights <= RULE_WEIGHT_RTOL[n], beta
        assert moments <= RULE_MOMENT_RTOL[n], beta
        assert np.all(np.diff(en._gauss_jacobi_01(n, beta)[0]) > 0.0), beta


@pytest.mark.parametrize("n", [48, 96, 768])
def test_gauss_legendre_matches_scipy(n):
    u, w = en._gauss_jacobi_01(n, 0.0)
    xs, ws = special.roots_legendre(n)
    assert np.max(np.abs(2.0 * u - 1.0 - xs)) <= RULE_NODE_ATOL
    assert np.max(np.abs(2.0 * w - ws)) / ws.max() <= RULE_WEIGHT_RTOL[n]
    assert _moment_defect(u, w, 0.0) <= RULE_MOMENT_RTOL[n]


@pytest.mark.parametrize("n", [48, 96, 768])
def test_gauss_jacobi_check_catches_a_shifted_rule(n):
    """A rule built for beta + 1e-6 fails every bound of the check above."""
    nodes, weights, moments = _rule_defects(n, 1.8 + 1e-6, 1.8)
    assert nodes > RULE_NODE_ATOL
    assert weights > RULE_WEIGHT_RTOL[n]
    assert moments > RULE_MOMENT_RTOL[n]


def test_gauss_jacobi_raises_when_not_converged(monkeypatch):
    """A rule whose Aberth steps hit the cap raises instead of returning
    unconverged nodes."""
    monkeypatch.setattr(en, "_gj_cache", {})
    monkeypatch.setattr(en, "GJ_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError):
        en._gauss_jacobi_01(48, 1.8)
    assert not en._gj_cache


def test_numeric_checks_run_without_lapack(monkeypatch):
    """The numeric checks at 1/2 (q_symmetry, both energy checks, Legendre
    panels) build every Gauss rule they use without an eigen solver, so no
    BLAS thread wakes."""
    from fractrace import suite

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigen solver called")

    for owner, name in [(np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                        (np.polynomial.legendre, "leggauss")]:
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(en, "_gj_cache", {})
    reports = suite._numeric_checks(F(1, 2), 1, 128, 60.0, 0, False)
    assert {"q_symmetry", "dirichlet_principle", "energy_trace"} <= {r.check for r in reports}
    assert all(r.passed for r in reports)
    betas = {beta for _, beta in en._gj_cache}
    assert 0.0 in betas and len(betas) > 1


def _paired_atoms(p):
    """Every atom the energy checks integrate at order p: the unit profiles'
    Laplacian powers and a synthetic field's, each with its y derivative."""
    atoms = []
    for powers in en._unit_laplacians(p):
        atoms += powers
    view = random_two_branch_field(p, GridField(1, (128,), 60.0, np.zeros(128)), seed=0)
    for pos in range(view.modes.size):
        for j in range(p.k + 1):
            atoms += view.laplacian_atoms(pos, j)
    return atoms + [a.d_dy() for a in atoms]


@pytest.mark.parametrize("gamma", [F(4, 5), F(4, 3), F(10, 3)])
def test_series_offsets_are_exact(gamma):
    """Every atom the energy checks integrate, in exponent classes as one
    list: each term sits at its own exponent, anchor plus an exact integer
    offset, so the classes as the Gauss-Jacobi integrand evaluates them,
    y^anchor times each row's polynomial in y, equal eval_series on the
    quadrature nodes.  At these orders float(p) - float(p_min) reads
    1.9999999999999998 for some exponents, and truncating that to an int
    moves a term to the wrong power."""
    p = GammaParams(gamma)
    atoms = _paired_atoms(p)
    classes = en._exponent_classes(atoms, conj=False)
    u, _ = en._gauss_jacobi_01(en.GJ_START, 0.0)
    for i, atom in enumerate(atoms):
        placed = {anchor + j: coeffs[i, j] for anchor, coeffs, _, _ in classes
                  for j in np.flatnonzero(coeffs[i])}
        assert placed == {F(key, atom.D): c for key, c in atom.terms.items()}
        y = min(atom.series_limit, atom.outer_limit) * u
        product = sum(y ** float(anchor) * en._class_values(coeffs[i:i + 1], lam[i:i + 1], y)[0]
                      for anchor, coeffs, lam, has in classes if has[i])
        size = sum(abs(c) * y ** float(F(key, atom.D)) for key, c in atom.terms.items())
        size = size * np.exp(-atom.lam * y * y)
        assert np.all(np.abs(product - atom.eval_series(y)) <= 1e-13 * size)


def test_classical_energy_identity():
    """gamma = 1/2: all three energy routes equal the Plancherel oracle."""
    p = GammaParams(F(1, 2))
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    sol = solve_extension(p, [f])
    u = extension_field_view(sol)
    oracle = plancherel_energy(f, 0.5)
    assert interior_energy(u, u) == pytest.approx(oracle, rel=1e-6)
    assert q_form(u, u) == pytest.approx(oracle, rel=1e-10)
    assert dtn_rhs(sol) == pytest.approx(oracle, rel=1e-12)
    assert boundary_correction(u, u) == 0.0  # empty coupling sum below gamma = 1


def test_energy_zero_field():
    p = GammaParams(F(3, 2))
    z = GridField(1, (64,), 30.0, np.zeros(64))
    sol = solve_extension(p, [z, z])
    u = extension_field_view(sol)
    assert interior_energy(u, u) == q_form(u, u) == dtn_rhs(sol) == 0.0


def test_energy_trace_weighted_sums():
    """gamma = 3/2: E = c0 oint f (-Lap)^(3/2) f + d0 oint phi (-Lap)^(1/2) phi."""
    p = GammaParams(F(3, 2))
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    phi = gaussian_field(1, (128,), 60.0, width=2.5)
    sol = solve_extension(p, [f, phi])
    u = extension_field_view(sol)
    oracle = 2.0 * plancherel_energy(f, 1.5) + 2.0 * plancherel_energy(phi, 0.5)
    # c_{3/2,0} = 2 and d_{3/2,0} = 2
    assert dtn_rhs(sol) == pytest.approx(oracle, rel=1e-12)
    assert q_form(u, u) == pytest.approx(oracle, rel=1e-8)
    assert interior_energy(u, u) - boundary_correction(u, u) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("shape", [(1,), (2,), (64,), (1, 1), (2, 8), (16, 16), (32, 4),
                                   (4, 2, 8)])
def test_pair_weights_count_each_conjugate_pair_once(shape):
    """On the rfftn half spectrum an entry whose -xi is not stored weighs 2.
    Of a pair stored twice (on the zero and Nyquist planes of the last axis)
    the lower flat index weighs 2 and the other 0, and a self-conjugate entry
    weighs 1, so the weights add up to the grid size.  from_modes inverts
    fft, and the weighted sum of |c|^2 is the mean of f^2 (Plancherel), which
    weight 2 on every plane entry breaks."""
    n = len(shape)
    f = GridField(n, shape, 10.0, np.random.default_rng(0).normal(size=shape))
    c, w = f.fft(), f.pair_weights()
    assert w.shape == c.shape == shape[:-1] + (shape[-1] // 2 + 1,)
    index = {k: i for i, k in enumerate(np.ndindex(c.shape))}
    for k, i in index.items():
        j = index.get(tuple(-np.array(k) % shape))   # None where -xi is not stored
        if j is None:
            assert w.flat[i] == 2.0
        elif j == i:
            assert w.flat[i] == 1.0
        else:
            assert (w.flat[i], w.flat[j]) == ((2.0, 0.0) if i < j else (0.0, 2.0))
    assert w.sum() == f.values.size
    back = GridField.from_modes(f, c).values
    assert np.abs(back - f.values).max() <= 1e-14 * np.abs(f.values).max()
    mean_square = np.mean(f.values ** 2)
    assert abs(np.sum(w * np.abs(c) ** 2) - mean_square) <= 1e-14 * mean_square
    planes_doubled = w.copy()
    planes_doubled[..., [0, -1]] = 2.0
    assert abs(np.sum(planes_doubled * np.abs(c) ** 2) - mean_square) > 1e-3 * mean_square


def _planes_doubled(pair_weights):
    def weights(self):
        w = pair_weights(self)
        w[..., [0, -1]] = 2.0
        return w
    return weights


@pytest.mark.parametrize("shape", [(16, 16), (8, 2), (8, 8, 8), (4, 8, 2)])
@pytest.mark.parametrize("doubled", [False, True], ids=["pair-weights", "planes-doubled"])
def test_half_spectrum_sums_match_full_fftn(shape, doubled, monkeypatch):
    """dtn_rhs and the SobolevQuotient numerator, summed on the half
    spectrum with the pair weights, against the same sums over every mode of
    plain np.fft.fftn, for random real fields (dtn_rhs) and an off-centre
    bubble (the quotient) at n = 2 and 3.  Weight 2 on every entry of the zero
    and Nyquist planes of the last axis breaks both; with a last axis of 2
    points every entry is on a plane."""
    if doubled:
        monkeypatch.setattr(GridField, "pair_weights", _planes_doubled(GridField.pair_weights))
    n = len(shape)
    p = GammaParams(F(3, 2), n=n)
    rng = np.random.default_rng(7)
    f, phi = (GridField(n, shape, 10.0, rng.normal(size=shape)) for _ in range(2))
    c0 = en.dtn_constant(p, "even", 0).value(p.frac_gamma)
    d0 = en.dtn_constant(p, "odd", 0).value(p.frac_gamma)
    bubble = Bubble(n, 0.5, epsilon=1.0, xi0=(1.3, -0.7, 0.4)[:n])
    pairs = [(dtn_rhs(solve_extension(p, [f, phi])),
              c0 * plancherel_energy(f, 1.5) + d0 * plancherel_energy(phi, 0.5)),
             (SobolevQuotient(f, 0.5)(bubble, [])[0],
              full_fft_quotient(bubble_field(bubble, f), 0.5, 0.0, None))]
    for got, want in pairs:
        assert (abs(got - want) <= 1e-13 * abs(want)) != doubled, (got, want)


@pytest.mark.parametrize("gamma", [F(1, 3), F(4, 5), F(3, 2), F(7, 3), F(5, 2), F(7, 2), F(9, 2)])
def test_q_symmetry(gamma):
    p = GammaParams(gamma)
    template = GridField(1, (64,), 40.0, np.zeros(64))
    for seed in (0, 2):
        u = random_two_branch_field(p, template, seed=seed)
        v = random_two_branch_field(p, template, seed=seed + 1)
        rep = verify_q_symmetry(p, u, v)
        assert rep.passed, rep.details


def test_q_symmetry_diagonal_routes():
    # U = V: the two evaluation routes agree on the diagonal too
    p = GammaParams(F(7, 3))
    template = GridField(1, (64,), 40.0, np.zeros(64))
    u = random_two_branch_field(p, template, seed=5)
    rep = verify_q_symmetry(p, u, u)
    assert rep.passed


def test_q_symmetry_pure_branch_pair():
    """Pure b-branch against pure a-branch localizes the coupling constant."""
    p = GammaParams(F(7, 3))
    template = GridField(1, (64,), 40.0, np.zeros(64))
    fields = []
    for seed in (1, 2):   # the coefficients random_two_branch_field draws at 7/3
        rng = np.random.default_rng(seed)
        fields.append(([en._band_limited(template, rng) for _ in range(3)],
                       [en._band_limited(template, rng)]))
    (a_u, b_u), (a_v, b_v) = fields
    u = en._two_branch_gauss_view(p, template, [0.0 * c for c in a_u], b_u, 1.0)
    v = en._two_branch_gauss_view(p, template, a_v, [0.0 * c for c in b_v], 1.0)
    rep = verify_q_symmetry(p, u, v)
    assert rep.passed, rep.details


def _q_symmetry_fields(gamma, seed=0):
    """The synthetic fields verify pairs in its q_symmetry row at this order
    and seed, on its default 1-D grid (128 points, box 60)."""
    p = GammaParams(F(gamma))
    template = GridField(1, (128,), 60.0, np.zeros(128))
    return p, random_two_branch_field(p, template, seed), random_two_branch_field(p, template, seed + 1)


def _synthetic_atoms(view, pos, k):
    """Every atom the checks pair at one mode of a synthetic view: the
    Laplacian powers 0..k and their y derivatives."""
    atoms = [a for j in range(k + 1) for a in view.laplacian_atoms(pos, j)]
    return atoms + [a.d_dy() for a in atoms]


@pytest.mark.parametrize("gamma", ["1/3", "5/2", "9/2"])
def test_closed_form_matches_quadrature(gamma):
    """Each pair of synthetic atoms in closed form on the exact coefficients
    against the batched quadrature on the rounded float terms, one matrix
    per mode.  Worst measured: 1.1e-13 at 1/3, 1.1e-13 at 5/2, 4.1e-13 at
    9/2 (1.1e-13, 9.4e-14 and 4.3e-13 with one quadrature per pair)."""
    p, u, v = _q_symmetry_fields(gamma)
    for pos in range(u.modes.size):
        us, vs = _synthetic_atoms(u, pos, p.k), _synthetic_atoms(v, pos, p.k)
        closed = en._pair_matrix(us, vs)
        quad = en._quadrature_matrix(us, vs)
        assert np.all(np.abs(closed - quad) <= 1e-12 * np.abs(closed))


def _exact_terms(atom):
    """{exponent: (real, imaginary)} of a synthetic atom, as Fractions."""
    out = {}
    for (p, part), c in atom.nums.items():
        out.setdefault(F(p, atom.D), [F(0), F(0)])[part] = F(c, atom.den)
    return {a: tuple(c) for a, c in out.items()}


def _fraction_apply(terms, rule):
    """sum_a c_a y^a exp(-y^2) mapped term by term in Fractions: rule(a) lists
    (exponent, weight) of the image of y^a exp(-y^2)."""
    out = {}
    for a, (re, im) in terms.items():
        for e, w in rule(a):
            r0, i0 = out.get(e, (F(0), F(0)))
            out[e] = (r0 + w * re, i0 + w * im)
    return {a: c for a, c in out.items() if c != (0, 0)}


def _fraction_laplacian(terms, m, xi2):
    """T_y - xi2, by T (y^a g) = (a (a - 1 + m) y^(a-2) - 2 (2a + 1 + m) y^a
    + 4 y^(a+2)) g for g = exp(-y^2)."""
    return _fraction_apply(terms, lambda a: ((a - 2, a * (a - 1 + m)),
                                             (a, -2 * (2 * a + 1 + m) - xi2), (a + 2, F(4))))


def _fraction_d_dy(terms):
    return _fraction_apply(terms, lambda a: ((a - 1, a), (a + 1, F(-2))))


@pytest.mark.parametrize("gamma", ["7/3", "9/2"])
def test_exact_laplacian_matches_fraction_reference(gamma):
    """The integer Laplacian powers and y derivatives of one synthetic atom
    equal a Fraction-only computation from its float hats and the view's
    float |xi|^2, and each float term is its exact coefficient rounded once."""
    p, u, _ = _q_symmetry_fields(gamma)
    pos = u.modes.size - 1
    atom = u.atoms(pos)[0]
    want = {F(key, atom.D): (F(c.real), F(c.imag)) for key, c in atom.terms.items()}
    assert _exact_terms(atom) == want
    xi2 = F(float(u.xi2[pos]))
    for j in range(p.k + 1):
        got = u.laplacian_atoms(pos, j)[0]
        assert _exact_terms(got) == want
        assert _exact_terms(got.d_dy()) == _fraction_d_dy(want)
        for key, c in got.terms.items():
            re, im = want[F(key, got.D)]
            assert c == complex(float(re), float(im))
        want = _fraction_laplacian(want, p.m, xi2)


def test_closed_form_matches_mpmath_at_15_2():
    """The U L^k V pair at one mode of verify's 15/2, seed-1 fields (the row
    that failed at 1.571e-8 by quadrature) against the per-term Gamma sum at
    50 digits.  Measured: 2.1e-16; quadrature on the float terms, 1.7e-12."""
    mpmath = pytest.importorskip("mpmath")
    p, u, v = _q_symmetry_fields("15/2", seed=1)
    mpmath.mp.dps = 50
    pos = 0
    a, b = u.atoms(pos)[0], v.laplacian_atoms(pos, p.k)[0]
    want = mpmath.mpc(0)
    for ea, (ar, ai) in _exact_terms(a).items():
        for eb, (br, bi) in _exact_terms(b).items():
            e = (ea + eb + p.m + 1) / 2
            c = mpmath.mpc(mpmath.mpf(ar.numerator) / ar.denominator,
                           mpmath.mpf(ai.numerator) / ai.denominator)
            d = mpmath.mpc(mpmath.mpf(br.numerator) / br.denominator,
                           -mpmath.mpf(bi.numerator) / bi.denominator)
            x = mpmath.mpf(e.numerator) / e.denominator
            want += c * d * mpmath.gamma(x) / (2 * mpmath.power(2, x))
    got = en._pair_matrix([a], [b])[0, 0]
    assert abs(got - complex(want)) <= 1e-15 * abs(complex(want))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", ["1e-6", "1e-9", "1e-12", "3e-16", "2.999999", "7.9999999"])
def test_q_symmetry_near_integers(gamma):
    """Orders whose Gauss-Jacobi exponent 2[g] - 1 nears -1 once failed this
    row with cap hits, nan and RuntimeWarnings; the closed form has none."""
    p, u, v = _q_symmetry_fields(gamma)
    rep = verify_q_symmetry(p, u, v)
    assert rep.status == "pass", rep.details
    assert math.isfinite(rep.max_rel_err)


def test_verify_passes_q_symmetry_at_15_2(tmp_path):
    """verify's 15/2, seed-1 q_symmetry row, which read 1.571e-8 against its
    1e-8 bound by quadrature, passes."""
    from fractrace import cli

    out = tmp_path / "report.json"
    assert cli.main(["verify", "--gamma", "15/2", "--seed", "1", "--only", "numeric",
                     "--out", str(out)]) == 0
    row, = (r for r in json.loads(out.read_text()) if r["check"] == "q_symmetry")
    assert row["status"] == "pass" and row["max_rel_err"] <= 1e-8


def test_q_symmetry_sees_a_wrong_boundary_sign(monkeypatch):
    """q_form's first boundary pairing, B[even, 0] U against B[odd, [g]] V,
    with its sign flipped fails both rows."""
    real = en._boundary_pairing

    def flipped(u, family_u, j_u, v, family_v, j_v, lap_power=0):
        value = real(u, family_u, j_u, v, family_v, j_v, lap_power)
        return -value if (family_u, j_u, lap_power) == ("even", 0, 0) else value

    monkeypatch.setattr(en, "_boundary_pairing", flipped)
    p, u, v = _q_symmetry_fields("5/2")
    rep = verify_q_symmetry(p, u, v)
    assert rep.status == "fail"
    assert all(err > 1e-3 for err in _defects(rep, "symmetry defect")
               + _defects(rep, "Q vs interior-minus-correction defect"))


def test_q_symmetry_holds_both_rows_to_one_bound(monkeypatch):
    """A boundary correction off by 3e-8 of the second row's scale fails the
    Q vs interior-minus-correction row, which is held to the check's 1e-8
    like the symmetry row."""
    p, u, v = _q_symmetry_fields("5/2")
    scale = abs(en.q_form(u, v)) + abs(en.interior_energy(u, v)) + 1.0
    real = en.boundary_correction
    monkeypatch.setattr(en, "boundary_correction", lambda a, b: real(a, b) + 3e-8 * scale)
    rep = verify_q_symmetry(p, u, v)
    err, = _defects(rep, "Q vs interior-minus-correction defect")
    assert 2e-8 < err < 4e-8
    assert rep.status == "fail"


def test_q_symmetry_sees_a_wrong_laplacian_coefficient(monkeypatch):
    """One exact coefficient of the first Laplacian the check builds, one
    mode's L V, times (1 + 1e-6): every higher power of that atom inherits
    it, and the routes disagree past the 1e-8 bound."""
    real = en.PolyGaussModeFn.weighted_laplacian
    done = []

    def faulty(self):
        out = real(self)
        if not done:
            done.append(True)
            key = max(out.nums, key=lambda key: abs(out.nums[key]))
            nums = dict(out.nums)
            nums[key] *= 1_000_001
            out = out._new(nums, out.den * 1_000_000)
        return out

    monkeypatch.setattr(en.PolyGaussModeFn, "weighted_laplacian", faulty)
    p, u, v = _q_symmetry_fields("5/2")
    rep = verify_q_symmetry(p, u, v)
    assert done and rep.status == "fail"
    assert rep.max_rel_err > 1e-7


_SEEDED_FIELDS = """
import json
from fractions import Fraction
import numpy as np
from fractrace import energy as en
from fractrace.gammacore import GammaParams
from fractrace.modes import GridField
out = []
for n, grid in ((1, 128), (2, 32), (3, 16)):
    p = GammaParams(Fraction(15, 2), n=n)
    template = GridField(n, (grid,) * n, 60.0, np.zeros((grid,) * n))
    for seed in (0, 1):
        for view in (en.random_two_branch_field(p, template, seed),
                     en.zero_data_perturbation(p, template, seed)):
            terms = [[(str(e), c.real.hex(), c.imag.hex()) for e, c in atom.terms.items()]
                     for pos in range(view.modes.size) for atom in view.atoms(pos)]
            out.append([view.modes.tolist(), terms])
print(json.dumps(out))
"""


def _seeded_fields(**env):
    proc = subprocess.run([sys.executable, "-c", _SEEDED_FIELDS], capture_output=True,
                          text=True, env=_child_env(**env), check=True)
    return json.loads(proc.stdout)


def test_seeded_fields_do_not_depend_on_simd_dispatch():
    """The seeded synthetic fields pick the same modes and coefficients, bit
    for bit, on numpy's baseline code paths as on the best ones this host
    dispatches to: the lowest modes are chosen by a stable sort, so ties in
    |xi| break by index on every host."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    baseline = _seeded_fields(NPY_DISABLE_CPU_FEATURES=" ".join(dispatched))
    assert _seeded_fields() == baseline


@pytest.mark.parametrize("gamma", [F(g) for g in DEFAULT_GAMMAS])
@pytest.mark.parametrize("n", [1, 2])
def test_zero_mode_contributes_nothing(gamma, n):
    """Why solution views leave out xi = 0.  There the solution is the
    polynomial sum_q a_q y^(2q) + b_q y^(2[g]+2q): L^floor(k/2) leaves only a
    constant, which d/dy kills, and L^ceil(k/2) leaves nothing, so no interior
    term sees it.  Each boundary pairing of q_form reads one side past its
    data slots, and each boundary_correction term carries (-|xi|^2)^p with
    p >= 1.  The data have nonzero mean, yet the view has no zero mode."""
    p = GammaParams(gamma, n=n)
    fl, fr = p.floor_gamma, float(p.frac_gamma)
    sol = solve_extension(p, _gaussian_data(p, 16, n=n))
    assert sol.zero_poly[0][0] != 0
    # orders past fl stay zero, so ceil(k/2) Laplacians leave orders 0..fl
    size = fl + 1 + (p.k + 1) // 2
    branch = lambda vals: [np.array([vals[q] if q < vals.size else 0.0], dtype=complex)
                           for q in range(size)]
    jets = NumericJets(fl, fr, branch(sol.zero_poly[0]), branch(sol.zero_poly[1]))
    for _ in range(p.k // 2):
        jets = jets.weighted_laplacian(0.0)
    assert all(np.all(x == 0) for x in jets.a[1:] + jets.b)   # a constant
    if p.k % 2:
        jets = jets.weighted_laplacian(0.0)
    assert all(np.all(x == 0) for x in jets.a + jets.b)
    jets = NumericJets(fl, fr, branch(sol.zero_poly[0])[:fl + 1], branch(sol.zero_poly[1])[:fl + 1])
    for j in range(p.n_even_data):
        assert np.all(jets.apply_boundary("odd", fl - j, 0.0) == 0)
    for j in range(p.n_odd_data):
        assert np.all(jets.apply_boundary("even", fl - j, 0.0) == 0)
    assert all(fl - j - ell >= 1 for j in range(p.n_even_data) for ell in range(p.n_odd_data))
    assert 0 not in extension_field_view(sol).modes


def test_non_decaying_atom_raises():
    """A lam = 0 synthetic atom pairs with nothing: its closed form divides
    by lam^b0."""
    atom = PolyGaussModeFn(0.0, F(1, 3), 0.0, {F(0): 1.0 + 0j})
    with pytest.raises(ZeroDivisionError):
        _pair_matrix([atom], [atom])


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2)])
def test_dirichlet_principle(gamma):
    p = GammaParams(gamma)
    widths = [2.0 + 0.4 * i for i in range(p.k)]
    data = [gaussian_field(1, (128,), 60.0, width=w) for w in widths]
    rep = dirichlet_principle_check(extension_field_view(solve_extension(p, data)))
    assert rep.passed, rep.details


def test_zero_perturbation_data_vanishes():
    p = GammaParams(F(5, 2))
    template = GridField(1, (64,), 40.0, np.zeros(64))
    w = zero_data_perturbation(p, template, seed=0)
    for family, j in dirichlet_condition_list(p):
        vals = w.boundary_modes(family, j)
        assert np.abs(vals).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2)])
def test_energy_trace(gamma):
    p = GammaParams(gamma)
    widths = [2.0 + 0.5 * i for i in range(p.k)]
    data = [gaussian_field(1, (128,), 60.0, width=w) for w in widths]
    rep = energy_trace_check(extension_field_view(solve_extension(p, data)))
    assert rep.passed, rep.details


def _defects(rep, prefix):
    """Defects of the report rows whose detail starts with prefix."""
    return [float(d.rsplit(" ", 1)[1]) for d in rep.details if d.startswith(prefix)]


def _gaussian_data(p, grid, box=60.0, n=1):
    return [gaussian_field(n, (grid,) * n, box, width=2.0 + 0.4 * i) for i in range(p.k)]


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2), F(10, 3)])
def test_gram_route_matches_per_mode_quadrature(gamma):
    """The |xi| = 1 Gram route against the per-mode atom route it replaces: the
    same solution, presented as a plain per-mode view with the solution view's
    jets, goes through per-mode quadrature.  The U L^k U term is zero for a
    solution; the per-mode route leaves up to 1.5e-14 of roundoff in it at
    10/3, so the two routes are compared at the scale of the form.  The
    jets give the boundary values of the per-profile oracle on the view's
    modes."""
    p = GammaParams(gamma)
    sol = solve_extension(p, _gaussian_data(p, 32, box=24.0))
    u = extension_field_view(sol)
    oracle = _summed_profile_jets(sol)
    for family, j in dirichlet_condition_list(p) + neumann_condition_list(p):
        want = oracle.apply_boundary(family, j, sol.xi2).reshape(-1)[u.modes]
        assert np.abs(u.boundary_modes(family, j) - want).max() <= 1e-15 * np.abs(want).max()
    ref = ModeFieldView(p, sol.template, u.modes, u.jets, [u.atoms(pos) for pos in range(u.modes.size)])
    want = interior_energy(ref, ref)
    assert abs(interior_energy(u, u) - want) <= 1e-12 * abs(want)
    want = q_form(ref, ref)
    assert abs(q_form(u, u) - want) <= 1e-12 * abs(want)
    assert abs(_ul_pair(u, u)) <= 1e-14
    assert abs(_ul_pair(u, u) - _ul_pair(ref, ref)) <= 1e-14 * abs(want)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("gamma", [F(1, 3), F(5, 2), F(9, 2)])
def test_view_boundary_values_are_the_solvers(gamma, n):
    """The solution view's boundary values on its modes are the solver's
    B[family, j] there, at every Dirichlet and Neumann slot."""
    p = GammaParams(gamma, n=n)
    sol = solve_extension(p, _gaussian_data(p, 128 if n == 1 else 32, box=24.0, n=n))
    u = extension_field_view(sol)
    for family, j in dirichlet_condition_list(p) + neumann_condition_list(p):
        want = sol.boundary_value_modes(family, j).reshape(-1)[u.modes]
        assert np.abs(u.boundary_modes(family, j) - want).max() <= 1e-15 * np.abs(want).max()


def test_dirichlet_principle_cost_independent_of_grid(monkeypatch):
    """The solution-solution block costs one Gram matrix per order, so the
    quadrature count does not grow with the grid."""
    p = GammaParams(F(5, 2))
    real = en._pair_matrix
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(en, "_pair_matrix", counting)
    counts = []
    for grid in (64, 256):
        en._unit_gram.cache_clear()
        calls.clear()
        view = extension_field_view(solve_extension(p, _gaussian_data(p, grid)))
        assert dirichlet_principle_check(view).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_energy_check_cost_independent_of_grid(monkeypatch):
    """Both energy checks apply the exact Bessel-chain Laplacian a fixed number
    of times per order (powers of the unit profiles, rescaled per mode) and
    run the same quadrature integrals and nodes on any grid."""
    p = GammaParams(F(5, 2))
    # Bessel atoms run their own weighted_laplacian, which reaches the series
    # rule through super(): patching it counts each Bessel application once
    assert "weighted_laplacian" in vars(en.BesselModeFn)
    real = en.BesselModeFn.weighted_laplacian
    laps = []

    def counting(self):
        laps.append(self.chain is not None)
        return real(self)

    monkeypatch.setattr(en.BesselModeFn, "weighted_laplacian", counting)
    quad = en.QUAD_COUNTS
    counts = []
    for grid in (64, 256):
        en._unit_gram.cache_clear()
        en._unit_laplacians.cache_clear()
        laps.clear()
        integrals, nodes = quad.integrals, quad.nodes
        view = extension_field_view(solve_extension(p, _gaussian_data(p, grid)))
        assert dirichlet_principle_check(view).passed
        assert energy_trace_check(view).passed
        counts.append((sum(laps), quad.integrals - integrals, quad.nodes - nodes))
    # k^2 = 9 applications for the Gram matrices and 9 for the one solution
    # view both checks share
    assert counts[0] == counts[1]
    assert counts[0][0] == 18 and counts[0][2] > 0


def test_energy_checks_share_one_solution_view(monkeypatch):
    """verify builds one solution view per energy order and hands it to both
    energy checks."""
    from fractrace import suite

    real = en.extension_field_view
    calls = []

    def counting(sol):
        calls.append(sol)
        return real(sol)

    monkeypatch.setattr(en, "extension_field_view", counting)
    reports = suite._numeric_checks(F(5, 2), 1, 128, 60.0, 0, False)
    assert len(calls) == 1
    assert all(r.passed for r in reports if r.check in ("dirichlet_principle", "energy_trace"))


@pytest.mark.parametrize("gamma", [F(9, 4), F(10, 3)])
def test_pair_lists_hold_one_atom_kind(gamma, monkeypatch):
    """_pair_matrix routes a whole call by its atoms' kind, so no list it is
    handed over verify's numeric suite, both energy checks included, mixes
    synthetic and Bessel atoms.  All three pairings of kinds occur: synthetic
    with synthetic, solution with synthetic, and solution with solution in the
    Gram matrices."""
    from fractrace import suite

    real = en._pair_matrix
    pairs = set()

    def kind(atoms):
        kinds = {type(a) for a in atoms}
        assert len(kinds) == 1, kinds
        return kinds.pop().__name__

    def spying(us, vs):
        pairs.add((kind(us), kind(vs)))
        return real(us, vs)

    monkeypatch.setattr(en, "_pair_matrix", spying)
    en._unit_gram.cache_clear()   # the Gram matrices' calls must be seen too
    reports = suite._numeric_checks(gamma, 1, 128, 60.0, 0, True)
    assert all(r.passed for r in reports)
    synthetic, bessel = "PolyGaussModeFn", "BesselModeFn"
    assert pairs == {(synthetic, synthetic), (bessel, synthetic), (synthetic, bessel), (bessel, bessel)}


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2)])
def test_energy_checks_make_no_cap_hits(gamma):
    p = GammaParams(gamma)
    view = extension_field_view(solve_extension(p, _gaussian_data(p, 128)))
    hits = en.QUAD_COUNTS.cap_hits
    for rep in (dirichlet_principle_check(view), energy_trace_check(view, seed=1)):
        assert rep.passed, rep.details
        assert "quadrature cap hits: 0" in rep.details
    assert en.QUAD_COUNTS.cap_hits == hits


def test_cap_hits_fail_each_check(monkeypatch):
    """With the node cap at the starting count no integral can converge: each
    check that runs quadrature reports its cap hits and fails."""
    p = GammaParams(F(3, 2))
    view = extension_field_view(solve_extension(p, _gaussian_data(p, 64)))
    monkeypatch.setattr(en, "GJ_CAP", en.GJ_START)
    en._unit_gram.cache_clear()
    try:
        reps = [dirichlet_principle_check(view), energy_trace_check(view)]
    finally:
        en._unit_gram.cache_clear()   # drop Gram matrices built at the low cap
    for rep in reps:
        assert not rep.passed
        hits = _defects(rep, "quadrature cap hits")
        assert len(hits) == 1 and hits[0] > 0


def _values(atom, y):
    """atom on y: branch series below its switchover, Bessel chains above."""
    out = np.empty(y.shape, dtype=complex)
    inner = y < atom.series_limit
    out[inner] = atom.eval_series(y[inner])
    out[~inner] = atom.eval_outer(y[~inner])
    return out


def test_subnormal_integrals_converge():
    """Of two integrals that never settle, the one whose integral of |f| is
    subnormal stops at its second node set and the one of normal size runs
    to the cap: a relative test cannot be met on 1e-316."""
    def rule(n):
        sign = (-1.0) ** (n // en.GJ_START).bit_length()   # flips at every doubling, ends at +1
        val = np.array([[5e-316 * sign, 1.0 * sign]])
        return val, np.abs(val)

    hits = en.QUAD_COUNTS.cap_hits
    out = en._adaptive(rule, np.ones((1, 2), dtype=bool))
    assert en.QUAD_COUNTS.cap_hits == hits + 1
    assert out[0, 0] == 5e-316 and out[0, 1] == -1.0


@pytest.mark.parametrize("box", ["1e50", "1e100", "1.4e101"])
def test_huge_boxes_verify(box, tmp_path):
    """On these boxes some cross terms are subnormal, and their integrals
    used to end in cap hits that failed both energy checks."""
    from fractrace.cli import main

    out = tmp_path / "r.json"
    assert main(["verify", "--gamma", "1/2", "--only", "numeric", "--grid", "8", "--box", box,
                 "--out", str(out)]) == 0
    reports = {r["check"]: r for r in json.loads(out.read_text())}
    for check in ("dirichlet_principle", "energy_trace"):
        assert "quadrature cap hits: 0" in reports[check]["details"]


@pytest.mark.parametrize("gamma, box", [("9/2", "1e40"), ("9/2", "1e50"), ("5/2", "1e100"),
                                        ("5/2", "1.4e101")])
def test_huge_boxes_pass_both_energy_routes(gamma, box, tmp_path):
    """On --box 1e40 |xi| starts at 6.3e-40, so |xi|^9 underflows to 0 while
    the unit-scaled coefficients reach 1e154: the Gram route once formed
    |xi|^(2 gamma) before contracting, and the interior-route energy read 0
    (defect 1).  With |xi|^gamma on each side both routes pass."""
    from fractrace.cli import main

    out = tmp_path / "r.json"
    assert main(["verify", "--gamma", gamma, "--only", "numeric", "--grid", "8", "--full",
                 "--box", box, "--out", str(out)]) == 0
    report = next(r for r in json.loads(out.read_text()) if r["check"] == "energy_trace")
    for prefix in ("energy equals DtN sum", "interior-route energy"):
        row = next(d for d in report["details"] if d.startswith(prefix))
        assert float(row.rsplit(" ", 1)[1]) <= 1e-13, row
    assert report["status"] == "pass"


def _scalar_values(atom):
    """_values at one point, with the series terms as two arrays."""
    exponents = np.array([key / atom.D for key in atom.terms])
    coeffs = np.array(list(atom.terms.values()), dtype=complex)

    def value(y):
        if y >= atom.series_limit:
            return atom.eval_outer(np.array([y]))[0]
        return coeffs @ y ** exponents * math.exp(-atom.lam * y * y)

    return value


def _scipy_pair(a, b, m):
    """integral of a conj(b) y^m over [0, min(outer limits)] by
    scipy.integrate.quad on the atoms' own values, split at the series
    limits, and the integral of its modulus (to 1e-6); the absolute
    tolerance is 1e-15 of the latter."""
    from scipy import integrate

    hi = min(a.outer_limit, b.outer_limit)
    points = [x for x in (a.series_limit, b.series_limit) if x < hi] or None

    fa, fb = _scalar_values(a), _scalar_values(b)

    def f(y):
        return fa(y) * np.conj(fb(y)) * y ** m

    def quad(g, epsabs, epsrel=1e-13):
        return integrate.quad(g, 0.0, hi, points=points, limit=400, epsabs=epsabs, epsrel=epsrel)[0]

    mass = quad(lambda y: abs(f(y)), 0.0, 1e-6)
    return complex(quad(lambda y: f(y).real, 1e-15 * mass), quad(lambda y: f(y).imag, 1e-15 * mass)), mass


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("gamma", [F(1, 3), F(5, 2), F(9, 2)])
def test_pair_matrix_matches_scipy_quad(gamma):
    """The batched quadrature against scipy.integrate.quad on each pair's own
    range: the unit Gram block of U L^k U, and the cross block of a
    solution's atoms at its lowest shared mode against a zero-data
    perturbation's L^k atoms, and the reverse at the highest; also the
    y derivatives of the unit L^(k/2) atoms with each other.  Error over |I| + integral of |f|, the stop
    rule's scale.  Worst measured before this bound was set: 3.1e-14 at 9/2
    (solution against perturbation), 1e-14 or less in every other block."""
    p = GammaParams(gamma)
    m = float(p.m)
    powers = en._unit_laplacians(p)
    sol = solve_extension(p, _gaussian_data(p, 128))
    u = extension_field_view(sol)
    w = zero_data_perturbation(p, sol.template, 0, 0.1)
    _, iu, iv = np.intersect1d(u.modes, w.modes, assume_unique=True, return_indices=True)
    mid = [a.d_dy() for a in powers[p.k // 2]]
    for us, vs in [(powers[0], powers[p.k]), (mid, mid),
                   (u.laplacian_atoms(iu[0], 0), w.laplacian_atoms(iv[0], p.k)),
                   (w.laplacian_atoms(iv[-1], 0), u.laplacian_atoms(iu[-1], p.k))]:
        got = en._pair_matrix(us, vs)
        for i, a in enumerate(us):
            for j, b in enumerate(vs):
                want, mass = _scipy_pair(a, b, m)
                assert abs(got[i, j] - want) <= 1e-13 * (abs(want) + mass), (i, j)


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2), F(10, 3)])
def test_rescaled_laplacian_atoms_match_direct_powers(gamma):
    """The view's atoms of (T - |xi|^2)^j U, rescaled from the |xi| = 1 unit
    powers, against the exact operator applied j times at the true |xi| to
    atoms built directly at that |xi|.  Both sides of the T_SERIES seam are
    sampled.  Each power is measured against the size of the terms it
    cancels, |xi|^(2(j - i)) max |L^i U| for i <= j: at j = k the solution is
    in the kernel and both routes leave only roundoff."""
    p = GammaParams(gamma)
    view = extension_field_view(solve_extension(p, _gaussian_data(p, 128)))
    nonzero = np.flatnonzero(view.xi > 0.0)
    for pos in (nonzero[0], nonzero[-1]):
        xi = float(view.xi[pos])
        y = np.linspace(0.1, 3.0, 59) * T_SERIES / xi
        direct = [en._profile_atom(prof, xi, c)
                  for prof, c in zip(view.sol.profiles, view.s[pos]) if c != 0]
        sizes = []
        for j in range(p.k + 1):
            want = np.array([_values(a, y) for a in direct])
            got = np.array([_values(a, y) for a in view.laplacian_atoms(pos, j)])
            sizes.append(np.abs(want).max())
            scale = max(size * xi ** (2 * (j - i)) for i, size in enumerate(sizes))
            assert np.abs(got - want).max() <= 1e-13 * scale, (pos, j)
            direct = [a.weighted_laplacian() for a in direct]


# Measured worst error of d/dy on the unit profiles: 2.46e-13 of the largest
# value, at the default and verify-high orders.
CHAIN_RULE_RTOL = 5e-13


def _chain_rule_defects():
    """d/dy of every unit profile's atom against scipy's
    (gamma t^(gamma-1) K_nu + t^gamma K_nu') / bessel_norm on t in [2, 30],
    as the worst error over the largest value, and the profiles P whose
    (T_t - 1)^k P keeps a chain term."""
    t = np.linspace(2.0, 30.0, 57)
    worst, survivors = 0.0, []
    for g in DEFAULT_GAMMAS + ["11/2", "13/2", "15/2", "31/4"]:
        p = GammaParams(F(g))
        gamma = float(p.gamma)
        for prof in all_profiles(p):
            atom = en._profile_atom(prof, 1.0, 1.0)
            nu = float(prof.nu)
            want = (gamma * t ** (gamma - 1.0) * special.kv(nu, t)
                    + t ** gamma * special.kvp(nu, t)) / prof.bessel_norm
            got = atom.d_dy().eval_outer(t)
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
            if en._laplacian_powers([atom], p.k)[-1][0].chain is not None:
                survivors.append((g, prof.kind, prof.j))
    return worst, survivors


def test_chain_rule_matches_scipy_and_cancels_exactly():
    """The order-recurrence chain rule: d/dy agrees with scipy's K', and
    (T_t - 1)^k leaves no chain term of any unit profile."""
    worst, survivors = _chain_rule_defects()
    assert worst <= CHAIN_RULE_RTOL
    assert not survivors


def test_chain_rule_check_catches_a_wrong_shift(monkeypatch):
    """(A - nu + 1) in place of the shift (A + nu - 1) of
    (t^A K_(nu-1))' = (A + nu - 1) t^(A-1) K_(nu-1) - t^A K_nu leaves chain
    terms after (T_t - 1)^k."""
    real = en.BesselModeFn._chain_ddt

    def wrong(self, nu, terms):
        out = real(self, nu, terms)
        for (a, d), c in terms.items():
            if d == 1:
                out[a - self.D, 1] += c * (2 - 2 * nu)
        return out

    monkeypatch.setattr(en.BesselModeFn, "_chain_ddt", wrong)
    assert _chain_rule_defects()[1]


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2)])
def test_dirichlet_principle_fails_for_a_non_solution(gamma):
    """One wrong Frobenius coefficient, set after the solve, makes U a
    non-solution wherever the perturbation W lives; it is no longer the
    minimizer and every t row fails."""
    p = GammaParams(gamma)
    sol = solve_extension(p, _gaussian_data(p, 128))
    sol.profiles[0].lead_series[1] *= 1.0 + 1e-3
    rep = dirichlet_principle_check(extension_field_view(sol))
    defects = _defects(rep, "t=")
    assert len(defects) == 4 and min(defects) > 1e-7
    assert not rep.passed


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2)])
def test_dirichlet_principle_sees_a_wrong_bessel_norm(gamma):
    """A 1e-3 error in one profile's bessel_norm, set after the solve, changes
    U only where t = |xi| y >= T_SERIES.  W's Gaussian in |xi_1| y reaches
    there, so the cross term fails the unchanged 1e-7 bound at verify's
    default seed; W = exp(-y^2) read at most 2.5e-12 here."""
    p = GammaParams(gamma)
    sol = solve_extension(p, _gaussian_data(p, 128))
    assert dirichlet_principle_check(extension_field_view(sol)).passed
    sol.profiles[0].bessel_norm *= 1.0 + 1e-3
    rep = dirichlet_principle_check(extension_field_view(sol))
    assert max(_defects(rep, "t=")) > 1e-7
    assert not rep.passed


@pytest.mark.parametrize("gamma, n, grid", [(F(1, 2), 1, 128), (F(3, 2), 1, 128), (F(3, 2), 2, 32),
                                            (F(3, 2), 3, 16)],
                         ids=["gamma0", "gamma1", "n2-gamma1", "n3-gamma1"])
def test_energy_trace_fails_for_a_wrong_dtn_constant(gamma, n, grid, monkeypatch):
    """A 1e-3 error in the even DtN constants fails both energy routes, on
    1-D, 2-D and 3-D grids."""
    p = GammaParams(gamma, n=n)
    real = en.dtn_constant

    class Scaled:
        def __init__(self, const):
            self.const = const

        def value(self, fr):
            return (1.0 + 1e-3) * self.const.value(fr)

    monkeypatch.setattr(en, "dtn_constant", lambda params, family, j: (
        Scaled(real(params, family, j)) if family == "even" else real(params, family, j)))
    rep = energy_trace_check(extension_field_view(solve_extension(p, _gaussian_data(p, grid, n=n))))
    assert min(_defects(rep, "energy equals DtN sum")) > 1e-6
    assert min(_defects(rep, "interior-route energy")) > 1e-6
    assert not rep.passed


@pytest.mark.parametrize("gamma", [F(5, 2), F(9, 2)])
def test_energy_trace_sees_a_skewed_gram_power(gamma, monkeypatch):
    """The Gram route's |xi|^gamma on one side raised to |xi|^(gamma (1 + 1e-6)),
    by handing interior_energy a view whose |xi| is |xi|^(1 + 1e-6): only the
    interior-route row fails.  At 1/2 and 3/2 the same skew reads 4.8e-7 and
    7.6e-7, inside the bound."""
    p = GammaParams(gamma)
    real = en.interior_energy

    def skewed(u, v):
        w = copy.copy(u)
        w.xi = u.xi ** (1.0 + 1e-6)
        return real(w, v)

    monkeypatch.setattr(en, "interior_energy", skewed)
    rep = energy_trace_check(extension_field_view(solve_extension(p, _gaussian_data(p, 128))))
    assert _defects(rep, "energy equals DtN sum")[0] <= 1e-14
    assert _defects(rep, "interior-route energy")[0] > 3e-6
    assert not rep.passed


# ---------------------------------------------------------------------------
# sharp inequalities
# ---------------------------------------------------------------------------


def test_sphere_volume():
    assert sphere_volume(1) == pytest.approx(2 * math.pi)
    assert sphere_volume(2) == pytest.approx(4 * math.pi)


def test_sharp_constant_value():
    # Gamma(3/2)/Gamma(1/2) Vol(S^2)^(1/2) = sqrt(pi)
    assert sharp_sobolev_constant(2, 0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert sharp_sobolev_constant(2, 0.5) == pytest.approx(1.77245, abs=1e-5)


def test_bubble_validation():
    with pytest.raises(ValueError):
        Bubble(n=2, gamma_tilde=0.5, epsilon=0.0)
    with pytest.raises(ValueError):
        Bubble(n=1, gamma_tilde=0.5)  # needs n > 2 gt


def test_bubble_in_three_dimensions():
    """A 3-D bubble is centred at the origin of R^3 by default:
    (eps + |x|^2)^(-(n - 2 gt)/2) with n = 3, gt = 1/2."""
    template = GridField(3, (8, 8, 8), 200.0, np.zeros((8, 8, 8)))
    x, y, z = np.ix_(*template.axes())
    got = bubble_field(Bubble(3, 0.5, epsilon=2.0), template).values
    assert np.allclose(got, (2.0 + x * x + y * y + z * z) ** -1.0, rtol=1e-15, atol=0.0)


def test_bubble_quotient_near_one():
    bubble = Bubble(n=2, gamma_tilde=0.5, epsilon=1.0)
    template = GridField(2, (512, 512), 200.0, np.zeros((512, 512)))
    quotient = SobolevQuotient(template, 0.5)
    r, = quotient(bubble, [], tail_p=bubble_tail_p(bubble, 200.0), smallxi_model=(1.0, 1.0))
    assert r == pytest.approx(1.0, abs=1e-2)


def bubble_field(bubble: Bubble, template: GridField) -> GridField:
    """The bubble on template's whole grid, as one block."""
    values = np.empty(template.shape)
    bubble.evaluate(template, slice(None), values)
    return template.like(values)


def full_fft_quotient(f: GridField, gt: float, tail_p: float, smallxi_model) -> float:
    """The quotient on the full complex spectrum, symbol and lattice repair
    rebuilt per field: the reference for SobolevQuotient."""
    n = f.n
    p = 2.0 * n / (n - 2.0 * gt)
    num = plancherel_energy(f, gt)
    if smallxi_model is not None:
        a, b = smallxi_model
        continuum = 2.0 * math.pi * a * a * (1.0 - math.exp(-4.0 * b)) / (2.0 * b)
        xiabs = np.sqrt(full_spectrum(f)[1])
        xi = xiabs[(xiabs > 0) & (xiabs <= 2.0)]
        num += continuum - float(np.sum(
            (2.0 * math.pi * a * np.exp(-b * xi) / xi) ** 2 * xi)) / f.box_length ** n
    cell = float(np.prod([f.box_length / s for s in f.shape]))
    norm_p = float(np.sum(np.abs(f.values) ** p)) * cell + tail_p
    return num / (sharp_sobolev_constant(n, gt) * norm_p ** (2.0 / p))


@pytest.mark.parametrize("shape", [(1,), (2,), (8,), (512,),
                                   (1, 1), (2, 2), (8, 8), (2, 8), (8, 2), (512, 512),
                                   (8, 4, 2), (4, 8, 8)])
@pytest.mark.parametrize("eps", [1.0, 4.0])
def test_quotient_matches_full_fft_formula(shape, eps):
    """One symbol per grid on the half spectrum, a blockwise real transform
    and a perturbation's cross terms from its separable transform equal the
    full-spectrum formula: bubble, shifted bubble and perturbed bubble, with
    and without the lattice repair, at n = 1, 2 and 3."""
    n = len(shape)
    gt = 0.5 if n == 2 else 0.25
    box = 400.0
    template = GridField(n, shape, box, np.zeros(shape))
    quotient = SobolevQuotient(template, gt)
    models = [None, (1.0, math.sqrt(eps))] if n == 2 else [None]
    center, width, amp = (3.0, -5.0, 2.0)[:n], 4.0, 0.3
    bump = amp * np.exp(-template.dist2(center) / (2 * width ** 2))
    for xi0 in [(0.0, 0.0, 0.0), (10.0, -7.0, 4.0)]:
        bubble = Bubble(n, gt, epsilon=eps, xi0=xi0[:n])
        f = bubble_field(bubble, template)
        tail_p = bubble_tail_p(bubble, box)
        for model in models:
            got = quotient(bubble, [(amp, center, width)], tail_p, model)
            want = [full_fft_quotient(g, gt, tail_p, model) for g in (f, f.like(f.values + bump))]
            assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("shape", [(512, 512), (32, 64, 16)])
def test_quotient_block_size(monkeypatch, shape):
    """The block sums are added with math.fsum, so the block size moves a
    quotient by a few ulps at most: one row per block, the default, and the
    whole grid as one block."""
    n = len(shape)
    template = GridField(n, shape, 200.0, np.broadcast_to(0.0, shape))
    bubble = Bubble(n, 0.5, epsilon=1.0, xi0=(3.0, -2.0, 1.0)[:n])
    bumps = [(0.3, (1.0, -2.0, 0.5)[:n], 3.0), (0.25, (-4.0, 5.0, 0.0)[:n], 2.5)]
    got = {}
    for points in (math.prod(shape[1:]), en.BLOCK_POINTS, math.prod(shape)):
        monkeypatch.setattr(en, "BLOCK_POINTS", points)
        got[points] = SobolevQuotient(template, 0.5)(bubble, bumps, tail_p=0.1)
    first, *others = got.values()
    for other in others:
        assert other == pytest.approx(first, rel=1e-15, abs=0)


def test_lattice_repair_only_at_n2_half():
    template = GridField(1, (8,), 200.0, np.zeros(8))
    quotient = SobolevQuotient(template, 0.25)
    with pytest.raises(ValueError):
        quotient(Bubble(1, 0.25), [], smallxi_model=(1.0, 1.0))


def test_wrong_sharp_constant_fails_bubble_record(monkeypatch):
    """S x (1 + 2e-2) moves the bubble quotient off 1 past the tolerance;
    the invariance records compare quotients and still pass."""
    true_constant = en.sharp_sobolev_constant
    monkeypatch.setattr(en, "sharp_sobolev_constant",
                        lambda n, gt: true_constant(n, gt) * (1.0 + 2e-2))
    rep = sharp_sobolev_check(2, gt=0.5, seed=1)
    assert rep.status == "fail"
    assert rep.max_rel_err > 1e-2
    assert rep.details[0].startswith("bubble quotient R = 0.98")


def test_sharp_sobolev_check_transforms_each_bubble_once(monkeypatch):
    """Cost model: one pass over the grid for each of the three bubbles, which
    evaluates and rffts each of the 512 rows once, then one fft along the
    leading axis.  The five perturbations add no pass: they transform only
    their 1-D factors."""
    rows, grid_ffts = [], []
    evaluate = Bubble.evaluate

    def counted_evaluate(self, template, block, out):
        rows.append(len(out))
        return evaluate(self, template, block, out)

    monkeypatch.setattr(Bubble, "evaluate", counted_evaluate)
    for name in ("fft", "rfft", "fft2", "rfft2", "fftn", "rfftn"):
        real = getattr(np.fft, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            if np.ndim(a) > 1:
                grid_ffts.append((_name, len(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    rep = sharp_sobolev_check(2, gt=0.5, seed=1)
    assert rep.passed
    assert sum(rows) == 3 * 512
    assert {name for name, _ in grid_ffts} == {"fft", "rfft"}
    assert sum(n for name, n in grid_ffts if name == "rfft") == 3 * 512
    assert [name for name, _ in grid_ffts].count("fft") == 3


def test_sharp_sobolev_check_peak_memory():
    """On 512^2 the check holds the symbol and one half spectrum (3.2 MB) and
    blocks of rows; a full-grid temporary per bubble or per perturbation
    would take the traced peak past 8 MB (16 MB with full-grid arrays)."""
    tracemalloc.start()
    try:
        rep = sharp_sobolev_check(2, gt=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 8e6, peak


def test_sharp_sobolev_report():
    rep = sharp_sobolev_check(2, gt=0.5)
    assert rep.passed, rep.details


def test_sharp_sobolev_rejects_small_box():
    rep = sharp_sobolev_check(2, gt=0.5, bubble=Bubble(2, 0.5, epsilon=4.0),
                              box_length=200.0)
    assert not rep.passed  # epsilon = 4 needs L >= 400


def test_lebedev_milin_closed_form():
    # the extremal energy has an explicit Fourier closed form
    assert lebedev_milin_extremal_energy(4.0, 0.0) == pytest.approx(
        4 * math.pi * math.log(9.0 / 8.0), rel=1e-14)
    assert lebedev_milin_extremal_energy(1.0, 0.0) == 0.0


@pytest.mark.parametrize("eps,xi", [(4.0, 0.0), (1.0, 1.0), (9.0, 2.0)])
def test_lebedev_milin_equality(eps, xi):
    rep = lebedev_milin_check(extremal_eps=eps, extremal_xi=xi)
    assert rep.passed, rep.details
    # grid route against the closed form
    lhs = float(rep.details[-1].split("lhs=")[1].split()[0])
    assert lhs == pytest.approx(lebedev_milin_extremal_energy(eps, xi), rel=2e-3, abs=1e-4)


def test_lebedev_milin_constant_function():
    rep = lebedev_milin_check(f_values=np.zeros(8192))
    gap = float(rep.details[-1].split("lhs=")[1].split()[0])
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_lebedev_milin_sees_a_wrong_energy(monkeypatch):
    """lhs x (1 + 1e-2), through every pair weight, fails the equality record
    against its bound of 1e-3."""
    pair_weights = GridField.pair_weights
    monkeypatch.setattr(GridField, "pair_weights", lambda self: pair_weights(self) * (1.0 + 1e-2))
    rep = lebedev_milin_check(extremal_eps=4.0)
    assert rep.status == "fail"
    assert rep.max_rel_err > 5e-3


@pytest.mark.parametrize("amp", [0.3, 0.6, 1.0])
def test_lebedev_milin_strict(amp):
    rep = lebedev_milin_check(extremal_eps=2.0, perturbation=amp)
    assert rep.passed, rep.details

"""Spectral extension: profiles, the solver, DtN extraction, grid I/O."""

import math
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from fractrace import modes
from fractrace.gammacore import GammaParams, dtn_constant
from fractrace.modes import (
    GridError,
    GridField,
    NumericJets,
    all_profiles,
    dtn_apply,
    fractional_laplacian_fft,
    gaussian_field,
    solve_extension,
    verify_dtn_constants,
    verify_self_consistency,
    yang_extension_check,
)

BESSEL_GAMMAS = [F(1, 3), F(1, 2), F(4, 5), F(4, 3), F(3, 2), F(9, 4), F(5, 2), F(10, 3), F(7, 2)]


# ---------------------------------------------------------------------------
# grid fields and IO
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(GridError):
        GridField(1, (100,), 10.0, np.zeros(100))  # not a power of two
    with pytest.raises(GridError):
        GridField(0, (), 10.0, np.zeros(()))  # no boundary dimension
    with pytest.raises(GridError):
        GridField(1, (8,), 10.0, np.full(8, np.nan))
    with pytest.raises(GridError):
        GridField(1, (0,), 10.0, np.zeros(0))  # zero is not a power of two
    for box in (0.0, -5.0, np.nan, np.inf):
        with pytest.raises(GridError, match="box length"):
            GridField(1, (8,), box, np.zeros(8))


def test_dist2_needs_one_entry_per_axis():
    """A centre with fewer or more entries than axes is an error, not a
    distance measured on some of the axes."""
    f = GridField(3, (8, 8, 8), 10.0, np.zeros((8, 8, 8)))
    for center in [(0.0, 0.0), (0.0,) * 4]:
        with pytest.raises(GridError):
            f.dist2(center)
    x, y, z = np.ix_(*f.axes())
    assert np.array_equal(f.dist2((1.0, 0.0, -2.0)), (x - 1.0) ** 2 + y ** 2 + (z + 2.0) ** 2)


@pytest.mark.parametrize("box", [5e-324, 1e-300, 1.0, 60.0, 1e300])
def test_a_field_is_on_its_own_grid(box):
    """Box lengths agree within 1e-12 relative, inclusive, so a subnormal box
    (where 1e-12 * box rounds to 0) still matches itself."""
    f = GridField(1, (8,), box, np.zeros(8))
    assert f.same_grid(f)
    assert not f.same_grid(GridField(1, (8,), 2 * box, np.zeros(8)))
    assert not f.same_grid(GridField(1, (16,), box, np.zeros(16)))


def test_grid_io_roundtrip(tmp_path):
    f = gaussian_field(2, (16, 16), 20.0, width=2.0)
    path = str(tmp_path / "field.bin")
    f.save(path)
    g = GridField.load(path)
    assert g.same_grid(f)
    assert np.array_equal(g.values, f.values)
    # sidecar is required and validated
    (tmp_path / "field.bin.json").unlink()
    with pytest.raises(GridError):
        GridField.load(path)


def test_grid_csv_import(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("value\n" + "\n".join(str(v) for v in np.linspace(0, 1, 16)))
    f = GridField.load_csv(str(path), box_length=8.0)
    assert f.n == 1 and f.shape == (16,)
    bad = tmp_path / "bad.csv"
    bad.write_text("value\nnot-a-number\n")
    with pytest.raises(GridError):
        GridField.load_csv(str(bad), box_length=8.0)


# ---------------------------------------------------------------------------
# fractional Laplacian on the torus
# ---------------------------------------------------------------------------


def test_fraclap_eigenfunction():
    L = 10.0
    f = GridField(1, (64,), L, np.zeros(64))
    x = f.axes()[0]
    f.values = np.sin(2 * np.pi * x / L)
    out = fractional_laplacian_fft(f, 1.0)
    assert np.allclose(out.values, (2 * np.pi / L) ** 2 * f.values, rtol=1e-12, atol=1e-12)


def test_fraclap_semigroup():
    f = gaussian_field(1, (128,), 40.0, width=2.0)
    once = fractional_laplacian_fft(fractional_laplacian_fft(f, 0.5), 0.5)
    full = fractional_laplacian_fft(f, 1.0)
    scale = np.abs(full.values).max()
    assert np.abs(once.values - full.values).max() <= 1e-12 * scale


def test_fraclap_constant_is_zero():
    f = GridField(1, (32,), 10.0, np.ones(32))
    out = fractional_laplacian_fft(f, 0.7)
    assert np.abs(out.values).max() <= 1e-14


# ---------------------------------------------------------------------------
# mode profiles
# ---------------------------------------------------------------------------


def test_profile_hat_coefficient_sign_and_value():
    # hat-branch leading coefficient equals 2^(-2 nu) Gamma(-nu)/Gamma(nu),
    # negative for nu in (0, 1)
    p = GammaParams(F(4, 5))
    prof = all_profiles(p)[0]   # even, j = 0
    nu = float(prof.nu)
    want = 2.0 ** (-2 * nu) * math.gamma(-nu) / math.gamma(nu)
    assert prof.co_series[0] == pytest.approx(want, rel=1e-13)
    assert prof.sigma < 0


def test_profile_series_matches_formal_expansion():
    # Frobenius coefficients agree with Gamma(1-nu)/(2^(2j) j! Gamma(1-nu+j))
    p = GammaParams(F(7, 3))
    for prof in all_profiles(p):
        nu = float(prof.nu)
        for i in range(6):
            want = math.gamma(1 - nu) / (2.0 ** (2 * i) * math.factorial(i) * math.gamma(1 - nu + i))
            assert prof.lead_series[i] == pytest.approx(want, rel=1e-12)


def test_profile_series_consistent_with_kernel_eval():
    # series-region evaluation against the Bessel kernel at the same points
    from scipy import special

    p = GammaParams(F(9, 4))
    g = float(p.gamma)
    for prof in all_profiles(p):
        for t in (0.5, 1.2, 1.95):
            mine = prof.eval(np.array([t]))[0]
            oracle = t ** g * special.kv(prof.nu_f, t) / prof.bessel_norm
            assert mine == pytest.approx(oracle, rel=1e-10)


def test_classical_profile_is_exponential():
    # gamma = 1/2: profile proportional to e^(-t)
    p = GammaParams(F(1, 2))
    (prof,) = all_profiles(p)
    t = np.array([0.3, 1.0, 2.5, 6.0])
    assert np.allclose(prof.eval(t), np.exp(-t), rtol=1e-10)


@pytest.mark.parametrize("gamma", BESSEL_GAMMAS + [F(9, 2), F(11, 2), F(13, 2), F(15, 2),
                                   F(31, 4), F(55, 7), F(71, 9)])
def test_mode_ode_residual(gamma):
    p = GammaParams(gamma)
    for prof in all_profiles(p):
        assert prof.ode_residual() <= 1e-7


def _shift_order(prof):
    prof.nu_f += 1e-4


def _scale_series_term(prof):
    prof.lead_series = prof.lead_series.copy()
    prof.lead_series[1] *= 1 + 1e-4


def _scale_bessel_norm(prof):
    prof.bessel_norm *= 1 + 1e-3


def _flip_co_series(prof):
    prof.co_series = -prof.co_series


@pytest.mark.parametrize("gamma, perturb", [
    (g, f) for g in (F(1, 3), F(5, 2), F(9, 2), F(31, 4))
    for f in (_shift_order, _scale_series_term, _scale_bessel_norm)
] + [(F(1, 3), _flip_co_series), (F(5, 2), _flip_co_series)])
def test_mode_ode_residual_fails_for_a_broken_profile(gamma, perturb):
    """The Bessel side sees the order, the series side a coefficient, and only
    the seam sees the norm and the relative sign of the branches."""
    for prof in all_profiles(GammaParams(gamma)):
        perturb(prof)
        assert prof.ode_residual() > 1e-7


def _dict_expansion(k, g, nu, m):
    """(T_t - 1)^k t^g K_nu as {(i, j): coefficient of t^(g-i) K_(nu-j)},
    expanded one term at a time: the reference for the array expansion."""
    def ddt(terms):
        out = {}
        for (i, j), c in terms.items():
            out[(i + 1, j)] = out.get((i + 1, j), 0.0) + c * ((g - i) - (nu - j))
            out[(i, j + 1)] = out.get((i, j + 1), 0.0) - c
        return out

    terms = {(0, 0): 1.0}
    for _ in range(k):
        first = ddt(terms)
        nxt = ddt(first)
        for (i, j), c in first.items():
            nxt[(i + 1, j)] = nxt.get((i + 1, j), 0.0) + m * c
        for key, c in terms.items():
            nxt[key] = nxt.get(key, 0.0) - c
        terms = nxt
    return terms


def _dict_residual(prof):
    """ode_residual from the dict expansion, one scalar bessel_k call per
    order and one more at the seam."""
    p = prof.params
    g, m = float(p.gamma), float(p.m)
    terms = _dict_expansion(p.k, g, prof.nu_f, m)
    t = modes.BESSEL_SAMPLES
    kernel = {j: modes.bessel_k(prof.nu_f - j, t) for j in {j for _, j in terms}}
    vals = np.array([c * t ** (g - i) * kernel[j] for (i, j), c in terms.items()])
    worst = np.max(np.abs(vals.sum(axis=0)) / np.abs(vals).max(axis=0))
    t = modes.SERIES_SAMPLES
    stages = np.zeros((p.k + 1, t.size))
    for exponent, series in ((prof.lead_exponent, prof.lead_series),
                             (prof.co_exponent, prof.co_series)):
        offset = int(exponent // 2)
        power = float(exponent % 2) + 2.0 * np.arange(offset + series.size)
        coeff = np.concatenate([np.zeros(offset), series])
        powers = t[:, None] ** power
        stages[0] += powers @ coeff
        for stage in range(1, p.k + 1):
            coeff = np.append(coeff[1:] * power[1:] * (power[1:] - 1.0 + m), 0.0) - coeff
            stages[stage] += powers @ coeff
    worst = max(worst, np.max(np.abs(stages[-1]) / np.abs(stages).max(axis=0)))
    below, at = prof.eval(np.array([np.nextafter(modes.T_SERIES, 0.0), modes.T_SERIES]))
    return float(max(worst, abs(below - at) / max(abs(below), abs(at))))


@pytest.mark.parametrize("gamma", [F(1, 3), F(4, 3), F(9, 2), F(11, 2), F(31, 4)])
def test_ode_residual_matches_the_dict_expansion(gamma):
    """The (2k+1) x (2k+1) coefficient array is the term-by-term expansion,
    bit for bit, and the residual from one shared kernel block is the
    per-order one to a few ulps (measured at most 1.9 ulps, at 3/2)."""
    p = GammaParams(gamma)
    for prof in all_profiles(p):
        want = _dict_expansion(p.k, float(p.gamma), prof.nu_f, float(p.m))
        got = modes._bessel_side_terms(p.k, float(p.gamma), prof.nu_f, float(p.m))
        assert got.shape == (2 * p.k + 1,) * 2
        dense = np.zeros_like(got)
        for (i, j), c in want.items():
            dense[i, j] = c
        assert np.array_equal(got, dense)
        assert abs(prof.ode_residual() - _dict_residual(prof)) <= 8 * np.finfo(float).eps


def _count_kernel_calls(monkeypatch, module):
    """The shape of the orders of every bessel_k call made under module."""
    calls = []
    real = module.bessel_k

    def counted(nu, t):
        calls.append(np.shape(nu))
        return real(nu, t)

    monkeypatch.setattr(module, "bessel_k", counted)
    return calls


@pytest.mark.parametrize("gamma", [F(1, 3), F(5, 2), F(31, 4)])
def test_one_kernel_call_per_ode_residual_and_per_evaluate(gamma, monkeypatch):
    """ode_residual asks for its 2k + 1 orders at the samples and the seam
    in one bessel_k call, and evaluate for every profile's order in one call
    (2k + 2 and k calls when each order was its own)."""
    p = GammaParams(gamma)
    calls = _count_kernel_calls(monkeypatch, modes)
    for prof in all_profiles(p):
        prof.ode_residual()
    assert calls == [(2 * p.k + 1,)] * p.k
    sol = modes.solve_extension(p, [gaussian_field(1, (128,), 60.0, width=2.0)] * p.k)
    calls.clear()
    sol.evaluate(1.0)
    assert calls == [(p.k,)]


@pytest.mark.parametrize("gamma", [F(4, 3), F(9, 2)])
def test_shared_kernel_block_leaves_evaluate_within_roundoff(gamma):
    """evaluate from one block over every profile's order matches the sum
    of the profiles' own evaluations, each its own kernel call."""
    p = GammaParams(gamma)
    f = gaussian_field(2, (64, 64), 20.0, width=2.0)
    sol = modes.solve_extension(p, [f] * p.k)
    for y in (0.1, 1.0, 4.0):
        flat_xi, zero = sol._flat_xi()
        want = sum(sol.s[:, col] * prof.eval(flat_xi * y) for col, prof in enumerate(sol.profiles))
        want[zero] = 0.0
        got = sol.evaluate(y).fft().reshape(-1)
        got[zero] = 0.0
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# extension solve and DtN
# ---------------------------------------------------------------------------


def _unit_solve(p):
    """A solve on zero data over an 8-point grid: its profiles and M1, all
    the DtN extraction reads, do not depend on the data."""
    zero = GridField(p.n, (8,) * p.n, 30.0, np.zeros((8,) * p.n))
    return solve_extension(p, [zero] * p.k)


@pytest.mark.parametrize("gamma", BESSEL_GAMMAS)
def test_dtn_constants_independent_extraction(gamma):
    """Bessel-branch route reproduces the exact constants to 1e-8."""
    p = GammaParams(gamma)
    sol = _unit_solve(p)
    rep = verify_dtn_constants(sol, tol=1e-8)
    assert rep.passed, rep.details
    extracted = modes._dtn_diagonal(p, modes._dtn_matrix(sol))
    for j in range(p.n_even_data):
        assert extracted[("even", j)] == pytest.approx(
            dtn_constant(p, "even", j).value(p.frac_gamma), rel=1e-8)
    for j in range(p.n_odd_data):
        assert extracted[("odd", j)] == pytest.approx(
            dtn_constant(p, "odd", j).value(p.frac_gamma), rel=1e-8)


NEAR_INTEGER_GAMMAS = ["1e-9", "1e-12", "0.9999999999", "0.999999999999", "0.999999999999999",
                      "5.0000001", "7.9999999"]


@pytest.mark.parametrize("gamma", NEAR_INTEGER_GAMMAS)
def test_dtn_extraction_near_an_integer_order(gamma):
    """nu, 1 - nu and 1 - {g} come from the exact order, so the extraction
    stays at roundoff near an integer; from a rounded float order it read up
    to 8.0e-4 (at 0.999999999999999), about 1e-16 over the distance.
    N1 M1^-1 is not diagonal there: cond(M1) grows toward an integer, and
    its rows fail the decoupling bound at 5.0000001 (1.1e-7) and 7.9999999
    (1.1e-4).  Below 1 there is one slot and nothing off the diagonal."""
    p = GammaParams(F(gamma))
    sol = _unit_solve(p)
    for (family, j), got in modes._dtn_diagonal(p, modes._dtn_matrix(sol)).items():
        want = dtn_constant(p, family, j).value(p.frac_gamma)
        assert abs(got - want) <= 1e-14 * abs(want), (family, j)
    rep = verify_dtn_constants(sol)
    assert rep.passed == (p.k == 1), rep.details


def test_decoupling_rows_see_a_remixed_neumann_output(monkeypatch):
    """N1 plus 1e-6 |R[0, 0]| times M1's row of the next slot, with R =
    N1 M1^-1, moves R only at (0, 1): the extracted constants stay at
    roundoff and only the first decoupling row fails, at 1e-6."""
    p = GammaParams(F(10, 3))
    sol = _unit_solve(p)
    size = 1e-6 * abs(modes._dtn_matrix(sol)[0, 0])
    original = modes._unit_matrix

    def remixed(params, conds, profiles):
        matrix = original(params, conds, profiles)
        if conds == modes.neumann_condition_list(params):
            matrix[0] += size * original(params, modes.dirichlet_condition_list(params), profiles)[1]
        return matrix

    monkeypatch.setattr(modes, "_unit_matrix", remixed)
    rep = verify_dtn_constants(sol)
    values = [float(d.split(" ")[-1]) for d in rep.details if d.startswith("row ")]
    assert not rep.passed
    assert values[0] == pytest.approx(1e-6, rel=1e-6) and max(values[1:]) <= 1e-14
    for (family, j), got in modes._dtn_diagonal(p, modes._dtn_matrix(sol)).items():
        want = dtn_constant(p, family, j).value(p.frac_gamma)
        assert abs(got - want) <= 1e-14 * abs(want), (family, j)


def test_gamma_near_a_pole_matches_mpmath():
    """modes._gamma_f against 40-digit mpmath, near poles and away from
    them; math.gamma of the rounded float argument is off by 8.9e-5 at
    -2 + 1e-12 and by 2.8e-9 at -7 - 1e-7."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for x in (F(-2) + F(1, 10 ** 12), F(-1, 10 ** 15), F(-7) - F(1, 10 ** 7), F(1) - F(1, 10 ** 12),
              F(9, 2), F(-31, 4)):
        want = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
        assert abs(modes._gamma_f(x) - want) <= 1e-14 * abs(want), x


def test_self_consistency_multiple_data():
    p = GammaParams(F(3, 2))
    f = gaussian_field(1, (256,), 60.0, width=1.5)
    phi = gaussian_field(1, (256,), 60.0, width=2.0)
    sol = solve_extension(p, [f, phi])
    rep = verify_self_consistency(sol, tol=1e-9)
    assert rep.passed, rep.details


def test_zero_data_gives_zero_solution():
    p = GammaParams(F(3, 2))
    z = GridField(1, (64,), 30.0, np.zeros(64))
    sol = solve_extension(p, [z, z])
    assert np.abs(sol.evaluate(0.7).values).max() <= 1e-14
    assert np.abs(dtn_apply(sol, 3).values).max() <= 1e-14


def test_classical_dtn_matches_fft_symbol():
    p = GammaParams(F(1, 2))
    f = gaussian_field(1, (256,), 60.0, width=1.5)
    sol = solve_extension(p, [f])
    dtn = dtn_apply(sol, 1)
    oracle = fractional_laplacian_fft(f, 0.5)
    mask = sol.resolved_mask()
    dm = dtn.fft()
    om = oracle.fft()
    rel = np.abs(dm - om)[mask].max() / np.abs(om)[mask].max()
    assert rel <= 1e-6


def test_poisson_kernel_oracle():
    """Classical harmonic extension against the periodized Poisson kernel
    (1/L) sinh(2 pi y/L) / (cosh(2 pi y/L) - cos(2 pi (x-x')/L))."""
    p = GammaParams(F(1, 2))
    f = gaussian_field(1, (512,), 60.0, width=1.5)
    sol = solve_extension(p, [f])
    x = f.axes()[0]
    L = f.box_length
    h = x[1] - x[0]
    for y0 in (0.5, 2.0):
        U = sol.evaluate(y0)
        a = 2 * np.pi * y0 / L
        oracle = np.array([
            np.sum((1.0 / L) * np.sinh(a) / (np.cosh(a) - np.cos(2 * np.pi * (xi - x) / L))
                   * f.values) * h
            for xi in x
        ])
        assert np.abs(U.values - oracle).max() / np.abs(oracle).max() <= 1e-6


def test_per_mode_constant_at_unit_frequency():
    # B at the top index over the hat datum equals the closed constant at |xi|=1
    p = GammaParams(F(7, 3))
    extracted = modes._dtn_diagonal(p, modes._dtn_matrix(_unit_solve(p)))
    want = dtn_constant(p, "even", 0).value(p.frac_gamma)
    assert extracted[("even", 0)] == pytest.approx(want, rel=1e-8)


def _profile_jets(prof, xi_abs):
    """Oracle: one profile's two-branch y-jet coefficient arrays at boundary
    frequency |xi|, the y^(2q) (resp. y^(2{g}+2q)) coefficient of P(|xi| y)
    for q <= [g], the orders every boundary operator reads."""
    def order(branch, tau):
        out = np.zeros_like(xi_abs, dtype=complex)
        term = prof.jet_term(branch, tau, xi_abs)
        if term is not None:
            out += term
        return out

    orders = range(prof.params.floor_gamma + 1)
    return tuple([order(branch, tau) for tau in orders] for branch in (0, 1))


def _per_mode_coeffs(sol):
    """Oracle: the Dirichlet matrix built at every mode's true |xi| from the
    profiles' jets there, solved mode by mode for the s of
    U = sum_i s_i P_i(|xi| y)."""
    fl, fr = sol.params.floor_gamma, sol.params.frac_gamma
    xi = sol.xi_abs.reshape(-1)
    nz = xi > 0
    k = len(sol.profiles)
    matrix = np.zeros((int(nz.sum()), k, k), dtype=complex)
    for col, prof in enumerate(sol.profiles):
        nj = NumericJets(fl, fr, *_profile_jets(prof, xi[nz]))
        for row, (family, j) in enumerate(sol.conds):
            matrix[:, row, col] = nj.apply_boundary(family, j, xi[nz] ** 2)
    rhs = np.stack([dh.reshape(-1)[nz] for dh in sol.data_hat], axis=-1)
    coeffs = np.zeros((xi.size, k), dtype=complex)
    coeffs[nz] = np.linalg.solve(matrix, rhs[..., None])[..., 0]
    return coeffs


@pytest.mark.parametrize("gamma", [F(1, 3), F(4, 3), F(5, 2), F(9, 2), F(31, 4)])
@pytest.mark.parametrize("n", [1, 2])
def test_scaled_solve_matches_per_mode_solve(gamma, n):
    """One |xi| = 1 matrix scaled by homogeneity gives the per-mode solution;
    errors are relative to each profile's largest coefficient."""
    p = GammaParams(gamma, n=n)
    shape = (128,) * n
    data = [gaussian_field(n, shape, 60.0, width=1.5 + 0.3 * i) for i in range(p.k)]
    sol = solve_extension(p, data)
    want = _per_mode_coeffs(sol)
    rel = np.abs(sol.s - want).max(axis=0) / np.abs(want).max(axis=0)
    assert rel.max() <= 1e-13


def _summed_profile_jets(sol):
    """Oracle: every profile's full two-branch jets from _profile_jets at
    the true |xi|, summed with the solved coefficients; the zero mode from the
    polynomial data."""
    fl, fr = sol.params.floor_gamma, sol.params.frac_gamma
    xi = sol.xi_abs.reshape(-1).copy()
    zero = xi == 0.0
    xi[zero] = 1.0
    size = fl + 1
    a = [np.zeros(xi.size, dtype=complex) for _ in range(size)]
    b = [np.zeros(xi.size, dtype=complex) for _ in range(size)]
    for col, prof in enumerate(sol.profiles):
        pa, pb = _profile_jets(prof, xi)
        for q in range(size):
            a[q] += sol.s[:, col] * pa[q]
            b[q] += sol.s[:, col] * pb[q]
    for q in range(size):
        a[q][zero] = sol.zero_poly[0][q] if q < sol.zero_poly[0].size else 0.0
        b[q][zero] = sol.zero_poly[1][q] if q < sol.zero_poly[1].size else 0.0
    shape = sol.xi2.shape
    return NumericJets(fl, fr, [x.reshape(shape) for x in a], [x.reshape(shape) for x in b])


def _plain_symbol(fl, fr, family, j):
    """boundary_symbol_float's recursion without the memo."""
    s = ("even", "odd").index(family)
    out = {(j, 0): (-1.0) ** (j + s)}
    for ell in range(1, j + 1):
        w = modes._rho_f(fl, fr, s, j, ell)
        for (tp, lp), c in _plain_symbol(fl, fr, family, j - ell).items():
            out[(tp, lp + ell)] = out.get((tp, lp + ell), 0.0) - w * c
    return out


@pytest.mark.parametrize("fr", [1 / 3, 0.5, 0.8])
@pytest.mark.parametrize("family", ["even", "odd"])
def test_memoized_float_symbol_matches_plain_recursion(fr, family):
    """Same weights, in the same order, as the recursion without the memo;
    the cached dict cannot be changed through the returned view."""
    for fl in (0, 3, 7):
        for j in range(8):
            got = modes.boundary_symbol_float(fl, fr, family, j)
            assert list(got.items()) == list(_plain_symbol(fl, fr, family, j).items())
            assert modes.boundary_symbol_float(fl, fr, family, j) is got
            with pytest.raises(TypeError):
                got[(j, 0)] = 0.0


@pytest.mark.parametrize("gamma", [F(1, 3), F(4, 3), F(5, 2), F(9, 2), F(31, 4)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_values_match_summed_profile_jets(gamma, n):
    """Each boundary operator, built from only the branch orders it reads,
    against the full summed jets, at every Dirichlet and Neumann slot; the
    data have nonzero mean, so the zero mode is checked too.  Measured: equal
    bit for bit."""
    p = GammaParams(gamma, n=n)
    shape = (128,) if n == 1 else (32,) * n
    data = [gaussian_field(n, shape, 30.0, width=1.5 + 0.3 * i) for i in range(p.k)]
    sol = solve_extension(p, data)
    assert sol.data_hat[0].flat[0] != 0
    jets = _summed_profile_jets(sol)
    for family, j in modes.dirichlet_condition_list(p) + modes.neumann_condition_list(p):
        want = jets.apply_boundary(family, j, sol.xi2)
        got = sol.boundary_value_modes(family, j)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (family, j)


_DTN_GAMMAS = [F(4, 3), F(5, 2), F(9, 2)]


# explicit ids keep the 2-D cases under the names they had before n = 3 joined
@pytest.mark.parametrize("gamma, n, grid", [(g, 2, 128) for g in _DTN_GAMMAS]
                         + [(g, 3, 32) for g in _DTN_GAMMAS],
                         ids=[f"gamma{i}" for i in range(3)] + [f"n3-gamma{i}" for i in range(3)])
def test_two_dimensional_dtn_matches_closed_form(gamma, n, grid):
    """With only f^(0) nonzero, the Neumann operator at 2 alpha = 2 gamma is
    c0 (-Lap)^gamma f on the resolved modes, on 2-D and 3-D grids (measured:
    1.3e-15 at 9/2 on 128^2, 2.9e-15 on 32^3)."""
    p = GammaParams(gamma, n=n)
    f = gaussian_field(n, (grid,) * n, 60.0, width=2.0)
    zero = GridField(n, f.shape, f.box_length, np.zeros(f.shape))
    sol = solve_extension(p, [f] + [zero] * (p.k - 1))
    c0 = dtn_constant(p, "even", 0).value(p.frac_gamma)
    want = c0 * fractional_laplacian_fft(f, float(gamma)).fft()
    got = dtn_apply(sol, 2 * gamma).fft()
    mask = sol.resolved_mask()
    assert np.abs(got - want)[mask].max() <= 1e-14 * np.abs(want)[mask].max()


@pytest.mark.parametrize("gamma", [F(4, 3), F(9, 2), F(31, 4)])
def test_dtn_memory_is_bounded(gamma):
    """dtn_apply on a solved 2-D field holds a fixed number of complex grid
    arrays at its peak, whatever the order and the operator index (measured:
    at most 6.1; the full two-branch jets held 38 at 4/3 and 218 at 31/4)."""
    p = GammaParams(gamma, n=2)
    data = [gaussian_field(2, (128, 128), 60.0, width=1.5 + 0.3 * i) for i in range(p.k)]
    sol = solve_extension(p, data)
    grid_array = 16 * sol.xi2.size
    for alpha2 in modes.neumann_indices(p):
        tracemalloc.start()
        try:
            dtn_apply(sol, alpha2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * grid_array, (alpha2, peak / grid_array)


@pytest.mark.parametrize("gamma", [F(4, 3), F(9, 2), F(31, 4)])
def test_yang_memory_is_linear_in_k(gamma):
    """yang_extension_check holds one weighted Laplacian power at a time, on
    the resolved modes only (1336 of the 8320 here), and the order's solve is
    built outside the measured region, so its peak on a 2-D grid stays within
    (k + 2) / 3 complex grid arrays (measured: 0.98, 1.97 and 2.95 at these
    orders; solving again inside the check, it held 15.6, 32.6 and 50.7, and
    with all [g] powers at once 34.7, 89.2 and 161.2)."""
    p = GammaParams(gamma, n=2)
    f = gaussian_field(2, (128, 128), 60.0, width=2.0)
    sol = solve_extension(p, [f] * p.k)
    grid_array = 16 * f.values.size
    tracemalloc.start()
    try:
        assert yang_extension_check(sol).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (p.k + 2) / 3 * grid_array, peak / grid_array


_UNIT_GAMMAS = [F(1, 3), F(4, 3), F(5, 2), F(9, 2)]


# explicit ids keep the 1-D cases under the names they had before n = 2 joined
@pytest.mark.parametrize("gamma, n, grid", [(g, 1, 128) for g in _UNIT_GAMMAS]
                         + [(g, 2, 128) for g in _UNIT_GAMMAS] + [(g, 3, 16) for g in _UNIT_GAMMAS],
                         ids=[f"gamma{i}" for i in range(4)] + [f"n2-gamma{i}" for i in range(4)]
                         + [f"n3-gamma{i}" for i in range(4)])
def test_perturbed_unit_matrix_fails_both_checks(gamma, n, grid, monkeypatch):
    """The solve and the DtN extraction share the |xi| = 1 matrix, while the
    boundary jets stay per mode: a 1e-6 error in one entry fails both checks."""
    _perturb_unit_matrix(monkeypatch, modes.dirichlet_condition_list)
    p = GammaParams(gamma, n=n)
    data = [gaussian_field(n, (grid,) * n, 60.0, width=1.5 + 0.3 * i) for i in range(p.k)]
    sol = solve_extension(p, data)
    assert not verify_self_consistency(sol).passed
    assert not verify_dtn_constants(sol).passed


@pytest.mark.parametrize("gamma", _UNIT_GAMMAS)
def test_perturbed_neumann_matrix_fails_only_extraction(gamma, monkeypatch):
    """N1 enters the DtN extraction only: a 1e-6 error in one of its entries
    fails dtn_bessel_extraction and leaves the solve self-consistent."""
    _perturb_unit_matrix(monkeypatch, modes.neumann_condition_list)
    p = GammaParams(gamma)
    data = [gaussian_field(1, (128,), 60.0, width=1.5 + 0.3 * i) for i in range(p.k)]
    sol = solve_extension(p, data)
    assert verify_self_consistency(sol).passed
    assert not verify_dtn_constants(sol).passed


def _perturb_unit_matrix(monkeypatch, condition_list):
    """Scale entry (0, 0) of the |xi| = 1 matrix of condition_list's rows by 1 + 1e-6."""
    original = modes._unit_matrix

    def perturbed(params, conds, profiles):
        matrix = original(params, conds, profiles)
        if conds == condition_list(params):
            matrix[0, 0] *= 1 + 1e-6
        return matrix

    monkeypatch.setattr(modes, "_unit_matrix", perturbed)


def test_grid_mismatch_rejected():
    p = GammaParams(F(3, 2))
    f = gaussian_field(1, (64,), 30.0)
    g = gaussian_field(1, (128,), 30.0)
    with pytest.raises(GridError):
        solve_extension(p, [f, g])
    with pytest.raises(GridError):
        solve_extension(p, [f])  # wrong count of Dirichlet fields


def test_unresolved_warning():
    p = GammaParams(F(1, 2))
    rng = np.random.default_rng(0)
    rough = GridField(1, (64,), 30.0, rng.normal(size=64))
    sol = solve_extension(p, [rough])
    assert sol.warnings


@pytest.mark.parametrize("gamma", [F(1, 2), F(4, 3), F(3, 2), F(5, 2)])
def test_yang_extension(gamma):
    p = GammaParams(gamma)
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    warnings.simplefilter("ignore")
    rep = yang_extension_check(solve_extension(p, [f] * p.k))
    assert rep.passed, rep.details


@pytest.mark.parametrize("gamma", [F(1, 2), F(5, 2)])
def test_yang_extension_sees_a_wrong_neumann_constant(gamma, monkeypatch):
    """The weighted Neumann trace's constant 2[g] x (1 + 1e-3): the top-order
    trace misses the fractional Laplacian by 1e-3."""
    monkeypatch.setattr(modes.NumericJets, "restrict_weighted_neumann",
                        lambda self: 2.0 * self.fr * 1.001 * self.b[0])
    p = GammaParams(gamma)
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    rep = yang_extension_check(solve_extension(p, [f] * p.k))
    assert rep.status == "fail"
    assert any(d.startswith("fractional Laplacian via weighted Neumann") and float(d.split()[-1]) > 1e-4
               for d in rep.details)


def test_yang_zero_field():
    p = GammaParams(F(4, 3))
    z = GridField(1, (64,), 30.0, np.zeros(64))
    rep = yang_extension_check(solve_extension(p, [z] * p.k))
    assert rep.passed


def _yang_by_second_solve(p, f):
    """The yang_extension rows by a route of their own: a second solve with f
    alone and zero fields in the other slots, the solution's full jets (from
    its _jet_order), and the fractional Laplacian through its own transforms.  Returns the row
    values in the check's order, and (restriction, weighted Neumann trace) of
    each weighted Laplacian power on the resolved modes."""
    fl, fr, g = p.floor_gamma, float(p.frac_gamma), float(p.gamma)
    sol = solve_extension(p, [f] + [f.like(np.zeros(f.shape))] * (p.k - 1))
    mask = sol.resolved_mask().reshape(-1)
    xi2 = sol.xi2.reshape(-1)[mask]
    f_hat = sol.data_hat[0].reshape(-1)
    scale = np.abs(f_hat).max()
    f_hat = f_hat[mask]
    jets = NumericJets(fl, p.frac_gamma, *([order(q) for q in range(fl + 1)]
                                           for order in (sol._jet_order(b) for b in (0, 1))))
    traces = []
    for _ in range(fl + 1):
        traces.append((jets.restrict()[mask], jets.restrict_weighted_neumann()[mask]))
        jets = jets.weighted_laplacian(sol.xi2.reshape(-1))
    rows = []
    for j in range(1, fl // 2 + 1):
        const = math.factorial(fl) / math.factorial(fl - j) * math.gamma(g - j) / math.gamma(g)
        rows.append(np.abs(traces[j][0] - const * (-xi2) ** j * f_hat).max() / scale)
    rows += [np.abs(traces[j][1]).max() / scale for j in range(fl - fl // 2)]
    yang = -2.0 ** (1.0 - 2.0 * fr) * math.factorial(fl) * math.gamma(1.0 - g) / math.gamma(fr)
    want = fractional_laplacian_fft(f, g).fft().reshape(-1)[mask]
    rows.append(np.abs(traces[fl][1] / yang - want).max() / np.abs(want).max())
    return rows, traces


@pytest.mark.parametrize("gamma", [F(1, 2), F(4, 3), F(9, 2), F(31, 4)])
@pytest.mark.parametrize("n", [1, 2])
def test_yang_rows_match_a_second_solve(gamma, n, monkeypatch):
    """The check reads the order's solve: U0's coefficients are M1^-1 e_0 f_hat,
    and the spectral route multiplies f_hat by |xi|^(2 gamma).  Every trace it
    takes and every row it records match a second solve with f alone within
    1e-13 of the row's scale."""
    p = GammaParams(gamma, n=n)
    shape = (128,) * n
    data = [gaussian_field(n, shape, 60.0, width=2.0 + 0.4 * i) for i in range(p.k)]
    rows, traces = _yang_by_second_solve(p, data[0])
    taken = []
    for name in ("restrict", "restrict_weighted_neumann"):
        original = getattr(NumericJets, name)
        monkeypatch.setattr(NumericJets, name,
                            lambda self, original=original: taken.append(original(self)) or taken[-1])
    rep = yang_extension_check(solve_extension(p, data))
    assert rep.passed, rep.details
    got = [float(d.split()[-1]) for d in rep.details]
    assert len(got) == len(rows)
    assert max(abs(a - b) for a, b in zip(got, rows)) <= 1e-13, (got, rows)
    scale = np.abs(data[0].fft()).max()
    assert len(taken) == 2 * len(traces)
    for new, ref in zip(taken, (t for pair in traces for t in pair)):
        assert np.abs(new - ref).max() <= 1e-13 * max(scale, np.abs(ref).max())


@pytest.mark.parametrize("gamma", [F(4, 3), F(9, 2)])
def test_yang_report_ignores_the_other_slots(gamma):
    """U0 reads datum 0 alone: other data in the other slots, each resolved
    where datum 0 is, leave the report unchanged, byte for byte."""
    p = GammaParams(gamma)
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    others = [[gaussian_field(1, (128,), 60.0, width=w + 0.4 * i) for i in range(1, p.k)]
              for w in (2.0, 3.5)]
    others.append([f.like(np.zeros(f.shape))] * (p.k - 1))
    reports = [yang_extension_check(solve_extension(p, [f] + rest)).to_dict() for rest in others]
    assert reports[0]["status"] == "pass"
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("gamma", [F(1, 3), F(4, 3), F(5, 2), F(9, 2)])
def test_yang_extension_sees_a_wrong_unit_matrix(gamma, monkeypatch):
    """Entry (0, 0) of M1 x (1 + 1e-6), in the solve the check reads: U0
    misses f by 1e-6, and the fractional-Laplacian row reads 1.0e-6 at every
    order.  From 5/2 on the interior-trace rows fail against their 1e-8 bound
    (measured: 2.4e-7 at 5/2, 2.1e-7 and 1.8e-7 at 9/2); at 1/3 and 4/3 there
    is no interior row, and the error sits at the 1e-6 bound."""
    _perturb_unit_matrix(monkeypatch, modes.dirichlet_condition_list)
    p = GammaParams(gamma)
    data = [gaussian_field(1, (128,), 60.0, width=2.0 + 0.4 * i) for i in range(p.k)]
    rep = yang_extension_check(solve_extension(p, data))
    assert rep.max_rel_err == pytest.approx(1e-6, rel=1e-2)
    if p.floor_gamma >= 2:
        assert rep.status == "fail"
        assert any(d.startswith("interior trace") and float(d.split()[-1]) > 1e-7
                   for d in rep.details)


def test_two_dimensional_extension():
    """The solver is dimension-uniform: n = 2 grids run through the same
    per-mode pipeline."""
    p = GammaParams(F(1, 2), n=2)
    f = gaussian_field(2, (64, 64), 40.0, width=2.0)
    sol = solve_extension(p, [f])
    dtn = dtn_apply(sol, 1)
    oracle = fractional_laplacian_fft(f, 0.5)
    mask = sol.resolved_mask()
    dm = dtn.fft()
    om = oracle.fft()
    assert np.abs(dm - om)[mask].max() / np.abs(om)[mask].max() <= 1e-6

    p2 = GammaParams(F(3, 2), n=2)
    phi = gaussian_field(2, (64, 64), 40.0, width=2.5)
    sol2 = solve_extension(p2, [f, phi])
    assert verify_self_consistency(sol2).passed
    U = sol2.evaluate(1.0)
    assert U.values.shape == (64, 64) and np.all(np.isfinite(U.values))

"""Spectral extension: profiles, the solver, DtN extraction, grid I/O."""

import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from fractrace import modes
from fractrace.gammacore import GammaParams, dtn_constant_even, dtn_constant_odd
from fractrace.modes import (
    GridError,
    GridField,
    NumericJets,
    all_profiles,
    build_mode_profile,
    dtn_apply,
    extract_dtn_constants,
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
        GridField(3, (8, 8, 8), 10.0, np.zeros((8, 8, 8)))
    with pytest.raises(GridError):
        GridField(1, (8,), 10.0, np.full(8, np.nan))


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
    x = f.coords()
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
    prof = build_mode_profile(p, 0, "even")
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
    prof = build_mode_profile(p, 0, "even")
    t = np.array([0.3, 1.0, 2.5, 6.0])
    assert np.allclose(prof.eval(t), np.exp(-t), rtol=1e-10)


@pytest.mark.parametrize("gamma", BESSEL_GAMMAS + [F(9, 2)])
def test_mode_ode_residual(gamma):
    p = GammaParams(gamma)
    for prof in all_profiles(p):
        assert prof.ode_residual() <= 1e-7


# ---------------------------------------------------------------------------
# extension solve and DtN
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", BESSEL_GAMMAS)
def test_dtn_constants_independent_extraction(gamma):
    """Bessel-branch route reproduces the exact constants to 1e-8."""
    p = GammaParams(gamma)
    rep = verify_dtn_constants(p, tol=1e-8)
    assert rep.passed, rep.details
    extracted = extract_dtn_constants(p)
    for j in range(p.n_even_data):
        assert extracted[("even", j)] == pytest.approx(
            dtn_constant_even(p, j).value(p.frac_gamma), rel=1e-8)
    for j in range(p.n_odd_data):
        assert extracted[("odd", j)] == pytest.approx(
            dtn_constant_odd(p, j).value(p.frac_gamma), rel=1e-8)


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
    dm = np.fft.fftn(dtn.values) / dtn.values.size
    om = np.fft.fftn(oracle.values) / oracle.values.size
    rel = np.abs(dm - om)[mask].max() / np.abs(om)[mask].max()
    assert rel <= 1e-6


def test_poisson_kernel_oracle():
    """Classical harmonic extension against the periodized Poisson kernel
    (1/L) sinh(2 pi y/L) / (cosh(2 pi y/L) - cos(2 pi (x-x')/L))."""
    p = GammaParams(F(1, 2))
    f = gaussian_field(1, (512,), 60.0, width=1.5)
    sol = solve_extension(p, [f])
    x = f.coords()
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
    extracted = extract_dtn_constants(p)
    want = dtn_constant_even(p, 0).value(p.frac_gamma)
    assert extracted[("even", 0)] == pytest.approx(want, rel=1e-8)


def _per_mode_coeffs(sol):
    """Oracle: the Dirichlet matrix built at every mode's true |xi| from the
    profiles' jets there, solved mode by mode."""
    fl, fr = sol.params.floor_gamma, float(sol.params.frac_gamma)
    xi = sol.xi_abs.reshape(-1)
    nz = xi > 0
    k = len(sol.profiles)
    matrix = np.zeros((int(nz.sum()), k, k), dtype=complex)
    for col, prof in enumerate(sol.profiles):
        nj = NumericJets(fl, fr, *prof.jets(xi[nz], sol.truncation))
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
    rel = np.abs(sol.coeffs - want).max(axis=0) / np.abs(want).max(axis=0)
    assert rel.max() <= 1e-13


@pytest.mark.parametrize("gamma", [F(1, 3), F(4, 3), F(5, 2), F(9, 2)])
def test_perturbed_unit_matrix_fails_both_checks(gamma, monkeypatch):
    """The solve and the DtN extraction share the |xi| = 1 matrix, while the
    boundary jets stay per mode: a 1e-6 error in one entry fails both checks."""
    original = modes._unit_dirichlet_matrix

    def perturbed(params, unit_jets):
        matrix = original(params, unit_jets)
        matrix[0, 0] *= 1 + 1e-6
        return matrix

    monkeypatch.setattr(modes, "_unit_dirichlet_matrix", perturbed)
    p = GammaParams(gamma)
    data = [gaussian_field(1, (128,), 60.0, width=1.5 + 0.3 * i) for i in range(p.k)]
    assert not verify_self_consistency(solve_extension(p, data)).passed
    assert not verify_dtn_constants(p).passed


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
    rep = yang_extension_check(p, f)
    assert rep.passed, rep.details


def test_yang_zero_field():
    p = GammaParams(F(4, 3))
    z = GridField(1, (64,), 30.0, np.zeros(64))
    rep = yang_extension_check(p, z)
    assert rep.passed


def test_two_dimensional_extension():
    """The solver is dimension-uniform: n = 2 grids run through the same
    per-mode pipeline."""
    p = GammaParams(F(1, 2), n=2)
    f = gaussian_field(2, (64, 64), 40.0, width=2.0)
    sol = solve_extension(p, [f])
    dtn = dtn_apply(sol, 1)
    oracle = fractional_laplacian_fft(f, 0.5)
    mask = sol.resolved_mask()
    dm = np.fft.fftn(dtn.values) / dtn.values.size
    om = np.fft.fftn(oracle.values) / oracle.values.size
    assert np.abs(dm - om)[mask].max() / np.abs(om)[mask].max() <= 1e-6

    p2 = GammaParams(F(3, 2), n=2)
    phi = gaussian_field(2, (64, 64), 40.0, width=2.5)
    sol2 = solve_extension(p2, [f, phi])
    assert verify_self_consistency(sol2).passed
    U = sol2.evaluate(1.0)
    assert U.values.shape == (64, 64) and np.all(np.isfinite(U.values))

"""Energies, quadratic forms, and the sharp-inequality bench."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from fractrace import energy as en
from fractrace.gammacore import GammaParams
from fractrace.modes import GridField, gaussian_field, solve_extension
from fractrace.energy import (
    Bubble,
    ModeFieldView,
    PolyGaussModeFn,
    boundary_correction,
    bubble_tail_p,
    dirichlet_principle_check,
    dtn_rhs,
    energy,
    energy_trace_check,
    extension_field_view,
    interior_energy,
    lebedev_milin_check,
    lebedev_milin_extremal_energy,
    q_form,
    random_two_branch_field,
    sharp_sobolev_check,
    sharp_sobolev_constant,
    sobolev_quotient,
    sphere_volume,
    verify_q_symmetry,
    zero_data_perturbation,
    _pair_integral,
    _ul_pair,
)


def plancherel_energy(f: GridField, power: float) -> float:
    """oint f (-Lap)^power f via the Fourier symbol (the classical oracle)."""
    modes = f.fft()
    sym = f.xi_abs2() ** power
    sym.flat[0] = 0.0
    return float(np.sum(np.abs(modes) ** 2 * sym)) * f.box_length ** f.n


def test_pair_integral_against_closed_form():
    # int_0^inf y^4 e^(-2y^2) y^m dy = Gamma((5+m)/2) / (2 * 2^((5+m)/2))
    m = 1.0 / 3.0
    atom = PolyGaussModeFn(0.7, F(1, 3), 1.0, {F(2): 1.0 + 0j})
    got = complex(_pair_integral(atom, atom, m)).real
    a = (5 + m) / 2
    want = math.gamma(a) / (2.0 * 2.0 ** a)
    assert got == pytest.approx(want, rel=1e-11)


def test_classical_energy_identity():
    """gamma = 1/2: all three energy routes equal the Plancherel oracle."""
    p = GammaParams(F(1, 2))
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    sol = solve_extension(p, [f])
    eb = energy(p, sol)
    oracle = plancherel_energy(f, 0.5)
    assert eb.interior == pytest.approx(oracle, rel=1e-6)
    assert eb.q_form == pytest.approx(oracle, rel=1e-10)
    assert eb.dtn_rhs == pytest.approx(oracle, rel=1e-12)
    assert eb.boundary_correction == 0.0  # empty coupling sum below gamma = 1


def test_energy_zero_field():
    p = GammaParams(F(3, 2))
    z = GridField(1, (64,), 30.0, np.zeros(64))
    eb = energy(p, solve_extension(p, [z, z]))
    assert eb.interior == eb.q_form == eb.dtn_rhs == 0.0


def test_energy_trace_weighted_sums():
    """gamma = 3/2: E = c0 oint f (-Lap)^(3/2) f + d0 oint phi (-Lap)^(1/2) phi."""
    p = GammaParams(F(3, 2))
    f = gaussian_field(1, (128,), 60.0, width=2.0)
    phi = gaussian_field(1, (128,), 60.0, width=2.5)
    sol = solve_extension(p, [f, phi])
    eb = energy(p, sol)
    oracle = 2.0 * plancherel_energy(f, 1.5) + 2.0 * plancherel_energy(phi, 0.5)
    # c_{3/2,0} = 2 and d_{3/2,0} = 2
    assert eb.dtn_rhs == pytest.approx(oracle, rel=1e-12)
    assert eb.q_form == pytest.approx(oracle, rel=1e-8)
    assert eb.interior - eb.boundary_correction == pytest.approx(oracle, rel=1e-8)


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
    u = random_two_branch_field(p, template, seed=1)
    v = random_two_branch_field(p, template, seed=2)
    for coeff in u.a_coeffs:
        coeff *= 0.0
    for coeff in v.b_coeffs:
        coeff *= 0.0
    rep = verify_q_symmetry(p, u, v)
    assert rep.passed, rep.details


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2)])
def test_dirichlet_principle(gamma):
    p = GammaParams(gamma)
    widths = [2.0 + 0.4 * i for i in range(p.k)]
    data = [gaussian_field(1, (128,), 60.0, width=w) for w in widths]
    rep = dirichlet_principle_check(p, data)
    assert rep.passed, rep.details


def test_zero_perturbation_data_vanishes():
    p = GammaParams(F(5, 2))
    template = GridField(1, (64,), 40.0, np.zeros(64))
    w = zero_data_perturbation(p, template, seed=0).view()
    from fractrace.modes import dirichlet_condition_list
    for family, j in dirichlet_condition_list(p):
        vals = w.boundary_modes(family, j)
        assert np.abs(vals).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2)])
def test_energy_trace(gamma):
    p = GammaParams(gamma)
    widths = [2.0 + 0.5 * i for i in range(p.k)]
    data = [gaussian_field(1, (128,), 60.0, width=w) for w in widths]
    rep = energy_trace_check(p, data)
    assert rep.passed, rep.details


def _defects(rep, prefix):
    """Defects of the report rows whose detail starts with prefix."""
    return [float(d.rsplit(" ", 1)[1]) for d in rep.details if d.startswith(prefix)]


def _gaussian_data(p, grid, box=60.0):
    return [gaussian_field(1, (grid,), box, width=2.0 + 0.4 * i) for i in range(p.k)]


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2), F(5, 2), F(10, 3)])
def test_gram_route_matches_per_mode_quadrature(gamma):
    """The |xi| = 1 Gram route against the per-mode atom route it replaces: the
    same solution, presented as a plain per-mode view, goes through per-mode
    quadrature and per-atom jets.  The U L^k U term is zero for a solution; the
    per-mode route leaves up to 1.5e-14 of roundoff in it at 10/3, so the two
    routes are compared at the scale of the form."""
    p = GammaParams(gamma)
    u = extension_field_view(solve_extension(p, _gaussian_data(p, 32, box=24.0)))
    ref = ModeFieldView(p, u.template, {idx: u.atoms(pos) for pos, idx in enumerate(u.modes)})
    want = interior_energy(ref, ref)
    assert abs(interior_energy(u, u) - want) <= 1e-12 * abs(want)
    want = q_form(ref, ref)
    assert abs(q_form(u, u) - want) <= 1e-12 * abs(want)
    assert abs(_ul_pair(u, u)) <= 1e-14
    assert abs(_ul_pair(u, u) - _ul_pair(ref, ref)) <= 1e-14 * abs(want)


def test_dirichlet_principle_cost_independent_of_grid(monkeypatch):
    """The solution-solution block costs one Gram matrix per order, so the
    quadrature count does not grow with the grid."""
    p = GammaParams(F(5, 2))
    real = en._pair_integral
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(en, "_pair_integral", counting)
    counts = []
    for grid in (64, 256):
        en._unit_gram.cache_clear()
        calls.clear()
        assert dirichlet_principle_check(p, _gaussian_data(p, grid)).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2)])
def test_dirichlet_principle_fails_for_a_non_solution(gamma, monkeypatch):
    """One wrong Frobenius coefficient makes U a non-solution wherever the
    perturbation W lives; it is no longer the minimizer and every t row fails."""
    p = GammaParams(gamma)

    def broken(params, fields):
        sol = solve_extension(params, fields)
        sol.profiles[0].lead_series[1] *= 1.0 + 1e-3
        return sol

    monkeypatch.setattr(en, "solve_extension", broken)
    rep = dirichlet_principle_check(p, _gaussian_data(p, 128))
    defects = _defects(rep, "t=")
    assert len(defects) == 4 and min(defects) > 1e-7
    assert not rep.passed


@pytest.mark.parametrize("gamma", [F(1, 2), F(3, 2)])
def test_energy_trace_fails_for_a_wrong_dtn_constant(gamma, monkeypatch):
    """A 1e-3 error in the even DtN constants fails both energy routes."""
    p = GammaParams(gamma)
    real = en.dtn_constant_even

    class Scaled:
        def __init__(self, const):
            self.const = const

        def value(self, fr):
            return (1.0 + 1e-3) * self.const.value(fr)

    monkeypatch.setattr(en, "dtn_constant_even", lambda params, j: Scaled(real(params, j)))
    rep = energy_trace_check(p, _gaussian_data(p, 128))
    assert min(_defects(rep, "energy equals DtN sum")) > 1e-6
    assert min(_defects(rep, "interior-route energy")) > 1e-6
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


def test_bubble_quotient_near_one():
    bubble = Bubble(n=2, gamma_tilde=0.5, epsilon=1.0)
    template = GridField(2, (512, 512), 200.0, np.zeros((512, 512)))
    f = bubble.sample(template)
    r = sobolev_quotient(f, 0.5, tail_p=bubble_tail_p(bubble, 200.0),
                         smallxi_model=(1.0, 1.0))
    assert r == pytest.approx(1.0, abs=1e-2)


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


@pytest.mark.parametrize("amp", [0.3, 0.6, 1.0])
def test_lebedev_milin_strict(amp):
    rep = lebedev_milin_check(extremal_eps=2.0, perturbation=amp)
    assert rep.passed, rep.details

"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import math
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from fractrace import energy as en
from fractrace import gammacore as gc
from fractrace import jets, modes, polys
from test_energy import plancherel_energy

warnings.simplefilter("ignore")

GAMMAS_10 = [F(1, 3), F(1, 2), F(4, 5), F(4, 3), F(3, 2), F(9, 4), F(5, 2), F(10, 3), F(7, 2), F(9, 2)]
GAMMAS_9 = GAMMAS_10[:-1]


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_exact_identity_suite():
    """All exact operator identities hold with zero tolerance, under 60 s."""
    t0 = time.time()
    for g in GAMMAS_10:
        p = gc.GammaParams(g)
        assert jets.verify_scattering_relations(p).passed
        assert jets.verify_operators_via_laplacian(p).passed
        assert jets.verify_scattering_annihilation(p).passed
        for j in range(9):
            for ell in range(9):
                assert gc.brute_force_F(j, ell, p) == gc.closed_form_F(j, ell, p)
        samples = polys.default_samples(1, p.frac_gamma, seed=0, extra=2)
        assert verify_all_poly(p, samples)
    # H and K sums over 20 rational parameter values, ranges to 8
    gvals = [F(a, b) + F(c, 7) for (a, b) in ((1, 3), (5, 2), (9, 4), (-2, 3)) for c in range(1, 6)]
    for nn in range(9):
        for d in range(9):
            for g in gvals:
                assert gc.brute_force_H(nn, d, g) == gc.closed_form_H(nn, d, g)
    for j in range(9):
        for (a, b) in ((F(7, 2), F(4, 3)), (F(1, 5), F(9, 7)), (F(11, 4), F(2, 5))):
            assert gc.brute_force_K(a, b, j) == gc.closed_form_K(a, b, j)
    elapsed = time.time() - t0
    _line(1, elapsed < 60.0,
          f"exact identity suite over 10 orders, zero tolerance, {elapsed:.1f}s (< 60s)")


def verify_all_poly(p, samples):
    ok = polys.verify_commutator(p, 2, samples[:6]).passed
    ok &= polys.verify_product_factorization(p, samples[:7]).passed
    for k in (1, 2, 3, 4):
        ok &= polys.verify_r2s_commutation(p, k, F(-3, 2), samples[:4]).passed
    ok &= polys.verify_r2s_commutation(p, 2, F(1, 2), samples[:4]).passed
    ok &= polys.verify_flat_hyperbolic_correspondence(p).passed
    ok &= polys.verify_conformal_covariance(
        p, samples=polys.default_samples(1, p.frac_gamma, seed=0, extra=1)[:5]).passed
    return ok


def test_criterion_2_constant_cross_checks():
    """Closed-form constants against their independent reductions."""
    ok = True
    for g in (F(1, 3), F(1, 2), F(4, 5), F(9, 10), F(1, 7)):
        p = gc.GammaParams(g)
        c0 = gc.dtn_constant(p, "even", 0).value(p.frac_gamma)
        ok &= abs(c0 - gc.cs_normalization(g)) <= 1e-12 * abs(c0)
    for kk in range(0, 7):
        p = gc.GammaParams(F(2 * kk + 1, 2))
        for j in range(p.n_even_data):
            ok &= gc.dtn_constant(p, "even", j).as_fraction(F(1, 2)) == gc.halfint_dtn_even(kk, j)
        for j in range(p.n_odd_data):
            ok &= gc.dtn_constant(p, "odd", j).as_fraction(F(1, 2)) == gc.halfint_dtn_odd(kk, j)
    for g in GAMMAS_10:
        p = gc.GammaParams(g)
        a = gc.yang_constant(p).value(p.frac_gamma)
        b = gc.dtn_constant(p, "even", 0).value(p.frac_gamma)
        ok &= abs(a - b) <= 1e-12 * abs(b)
    _line(2, ok, "order-zero = classical normalization (1e-12), half-integer "
                 "families exact as rationals, energy constant matches (1e-12)")


def test_criterion_3_bessel_extraction():
    """Independent Dirichlet-to-Neumann verification through Bessel branches."""
    t0 = time.time()
    worst = 0.0
    for g in GAMMAS_9:
        p = gc.GammaParams(g)
        zero = modes.GridField(1, (8,), 30.0, np.zeros(8))   # the extraction reads no data
        rep = modes.verify_dtn_constants(modes.solve_extension(p, [zero] * p.k), tol=1e-8)
        worst = max(worst, rep.max_rel_err)
        assert rep.passed, rep.details
    elapsed = time.time() - t0
    _line(3, elapsed < 300.0 and worst <= 1e-8,
          f"Bessel-branch constants for 9 orders, worst rel err {worst:.2e} "
          f"(<= 1e-8), {elapsed:.1f}s (< 5min)")


def test_criterion_4_classical_case():
    """gamma = 1/2, n = 1, Gaussian data: symbol and energy identities."""
    p = gc.GammaParams(F(1, 2))
    f = modes.gaussian_field(1, (256,), 60.0, width=1.5)
    sol = modes.solve_extension(p, [f])
    dtn = modes.dtn_apply(sol, 1)
    oracle = modes.fractional_laplacian_fft(f, 0.5)
    mask = sol.resolved_mask()
    dm = dtn.fft()
    om = oracle.fft()
    rel_dtn = np.abs(dm - om)[mask].max() / np.abs(om)[mask].max()

    view = en.extension_field_view(sol)
    plancherel = plancherel_energy(f, 0.5)
    rel_energy = abs(en.interior_energy(view, view) - plancherel) / plancherel
    ok = rel_dtn <= 1e-6 and rel_energy <= 1e-6
    _line(4, ok, f"classical case: DtN vs FFT symbol {rel_dtn:.2e} (<= 1e-6), "
                 f"energy identity {rel_energy:.2e} (<= 1e-6)")


def test_criterion_5_symmetry_consistency():
    """Q symmetry and the interior-minus-correction identity, 5 pairs each."""
    worst_sym, worst_con = 0.0, 0.0
    template = modes.GridField(1, (64,), 40.0, np.zeros(64))
    for g in (F(3, 2), F(7, 3), F(5, 2), F(7, 2)):
        p = gc.GammaParams(g)
        for seed in range(5):
            u = en.random_two_branch_field(p, template, seed=2 * seed)
            v = en.random_two_branch_field(p, template, seed=2 * seed + 1)
            quv, qvu = en.q_form(u, v), en.q_form(v, u)
            sym = abs(quv - qvu) / (abs(quv) + 1.0)
            worst_sym = max(worst_sym, sym)
            inter = en.interior_energy(u, v)
            corr = en.boundary_correction(u, v)
            con = abs(quv - (inter - corr)) / (abs(quv) + abs(inter) + 1.0)
            worst_con = max(worst_con, con)
    ok = worst_sym <= 1e-8 and worst_con <= 1e-7
    _line(5, ok, f"Q symmetry defect {worst_sym:.2e} (<= 1e-8), "
                 f"interior-route consistency {worst_con:.2e} (<= 1e-7), "
                 "4 orders x 5 seeded pairs")


def test_criterion_6_dirichlet_principle():
    """Quadraticity at four parameter values and positive perturbation energy."""
    ok = True
    worst = 0.0
    for g in (F(1, 2), F(3, 2), F(5, 2)):
        p = gc.GammaParams(g)
        widths = [2.0 + 0.4 * i for i in range(p.k)]
        data = [modes.gaussian_field(1, (128,), 60.0, width=w) for w in widths]
        rep = en.dirichlet_principle_check(en.extension_field_view(modes.solve_extension(p, data)),
                                           tol=1e-7)
        ok &= rep.passed
        worst = max(worst, rep.max_rel_err)
    _line(6, ok, f"energy quadraticity at t in (-1, 1/2, 1, 2), defect {worst:.2e} "
                 "(<= 1e-7), perturbation energies strictly positive")


def test_criterion_7_sharp_sobolev():
    """n = 2 bubble quotient with the sqrt(pi) constant, perturbed margins."""
    const_ok = abs(en.sharp_sobolev_constant(2, 0.5) - math.sqrt(math.pi)) < 1e-12
    rep = en.sharp_sobolev_check(2, gt=0.5)
    margins = [d for d in rep.details if "margin" in d and "min" not in d]
    ok = const_ok and rep.passed and len(margins) == 5
    _line(7, ok, f"bubble quotient within 1e-2 of 1, invariance within 1e-2, "
                 f"5 perturbation margins all positive ({rep.details[-1]})")


def test_criterion_8_lebedev_milin():
    """Exponential-class equality for the extremal family, strictness beyond."""
    ok = True
    for eps, xi in ((4.0, 0.0), (1.0, 1.0), (9.0, 2.0)):
        rep = en.lebedev_milin_check(extremal_eps=eps, extremal_xi=xi, tol_equality=1e-3)
        ok &= rep.passed
    for amp in (0.3, 0.6, 1.0):
        rep = en.lebedev_milin_check(extremal_eps=2.0, perturbation=amp)
        ok &= rep.passed
    _line(8, ok, "extremal equality ratio 1 +- 1e-3 at 3 parameter pairs, "
                 "strict inequality for 3 perturbations")

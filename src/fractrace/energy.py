"""Quadratic forms, trace energies, and the sharp-inequality test bench.

All interior quantities are assembled per Fourier mode of the boundary grid:
the x integral is Plancherel-exact on the periodic box and only the y
integral is quadrature.  Per-mode profiles come in two flavors, Bessel-type
(extension solutions) and polynomial-times-Gaussian (synthetic test fields);
both expose exact symbolic application of the weighted mode Laplacian
T - |xi|^2, exact two-branch jets, branch-split evaluation for small y and
direct evaluation elsewhere.

The y quadrature is Gauss-Jacobi with the weight exponent matched per branch
pair (the two-branch structure makes the integrand a sum of y^kappa times
smooth factors), plus Gauss-Legendre panels on the smooth outer region.
Node counts double until the result is stable to 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .besselk import bessel_k, bessel_k_dt
from .gammacore import GammaParams, symmetry_constant, dtn_constant_even, dtn_constant_odd
from .modes import (
    GridField,
    ExtensionSolution,
    T_SERIES,
    T_MAX,
    boundary_symbol_float,
    _t_chain_even,
    _t_chain_odd,
    dirichlet_condition_list,
    solve_extension,
)
from .report import VerificationReport

QUAD_REL_TOL = 1e-9
GJ_START = 48
GJ_CAP = 768
GL_PANEL_NODES = 48


# ---------------------------------------------------------------------------
# Per-mode profile algebra
# ---------------------------------------------------------------------------


class BesselModeFn:
    """Per-mode function: branch series (valid t = xi y < switchover) plus a
    Bessel-kernel chain for larger y.

    series: {y_exponent (Fraction): complex coeff}, already in the y variable.
    chains: list of (nu: Fraction, prefactor: complex,
                     {(t_exponent a: Fraction, d in {0,1}): Fraction coeff})
    meaning prefactor * sum coeff (xi y)^a K_nu^(d)(xi y).  Chain coefficients
    stay exact rationals so that kernel membership cancels exactly under
    repeated operator application (float coefficients would leave residue
    amplified by nu^2-sized factors at every step).
    """

    def __init__(self, xi: float, m: Fraction, series: dict, chains: list):
        self.xi = xi
        self.m = Fraction(m)
        self.series = {p: c for p, c in series.items() if c != 0}
        self.chains = [(nu, pre, terms) for nu, pre, terms in chains if terms and pre != 0]

    @property
    def series_limit(self) -> float:
        return T_SERIES / self.xi if self.xi > 0 else np.inf

    @property
    def outer_limit(self) -> float:
        return T_MAX / self.xi if self.xi > 0 else np.inf

    @staticmethod
    def _chain_ddt(terms: dict, nu2: Fraction) -> dict:
        """One t derivative on a Bessel chain, closed on K and K' through the
        second-derivative reduction K'' = (1 + nu^2/t^2) K - K'/t."""
        out = {}

        def add(key, val):
            acc = out.get(key, Fraction(0)) + val
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc

        for (a, d), c in terms.items():
            if d == 0:
                add((a - 1, 0), c * a)
                add((a, 1), c)
            else:
                add((a - 1, 1), c * (a - 1))
                add((a, 0), c)
                add((a - 2, 0), c * nu2)
        return out

    def weighted_laplacian(self) -> "BesselModeFn":
        """T_y - xi^2: equals xi^2 (T_t - 1) on functions of t = xi y."""
        xi2 = self.xi * self.xi
        new_series = {}

        def add(key, val):
            acc = new_series.get(key, 0.0) + val
            if acc == 0:
                new_series.pop(key, None)
            else:
                new_series[key] = acc

        for p, c in self.series.items():
            w = p * (p - 1 + self.m)   # exact Fraction; vanishes at branch bottoms
            if w != 0:
                add(p - 2, c * float(w))
            add(p, -c * xi2)
        new_chains = []
        for nu, pre, terms in self.chains:
            nu2 = nu * nu
            d1 = self._chain_ddt(terms, nu2)
            out = self._chain_ddt(d1, nu2)

            def acc(key, val):
                cur = out.get(key, Fraction(0)) + val
                if cur == 0:
                    out.pop(key, None)
                else:
                    out[key] = cur

            for (a, d), c in d1.items():  # + (m/t) d/dt
                acc((a - 1, d), self.m * c)
            for (a, d), c in terms.items():  # - identity
                acc((a, d), -c)
            if out:
                new_chains.append((nu, pre * xi2, out))
        return BesselModeFn(self.xi, self.m, new_series, new_chains)

    def d_dy(self) -> "BesselModeFn":
        new_series = {}
        for p, c in self.series.items():
            if p != 0:
                new_series[p - 1] = new_series.get(p - 1, 0.0) + c * float(p)
        new_chains = []
        for nu, pre, terms in self.chains:
            out = self._chain_ddt(terms, nu * nu)
            if out:
                new_chains.append((nu, pre * self.xi, out))
        return BesselModeFn(self.xi, self.m, new_series, new_chains)

    def branch_components(self):
        """Group the series by exponent class (p mod 2), anchored at the
        group minimum so the residual factor is a genuine power series in y^2:
        {p_min: {p: coeff}}."""
        return _group_by_class(self.series)

    def eval_series(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=complex)
        for p, c in self.series.items():
            out += c * y ** float(p)
        return out

    def eval_outer(self, y: np.ndarray) -> np.ndarray:
        t = self.xi * y
        out = np.zeros(y.shape, dtype=complex)
        for nu, pre, terms in self.chains:
            k0, k1 = bessel_k(float(nu), t), bessel_k_dt(float(nu), t)
            for (a, d), c in terms.items():
                out += pre * float(c) * t ** float(a) * (k0 if d == 0 else k1)
        return out

    def jet_arrays(self, truncation: int, frac_gamma: Fraction):
        a = [0.0j] * (truncation + 1)
        b = [0.0j] * (truncation + 1)
        for p, c in self.series.items():
            if p.denominator == 1 and p.numerator % 2 == 0:
                q = p.numerator // 2
                if 0 <= q <= truncation:
                    a[q] += c
            else:
                q2 = (p - 2 * frac_gamma) / 2
                if q2.denominator == 1 and 0 <= q2.numerator <= truncation:
                    b[q2.numerator] += c
        return a, b


class PolyGaussModeFn:
    """Per-mode function sum_j c_j y^(p_j) exp(-lam y^2), exact under the mode
    Laplacian; lam = 0 degenerates to polynomials (zero-mode case)."""

    def __init__(self, xi: float, m: Fraction, lam: float, terms: dict):
        self.xi = xi
        self.m = Fraction(m)
        self.lam = lam
        self.terms = {p: c for p, c in terms.items() if c != 0}

    @property
    def series_limit(self) -> float:
        return np.inf

    @property
    def outer_limit(self) -> float:
        """Where y^p exp(-lam y^2) drops below ~1e-20 of scale for the largest
        power present; the polynomial factor matters once operator
        applications have piled up high powers."""
        if self.lam == 0.0:
            return np.inf
        p_max = max((float(p) for p in self.terms), default=0.0)
        return math.sqrt((46.0 + 3.0 * p_max) / self.lam)

    def weighted_laplacian(self) -> "PolyGaussModeFn":
        xi2 = self.xi * self.xi
        lam = self.lam
        out = {}

        def add(p, v):
            if v != 0:
                out[p] = out.get(p, 0.0) + v

        for p, c in self.terms.items():
            w = p * (p - 1 + self.m)   # exact Fraction; vanishes at branch bottoms
            if w != 0:
                add(p - 2, c * float(w))
            add(p, -c * 2.0 * lam * (2.0 * float(p) + 1.0 + float(self.m)))
            add(p + 2, c * 4.0 * lam * lam)
            add(p, -c * xi2)
        return PolyGaussModeFn(self.xi, self.m, lam, out)

    def d_dy(self) -> "PolyGaussModeFn":
        out = {}
        for p, c in self.terms.items():
            if p != 0:
                out[p - 1] = out.get(p - 1, 0.0) + c * float(p)
            out[p + 1] = out.get(p + 1, 0.0) - 2.0 * self.lam * c
        return PolyGaussModeFn(self.xi, self.m, self.lam, out)

    def branch_components(self):
        return _group_by_class(self.terms)

    def eval_series(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=complex)
        for p, c in self.terms.items():
            out += c * y ** float(p)
        return out * np.exp(-self.lam * y * y)

    eval_outer = eval_series

    def jet_arrays(self, truncation: int, frac_gamma: Fraction):
        a = [0.0j] * (truncation + 1)
        b = [0.0j] * (truncation + 1)
        for p, c in self.terms.items():
            if p.denominator == 1 and p.numerator % 2 == 0:
                q0 = p.numerator // 2
                for q in range(q0, truncation + 1):
                    a[q] += c * (-self.lam) ** (q - q0) / math.factorial(q - q0)
            else:
                q2 = (p - 2 * frac_gamma) / 2
                if q2.denominator == 1 and q2.numerator >= 0:
                    q0 = q2.numerator
                    for q in range(q0, truncation + 1):
                        b[q] += c * (-self.lam) ** (q - q0) / math.factorial(q - q0)
        return a, b


def _group_by_class(series: dict) -> dict:
    """Group exponents by their value mod 2 and key each group by its minimum,
    so every group reads p_min + (even powers)."""
    classes = {}
    for p, c in series.items():
        cls = p - 2 * (p.numerator // (2 * p.denominator))
        classes.setdefault(cls, {})[p] = c
    return {min(group): group for group in classes.values()}


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_gj_cache = {}
_gl_cache = {}


def _gauss_jacobi_01(n: int, beta: float):
    """Nodes/weights for integral_0^1 u^beta F(u) du."""
    key = (n, round(beta, 12))
    if key not in _gj_cache:
        x, w = roots_jacobi(n, 0.0, beta)
        u = 0.5 * (x + 1.0)
        _gj_cache[key] = (u, w * 0.5 ** (beta + 1.0))
    return _gj_cache[key]


def _gauss_legendre_01(n: int):
    if n not in _gl_cache:
        x, w = roots_legendre(n)
        _gl_cache[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _gl_cache[n]


def _pair_integral(u, v, m_weight: float) -> complex:
    """integral_0^inf u(y) conj(v(y)) y^m dy via branch-matched quadrature."""
    split = min(u.series_limit, v.series_limit)
    outer = min(u.outer_limit, v.outer_limit)
    if not np.isfinite(outer):
        # both non-decaying: only legitimate when one side vanished identically
        uu = u.terms if isinstance(u, PolyGaussModeFn) else u.series
        vv = v.terms if isinstance(v, PolyGaussModeFn) else v.series
        if not uu or not vv:
            return 0.0 + 0.0j
        raise ArithmeticError("pairing of two non-decaying mode functions")
    split = min(split, outer)
    total = 0.0 + 0.0j

    # inner region: per branch-class pair, weight-matched Gauss-Jacobi
    ug = u.branch_components()
    vg = v.branch_components()
    for cu, du in ug.items():
        for cv, dv in vg.items():
            beta = float(cu + cv) + m_weight
            pmin = float(cu + cv)

            def smooth(yv):
                su = np.zeros(yv.shape, dtype=complex)
                for p, c in du.items():
                    su += c * yv ** (float(p) - float(cu))
                sv = np.zeros(yv.shape, dtype=complex)
                for p, c in dv.items():
                    sv += np.conj(c) * yv ** (float(p) - float(cv))
                if isinstance(u, PolyGaussModeFn):
                    su *= np.exp(-u.lam * yv * yv)
                if isinstance(v, PolyGaussModeFn):
                    sv *= np.exp(-v.lam * yv * yv)
                return su * sv

            total += _adaptive_gj(smooth, split, beta)

    # outer region: both factors evaluated directly, integrand smooth
    if np.isfinite(outer) and outer > split * (1.0 + 1e-12):
        def outer_fn(yv):
            fu = u.eval_outer(yv) if yv[0] >= u.series_limit else u.eval_series(yv)
            fv = v.eval_outer(yv) if yv[0] >= v.series_limit else v.eval_series(yv)
            return fu * np.conj(fv) * yv ** m_weight

        total += _adaptive_gl(outer_fn, split, outer)
    return total


def _adaptive_gj(smooth, upper: float, beta: float) -> complex:
    prev = None
    n = GJ_START
    while True:
        uu, w = _gauss_jacobi_01(n, beta)
        val = upper ** (beta + 1.0) * np.sum(w * smooth(upper * uu))
        if prev is not None and abs(val - prev) <= QUAD_REL_TOL * (abs(val) + 1e-30):
            return val
        if n >= GJ_CAP:
            return val
        prev = val
        n *= 2


def _adaptive_gl(fn, lo: float, hi: float) -> complex:
    # geometric panels: the integrand decays exponentially
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(hi, edges[-1] * 2.5 + 1.0))
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        prev = None
        n = GL_PANEL_NODES
        while True:
            uu, w = _gauss_legendre_01(n)
            val = (b - a) * np.sum(w * fn(a + (b - a) * uu))
            if prev is not None and abs(val - prev) <= QUAD_REL_TOL * (abs(val) + 1e-30):
                break
            if n >= GJ_CAP:
                break
            prev = val
            n *= 2
        total += val
    return total


# ---------------------------------------------------------------------------
# Mode-level field views
# ---------------------------------------------------------------------------


def canonical_modes(template: GridField):
    """For a real 1-D field the +-xi modes are conjugate: iterate only
    0 <= i <= N/2 with multiplicity two off the self-conjugate pair.  Other
    dimensions fall back to the full grid."""
    size = int(np.prod(template.shape))
    if template.n != 1:
        return {i: 1.0 for i in range(size)}
    half = template.shape[0] // 2
    out = {0: 1.0, half: 1.0}
    for i in range(1, half):
        out[i] = 2.0
    return out


class ModeFieldView:
    """A real boundary-periodic field presented as a list of per-mode profile
    functions, with boundary-operator values and Plancherel weights.

    atoms_by_mode holds only canonical modes; mult carries the conjugate-pair
    multiplicity used when summing real Plancherel contributions."""

    def __init__(self, params: GammaParams, template: GridField, atoms_by_mode, label="",
                 mult=None):
        self.params = params
        self.template = template
        self.atoms_by_mode = atoms_by_mode  # {flat mode index: [ModeFn, ...]}
        self.label = label
        self.mult = mult if mult is not None else canonical_modes(template)

    def boundary_modes(self, family: str, j: int) -> dict:
        fl, fr = self.params.floor_gamma, self.params.frac_gamma
        trunc = fl + 2
        xi2_flat = self.template.xi_abs2().reshape(-1)
        symbol = boundary_symbol_float(fl, float(fr), family, j)
        chain = _t_chain_even if family == "even" else _t_chain_odd
        out = {}
        for idx, atoms in self.atoms_by_mode.items():
            a = [0.0j] * (trunc + 1)
            b = [0.0j] * (trunc + 1)
            for atom in atoms:
                aa, bb = atom.jet_arrays(trunc, fr)
                for q in range(trunc + 1):
                    a[q] += aa[q]
                    b[q] += bb[q]
            arrays = a if family == "even" else b
            val = 0.0j
            for (tau, lp), w in symbol.items():
                val += w * chain(float(fr), tau) * arrays[tau] * (-xi2_flat[idx]) ** lp
            out[idx] = val
        return out


def extension_field_view(sol: ExtensionSolution, active_tol: float = 1e-13) -> ModeFieldView:
    """Per-mode Bessel atoms of an extension solution (active modes only)."""
    params = sol.params
    m = params.m
    g = params.gamma
    xi_flat = sol.xi_abs.reshape(-1)
    weight = np.zeros(xi_flat.size)
    for dh in sol.data_hat:
        weight = np.maximum(weight, np.abs(dh.reshape(-1)))
    scale = weight.max() + 1e-300
    atoms = {}
    mult = canonical_modes(sol.template)
    for idx in mult:
        if weight[idx] <= active_tol * scale:
            continue
        xi = xi_flat[idx]
        if xi == 0.0:
            terms = {}
            for q, c in enumerate(sol.zero_even):
                if c != 0:
                    terms[Fraction(2 * q)] = terms.get(Fraction(2 * q), 0.0) + c
            for q, c in enumerate(sol.zero_odd):
                p = 2 * params.frac_gamma + 2 * q
                if c != 0:
                    terms[p] = terms.get(p, 0.0) + c
            atoms[idx] = [PolyGaussModeFn(0.0, m, 0.0, terms)]
            continue
        mode_atoms = []
        for col, prof in enumerate(sol.profiles):
            c = sol.coeffs[idx, col]
            if c == 0:
                continue
            series = {}
            for i in range(len(prof.lead_series)):
                p = prof.lead_exponent + 2 * i
                series[p] = series.get(p, 0.0) + c * prof.lead_series[i] * xi ** (2 * i)
                p2 = prof.co_exponent + 2 * i
                series[p2] = series.get(p2, 0.0) + c * prof.co_series[i] * xi ** float(
                    2 * prof.nu + 2 * i
                )
            # t^gamma K_nu(t) / bessel_norm, scaled by c / xi^lead
            chain_coeff = c / (prof.bessel_norm * xi ** float(prof.lead_exponent))
            chains = [(prof.nu, chain_coeff, {(g, 0): Fraction(1)})]
            mode_atoms.append(BesselModeFn(xi, m, series, chains))
        atoms[idx] = mode_atoms
    return ModeFieldView(params, sol.template, atoms, label="extension", mult=mult)


@dataclass
class TwoBranchGaussField:
    """Synthetic test field: two-branch polynomial in y times a Gaussian, with
    band-limited random boundary coefficient fields."""

    params: GammaParams
    template: GridField
    a_coeffs: list  # list of real arrays, coefficient of y^(2q) exp(-lam y^2)
    b_coeffs: list  # coefficient of y^(2[g]+2q) exp(-lam y^2)
    lam: float = 1.0

    def view(self, active_tol: float = 1e-13) -> ModeFieldView:
        params = self.params
        m = params.m
        fr = params.frac_gamma
        xi_flat = np.sqrt(self.template.xi_abs2()).reshape(-1)
        hats_a = [np.fft.fftn(c) / c.size for c in self.a_coeffs]
        hats_b = [np.fft.fftn(c) / c.size for c in self.b_coeffs]
        weight = np.zeros(xi_flat.size)
        for h in hats_a + hats_b:
            weight = np.maximum(weight, np.abs(h.reshape(-1)))
        scale = weight.max() + 1e-300
        atoms = {}
        mult = canonical_modes(self.template)
        for idx in mult:
            if weight[idx] <= active_tol * scale:
                continue
            terms = {}
            for q, h in enumerate(hats_a):
                c = h.reshape(-1)[idx]
                if c != 0:
                    terms[Fraction(2 * q)] = terms.get(Fraction(2 * q), 0.0) + c
            for q, h in enumerate(hats_b):
                c = h.reshape(-1)[idx]
                if c != 0:
                    p = 2 * fr + 2 * q
                    terms[p] = terms.get(p, 0.0) + c
            atoms[idx] = [PolyGaussModeFn(xi_flat[idx], m, self.lam, terms)]
        return ModeFieldView(params, self.template, atoms, label="two-branch-gauss", mult=mult)


def random_two_branch_field(params: GammaParams, template: GridField, seed: int,
                            lam: float = 1.0, n_modes: int = 5,
                            a_orders=None, b_orders=None) -> TwoBranchGaussField:
    """Seeded band-limited random two-branch field for symmetry tests."""
    rng = np.random.default_rng(seed)
    if a_orders is None:
        a_orders = params.floor_gamma // 2 + 2
    if b_orders is None:
        b_orders = max(params.floor_gamma - params.floor_gamma // 2, 1)

    def band_limited():
        modes = np.zeros(template.shape, dtype=complex)
        flat = modes.reshape(-1)
        xi2 = template.xi_abs2().reshape(-1)
        order = np.argsort(xi2)[1:n_modes + 1]
        flat[order] = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        modes = flat.reshape(template.shape)
        vals = np.real(np.fft.ifftn(modes) * modes.size)
        peak = np.abs(vals).max()
        return vals / (peak + 1e-300)

    a = [band_limited() for _ in range(a_orders)]
    b = [band_limited() for _ in range(b_orders)]
    return TwoBranchGaussField(params, template, a, b, lam)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


@dataclass
class EnergyBreakdown:
    interior: float
    boundary_correction: float
    q_form: float
    dtn_rhs: float = None


def _mode_weight(template: GridField) -> float:
    return template.box_length ** template.n


def _interior_pair(u_atoms, v_atoms, params: GammaParams, xi2: float) -> complex:
    """<Delta_m^(k/2) u, Delta_m^(k/2) v> with the gradient form for odd k."""
    k = params.k
    m = float(params.m)
    half = k // 2
    au = list(u_atoms)
    av = list(v_atoms)
    for _ in range(half):
        au = [a.weighted_laplacian() for a in au]
        av = [a.weighted_laplacian() for a in av]
    if k % 2 == 0:
        return sum(_pair_integral(a, b, m) for a in au for b in av)
    dau = [a.d_dy() for a in au]
    dav = [a.d_dy() for a in av]
    val = sum(_pair_integral(a, b, m) for a in dau for b in dav)
    if xi2 != 0.0:  # the tangential-gradient term vanishes on the zero mode
        val += xi2 * sum(_pair_integral(a, b, m) for a in au for b in av)
    return val


def interior_energy(u: ModeFieldView, v: ModeFieldView) -> float:
    params = u.params
    xi2_flat = u.template.xi_abs2().reshape(-1)
    total = 0.0 + 0.0j
    for idx in set(u.atoms_by_mode) & set(v.atoms_by_mode):
        total += u.mult[idx] * _interior_pair(
            u.atoms_by_mode[idx], v.atoms_by_mode[idx], params, xi2_flat[idx])
    return float(np.real(total)) * _mode_weight(u.template)


def _ul_pair(u: ModeFieldView, v: ModeFieldView) -> float:
    """integral of U (-Delta_m)^k V y^m, the raw interior term of the
    quadratic form.  The sign (-1)^k makes the form positive (for odd k the
    unsigned power would flip the gradient-form identity)."""
    params = u.params
    m = float(params.m)
    total = 0.0 + 0.0j
    for idx in set(u.atoms_by_mode) & set(v.atoms_by_mode):
        lv = list(v.atoms_by_mode[idx])
        for _ in range(params.k):
            lv = [a.weighted_laplacian() for a in lv]
        for a in u.atoms_by_mode[idx]:
            for b in lv:
                total += u.mult[idx] * _pair_integral(a, b, m)
    return float(np.real(total)) * _mode_weight(u.template) * (-1.0) ** params.k


def _boundary_pairing(u: ModeFieldView, family_u, j_u, v: ModeFieldView, family_v, j_v,
                      lap_power: int = 0) -> float:
    """oint B(U) Lap^p B(V) dx via Plancherel over active modes."""
    bu = u.boundary_modes(family_u, j_u)
    bv = v.boundary_modes(family_v, j_v)
    xi2_flat = u.template.xi_abs2().reshape(-1)
    total = 0.0 + 0.0j
    for idx in set(bu) & set(bv):
        total += u.mult[idx] * bu[idx] * (-xi2_flat[idx]) ** lap_power * np.conj(bv[idx])
    return float(np.real(total)) * _mode_weight(u.template)


def q_form(u: ModeFieldView, v: ModeFieldView) -> float:
    """The Dirichlet form: interior U L V term plus the two boundary sums."""
    params = u.params
    fl = params.floor_gamma
    total = _ul_pair(u, v)
    for j in range(params.n_even_data):
        total += _boundary_pairing(u, "even", j, v, "odd", fl - j)
    for j in range(params.n_odd_data):
        total -= _boundary_pairing(u, "odd", j, v, "even", fl - j)
    return total


def boundary_correction(u: ModeFieldView, v: ModeFieldView) -> float:
    """The coupling-constant double sum subtracted from the interior energy."""
    params = u.params
    fl = params.floor_gamma
    total = 0.0
    for j in range(params.n_even_data):
        for ell in range(params.n_odd_data):
            c = symmetry_constant(params, j, ell).value(params.frac_gamma)
            p = fl - j - ell
            total += c * (
                _boundary_pairing(u, "even", j, v, "odd", ell, lap_power=p)
                + _boundary_pairing(v, "even", j, u, "odd", ell, lap_power=p)
            )
    return total


def dtn_rhs(sol: ExtensionSolution) -> float:
    """Trace-inequality right side: weighted sums of the Dirichlet data
    against the fractional symbol, Plancherel over all modes."""
    params = sol.params
    g = float(params.gamma)
    fl, fr = params.floor_gamma, float(params.frac_gamma)
    xi2 = sol.xi2.reshape(-1)
    total = 0.0
    for row, (family, j) in enumerate(sol.conds):
        dh = sol.data_hat[row].reshape(-1)
        if family == "even":
            const = dtn_constant_even(params, j).value(params.frac_gamma)
            power = g - 2 * j
        else:
            const = dtn_constant_odd(params, j).value(params.frac_gamma)
            power = fl - fr - 2 * j
        total += const * float(np.sum(np.abs(dh) ** 2 * xi2 ** power))
    return total * _mode_weight(sol.template)


def energy(params: GammaParams, field) -> EnergyBreakdown:
    """Energy breakdown of an extension solution or a synthetic field."""
    if isinstance(field, ExtensionSolution):
        view = extension_field_view(field)
        rhs = dtn_rhs(field)
    else:
        view = field.view() if isinstance(field, TwoBranchGaussField) else field
        rhs = None
    inter = interior_energy(view, view)
    corr = boundary_correction(view, view)
    q = q_form(view, view)
    return EnergyBreakdown(inter, corr, q, rhs)


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def verify_q_symmetry(params: GammaParams, u_field, v_field,
                      tol_sym: float = 1e-8, tol_consistency: float = 1e-7) -> VerificationReport:
    """|Q(U,V) - Q(V,U)| small, and Q = interior - boundary correction."""
    report = VerificationReport("q_symmetry", str(params), params.n)
    u = u_field.view() if isinstance(u_field, TwoBranchGaussField) else u_field
    v = v_field.view() if isinstance(v_field, TwoBranchGaussField) else v_field
    quv = q_form(u, v)
    qvu = q_form(v, u)
    scale = abs(quv) + 1.0
    err = abs(quv - qvu) / scale
    report.record(err <= tol_sym, err, f"symmetry defect {err:.3e}")
    inter = interior_energy(u, v)
    corr = boundary_correction(u, v)
    scale2 = abs(quv) + abs(inter) + 1.0
    err2 = abs(quv - (inter - corr)) / scale2
    report.record(err2 <= tol_consistency, err2,
                  f"Q vs interior-minus-correction defect {err2:.3e}")
    return report


def zero_data_perturbation(params: GammaParams, template: GridField, seed: int,
                           lam: float = 1.0, scale: float = 1.0) -> TwoBranchGaussField:
    """Field with every Dirichlet boundary operator vanishing: the a branch
    starts above the even data range and the b branch above the odd range."""
    rng = np.random.default_rng(seed)
    ne, no = params.n_even_data, params.n_odd_data

    def band_limited():
        modes = np.zeros(template.shape, dtype=complex)
        flat = modes.reshape(-1)
        xi2 = template.xi_abs2().reshape(-1)
        order = np.argsort(xi2)[1:6]
        flat[order] = rng.normal(size=5) + 1j * rng.normal(size=5)
        vals = np.real(np.fft.ifftn(flat.reshape(template.shape)) * flat.size)
        return scale * vals / (np.abs(vals).max() + 1e-300)

    a = [np.zeros(template.shape) for _ in range(ne)] + [band_limited()]
    b = [np.zeros(template.shape) for _ in range(no)] + [band_limited()]
    return TwoBranchGaussField(params, template, a, b, lam)


def dirichlet_principle_check(params: GammaParams, data_fields, seed: int = 0,
                              tol: float = 1e-7) -> VerificationReport:
    """Quadraticity of the energy along zero-data perturbations of the solved
    extension, and positivity of the perturbation energy."""
    report = VerificationReport("dirichlet_principle", str(params), params.n)
    sol = solve_extension(params, data_fields)
    u = extension_field_view(sol)
    w_field = zero_data_perturbation(params, sol.template, seed,
                                     scale=0.1 * max(np.abs(f.values).max() for f in data_fields))
    w = w_field.view()

    # confirm the perturbation really has zero Dirichlet data
    for family, j in dirichlet_condition_list(params):
        vals = w.boundary_modes(family, j)
        worst = max((abs(v) for v in vals.values()), default=0.0)
        report.record(worst <= 1e-12, worst, f"W has zero B[{family},{j}] data ({worst:.1e})")

    e_u = q_form(u, u)
    e_w = q_form(w, w)
    report.record(e_w > 0.0, 0.0, f"perturbation energy {e_w:.6e} > 0")

    def merged(t: float) -> ModeFieldView:
        atoms = {}
        for idx, lst in u.atoms_by_mode.items():
            atoms.setdefault(idx, []).extend(lst)
        for idx, lst in w.atoms_by_mode.items():
            scaled = [PolyGaussModeFn(a.xi, a.m, a.lam, {p: t * c for p, c in a.terms.items()})
                      for a in lst]
            atoms.setdefault(idx, []).extend(scaled)
        return ModeFieldView(params, sol.template, atoms)

    for t in (-1.0, 0.5, 1.0, 2.0):
        e_t = q_form(merged(t), merged(t))
        want = e_u + t * t * e_w
        scale = abs(e_u) + abs(e_w) + 1e-30
        err = abs(e_t - want) / scale
        report.record(err <= tol, err, f"t={t}: energy defect {err:.3e}")
    return report


def energy_trace_check(params: GammaParams, data_fields, seed: int = 1,
                       tol: float = 1e-6) -> VerificationReport:
    """Equality of the energy with the weighted Dirichlet-to-Neumann sums for
    the solution, strict inequality with the predicted gap after perturbing."""
    report = VerificationReport("energy_trace", str(params), params.n)
    sol = solve_extension(params, data_fields)
    u = extension_field_view(sol)
    e_u = q_form(u, u)
    rhs = dtn_rhs(sol)
    scale = abs(rhs) + 1e-30
    err = abs(e_u - rhs) / scale
    report.record(err <= tol, err, f"energy equals DtN sum: defect {err:.3e}")

    # the interior route must agree with the boundary route as well
    inter = interior_energy(u, u)
    corr = boundary_correction(u, u)
    err2 = abs((inter - corr) - rhs) / scale
    report.record(err2 <= tol, err2, f"interior-route energy: defect {err2:.3e}")

    w_field = zero_data_perturbation(params, sol.template, seed,
                                     scale=0.3 * max(np.abs(f.values).max() for f in data_fields))
    w = w_field.view()
    e_w = q_form(w, w)
    atoms = {}
    for idx, lst in u.atoms_by_mode.items():
        atoms.setdefault(idx, []).extend(lst)
    for idx, lst in w.atoms_by_mode.items():
        atoms.setdefault(idx, []).extend(lst)
    e_pert = q_form(ModeFieldView(params, sol.template, atoms), ModeFieldView(params, sol.template, atoms))
    gap = e_pert - rhs
    err3 = abs(gap - e_w) / (abs(e_w) + 1e-30)
    report.record(err3 <= tol, err3, f"perturbation gap {gap:.6e} vs E(W) {e_w:.6e}")
    report.record(gap > 0, 0.0, "strict inequality for the perturbed field")
    return report


# ---------------------------------------------------------------------------
# Sharp inequalities on the boundary
# ---------------------------------------------------------------------------


@dataclass
class Bubble:
    """Extremal profile a (eps + |x - xi0|^2)^(-(n - 2 gt)/2)."""

    n: int
    gamma_tilde: float
    a: float = 1.0
    epsilon: float = 1.0
    xi0: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("bubble requires epsilon > 0")
        if self.n <= 2 * self.gamma_tilde:
            raise ValueError("bubble requires n > 2 gamma_tilde")

    def sample(self, template: GridField) -> GridField:
        power = -(self.n - 2.0 * self.gamma_tilde) / 2.0
        if self.n == 1:
            x = template.coords()
            r2 = (x - self.xi0[0]) ** 2
        else:
            X, Y = template.coords()
            r2 = (X - self.xi0[0]) ** 2 + (Y - self.xi0[1]) ** 2
        vals = self.a * (self.epsilon + r2) ** power
        return GridField(template.n, template.shape, template.box_length, vals)


def sphere_volume(n: int) -> float:
    """Surface measure of the unit n-sphere in R^(n+1)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def sharp_sobolev_constant(n: int, gt: float) -> float:
    """Gamma((n+2gt)/2)/Gamma((n-2gt)/2) Vol(S^n)^(2gt/n)."""
    return (
        math.gamma((n + 2.0 * gt) / 2.0)
        / math.gamma((n - 2.0 * gt) / 2.0)
        * sphere_volume(n) ** (2.0 * gt / n)
    )


def sobolev_quotient(f: GridField, gt: float, tail_p: float = 0.0,
                     smallxi_model: tuple = None) -> float:
    """R = oint f (-Lap)^gt f / (S ||f||_p^2), p = 2n/(n - 2 gt).

    tail_p is an analytic estimate of the |f|^p mass outside the box (the
    sampled field is a windowed restriction of a decaying function).

    smallxi_model = (a, b) activates the exact small-frequency repair for
    n = 2, gt = 1/2 fields with an a/|x| tail: their transform behaves like
    2 pi a e^(-b|xi|)/|xi| near zero, which the mode lattice undersamples by
    O(1/L); the continuum-minus-lattice difference of the model is added.
    """
    n = f.n
    p = 2.0 * n / (n - 2.0 * gt)
    modes = f.fft()
    xi2 = f.xi_abs2()
    sym = xi2 ** gt
    sym.flat[0] = 0.0
    num = float(np.sum(np.abs(modes) ** 2 * sym)) * f.box_length ** n
    if smallxi_model is not None:
        if not (n == 2 and abs(gt - 0.5) < 1e-12):
            raise ValueError("small-xi repair implemented for n=2, gt=1/2 only")
        a, b = smallxi_model
        cutoff = 2.0
        # continuum: (2 pi)^-2 int_(|xi|<cutoff) (2 pi a e^(-b xi)/xi)^2 xi dxi^2
        continuum = 2.0 * math.pi * a * a * (1.0 - math.exp(-2.0 * b * cutoff)) / (2.0 * b)
        xiabs = np.sqrt(xi2)
        mask = (xiabs > 0) & (xiabs <= cutoff)
        lattice = float(np.sum(
            (2.0 * math.pi * a * np.exp(-b * xiabs[mask]) / xiabs[mask]) ** 2 * xiabs[mask]
        )) / f.box_length ** n
        num += continuum - lattice
    cell = float(np.prod([f.box_length / s for s in f.shape]))
    norm_p = float(np.sum(np.abs(f.values) ** p)) * cell + tail_p
    denom = sharp_sobolev_constant(n, gt) * norm_p ** (2.0 / p)
    return num / denom


def bubble_tail_p(bubble: Bubble, box_length: float) -> float:
    """Mass of |f|^p outside the inscribed disk of the box: the bubble decay
    integrates in closed form, int_(r>R0) a^p (eps + r^2)^(-n) dvol."""
    n = bubble.n
    R0 = box_length / 2.0
    surf = sphere_volume(n - 1) if n > 1 else 2.0
    if n == 2:
        return bubble.a ** 4 * surf * 0.5 / (bubble.epsilon + R0 ** 2)
    # generic n: one-term asymptotic of the radial integral
    return bubble.a ** (2.0 * n / (n - 2 * bubble.gamma_tilde)) * surf * R0 ** (-n) / n


def sharp_sobolev_check(params_or_n, gt: float = 0.5, bubble: Bubble = None,
                        n_perturbations: int = 5, shape=(512, 512), box_length: float = 200.0,
                        tol: float = 1e-2, seed: int = 0) -> VerificationReport:
    """Bubble quotient R = 1 within windowing tolerance, strictly larger for
    perturbations, and invariance of R under translation/dilation."""
    n = params_or_n if isinstance(params_or_n, int) else params_or_n.n
    report = VerificationReport("sharp_sobolev", f"{gt}", n)
    if bubble is None:
        bubble = Bubble(n=n, gamma_tilde=gt, epsilon=1.0)
    if box_length < 200.0 * math.sqrt(bubble.epsilon):
        report.fail(f"box {box_length} too small for epsilon={bubble.epsilon}")
        return report
    template = GridField(n, shape, box_length, np.zeros(shape))
    f = bubble.sample(template)
    model = (bubble.a, math.sqrt(bubble.epsilon))
    r_bubble = sobolev_quotient(f, gt, tail_p=bubble_tail_p(bubble, box_length),
                                smallxi_model=model)
    err = abs(r_bubble - 1.0)
    report.record(err <= tol, err, f"bubble quotient R = {r_bubble:.6f}")

    # translation / dilation invariance
    variants = [Bubble(n, gt, epsilon=4.0)]
    shift = (10.0, -7.0) if n > 1 else (10.0,)
    variants.append(Bubble(n, gt, epsilon=1.0, xi0=shift))
    for variant in variants:
        r_var = sobolev_quotient(variant.sample(template), gt,
                                 tail_p=bubble_tail_p(variant, box_length),
                                 smallxi_model=(variant.a, math.sqrt(variant.epsilon)))
        err = abs(r_var - r_bubble)
        report.record(err <= tol, err,
                      f"invariance: R = {r_var:.6f} (eps={variant.epsilon}, xi0={variant.xi0})")

    # perturbations: strictly super-optimal quotient, margins recorded
    rng = np.random.default_rng(seed)
    margins = []
    for i in range(n_perturbations):
        width = rng.uniform(2.0, 6.0)
        amp = rng.uniform(0.2, 0.4)
        center = rng.uniform(-8.0, 8.0, size=n)
        if n == 1:
            x = template.coords()
            bump = np.exp(-((x - center[0]) ** 2) / (2 * width ** 2))
        else:
            X, Y = template.coords()
            bump = np.exp(-(((X - center[0]) ** 2) + (Y - center[1]) ** 2) / (2 * width ** 2))
        g = GridField(n, shape, box_length, f.values + amp * bump)
        r_pert = sobolev_quotient(g, gt, tail_p=bubble_tail_p(bubble, box_length),
                                  smallxi_model=model)
        margin = r_pert - r_bubble
        margins.append(margin)
        report.record(margin > 0.0, 0.0, f"perturbation {i}: R = {r_pert:.6f}, margin {margin:.4e}")
    report.details.append(f"min margin {min(margins):.4e}")
    return report


def lebedev_milin_check(extremal_eps: float = 1.0, extremal_xi: float = 0.0,
                        shape=(8192,), box_length: float = 600.0,
                        tol_equality: float = 1e-3, perturbation: float = 0.0,
                        f_values: np.ndarray = None) -> VerificationReport:
    """Exponential-class sharp trace inequality on the line (k = 0, n = 1):

        oint f (-Lap)^(1/2) f dx >= 4 pi ln oint e^(f - fbar) dmu,

    dmu = (1/(2 pi)) (2/(1+x^2)) dx.  Equality for f = a - ln((eps+|x-xi|^2)/(1+x^2)).
    """
    report = VerificationReport("lebedev_milin", "1/2", 1)
    template = GridField(1, shape, box_length, np.zeros(shape))
    x = template.coords()
    if f_values is None:
        f_vals = np.log(1.0 + x ** 2) - np.log(extremal_eps + (x - extremal_xi) ** 2)
        if perturbation:
            f_vals = f_vals + perturbation * np.exp(-((x - 3.0) ** 2) / 8.0)
    else:
        f_vals = np.asarray(f_values, dtype=float)
    f = GridField(1, shape, box_length, f_vals)

    modes = f.fft()
    sym = np.sqrt(f.xi_abs2())
    lhs = float(np.sum(np.abs(modes) ** 2 * sym)) * box_length

    # mu-side integrals on the half-angle circle parametrization (x = tan th),
    # spectrally accurate for the decaying integrands
    nth = 4096
    th = (np.arange(nth) + 0.5) * (np.pi / nth) - np.pi / 2
    xs = np.tan(th)
    f_th = np.interp(xs, x, f_vals, left=0.0, right=0.0)
    # use the analytic form off the grid where available
    if f_values is None:
        f_th = np.log(1.0 + xs ** 2) - np.log(extremal_eps + (xs - extremal_xi) ** 2)
        if perturbation:
            f_th = f_th + perturbation * np.exp(-((xs - 3.0) ** 2) / 8.0)
    fbar = float(np.mean(f_th))
    rhs_log = math.log(float(np.mean(np.exp(f_th - fbar))))
    rhs = 4.0 * math.pi * rhs_log

    if perturbation == 0.0 and f_values is None:
        scale = abs(lhs) + 1e-30
        err = abs(lhs - rhs) / scale
        report.record(err <= tol_equality, err,
                      f"extremal equality: lhs {lhs:.6f}, rhs {rhs:.6f}, defect {err:.2e}")
    else:
        gap = lhs - rhs
        report.record(gap > 0.0, 0.0, f"strict inequality: lhs - rhs = {gap:.6e}")
    report.details.append(f"lhs={lhs:.8f} rhs={rhs:.8f}")
    return report


def lebedev_milin_extremal_energy(eps: float, xi: float) -> float:
    """Closed form of oint f (-Lap)^(1/2) f for the extremal family, via the
    explicit Fourier transform of ln((x^2+a^2)/(x^2+b^2)):

        4 pi [ ln((1+b)^2/(4b)) + ln(1 + xi^2/(1+b)^2) ],  b = sqrt(eps).
    """
    b = math.sqrt(eps)
    return 4.0 * math.pi * (math.log((1.0 + b) ** 2 / (4.0 * b))
                            + math.log(1.0 + xi ** 2 / (1.0 + b) ** 2))

"""Quadratic forms, trace energies, and the sharp-inequality test bench.

All interior quantities are assembled per Fourier mode of the boundary grid:
the x integral is Plancherel-exact on the periodic box and only the y
integral is quadrature.  Per-mode profiles come in two flavors, Bessel-type
(extension solutions) and polynomial-times-Gaussian (synthetic test fields);
both expose exact symbolic application of the weighted mode Laplacian
T - |xi|^2, exact two-branch jets, branch-split evaluation for small y and
direct evaluation elsewhere.

The mode Laplacian is homogeneous: with t = |xi| y, T_y - |xi|^2 =
|xi|^2 (T_t - 1).  An extension solution is sum_i s_i P_i(|xi| y) at every
mode, with the same k unit-coefficient profiles P_i, so each solution-solution
block (the interior form and the U L^k U term of the quadratic form) is one
k x k Gram matrix per order, computed once at |xi| = 1, times a power of |xi|.
Per-mode quadrature remains for cross terms with synthetic fields and for the
zero mode.  There the solution's atoms of (T - |xi|^2)^j U are rescaled
copies of (T_t - 1)^j P_i, which the exact rational chain algebra builds once
per view: the y^p series coefficient gains s_i |xi|^(p + 2j), each Bessel
chain prefactor s_i |xi|^(2j).  Boundary values are read off the jets,
vectorized over modes.

The y quadrature is Gauss-Jacobi with the weight exponent matched per branch
pair (the two-branch structure makes the integrand a sum of y^kappa times
smooth factors), plus Gauss-Legendre panels on the smooth outer region.
Node counts double until |I_n - I_(n/2)| <= 1e-9 (|I_n| + integral of |f|),
the integral of |f| taken on the same nodes: a cancelling integrand then
stops at its roundoff floor instead of running to the node cap.  QUAD_COUNTS
tallies integrals, nodes and cap hits; the energy and symmetry checks fail on
a cap hit of their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .besselk import bessel_k, bessel_k_dt
from .gammacore import GammaParams, symmetry_constant, dtn_constant_even, dtn_constant_odd
from .modes import (
    GridField,
    ExtensionSolution,
    ModeProfile,
    NumericJets,
    T_SERIES,
    T_MAX,
    all_profiles,
    dirichlet_condition_list,
)
from .report import VerificationReport

QUAD_REL_TOL = 1e-9
GJ_START = 48
GJ_CAP = 768
GL_PANEL_NODES = 48


# ---------------------------------------------------------------------------
# Per-mode profile algebra
# ---------------------------------------------------------------------------


def _key_denominator(exponents) -> int:
    """The lcm of the denominators of rational exponents: every exponent of
    a profile function is an integer numerator over it."""
    return math.lcm(*(Fraction(p).denominator for p in exponents))


def _numerator(p, D: int) -> int:
    p = Fraction(p)
    return p.numerator * (D // p.denominator)


class BesselModeFn:
    """Per-mode function: branch series (valid t = xi y < switchover) plus a
    Bessel-kernel chain for larger y.

    series: {P: complex coeff}, meaning coeff y^(P/D), already in the y variable.
    chains: list of (nu: Fraction, prefactor: complex,
                     {(A, d in {0,1}): Fraction coeff})
    meaning prefactor * sum coeff (xi y)^(A/D) K_nu^(d)(xi y).  Exponents are
    keyed by integer numerators over the exponent denominator D; the
    constructor takes them as rationals.  Chain coefficients stay exact
    rationals so that kernel membership cancels exactly under repeated
    operator application (float coefficients would leave residue amplified
    by nu^2-sized factors at every step).
    """

    def __init__(self, xi: float, m: Fraction, series: dict, chains: list):
        D = _key_denominator([*series, *(a for _, _, terms in chains for a, _ in terms)])
        self._set(xi, Fraction(m), D, {_numerator(p, D): c for p, c in series.items()},
                  [(nu, pre, {(_numerator(a, D), d): c for (a, d), c in terms.items()})
                   for nu, pre, terms in chains])

    def _set(self, xi, m, D, series, chains):
        self.xi = xi
        self.m = m
        self.D = D
        self.series = {p: c for p, c in series.items() if c != 0}
        self.chains = [(nu, pre, terms) for nu, pre, terms in chains if terms and pre != 0]

    def _new(self, xi, series, chains) -> "BesselModeFn":
        out = BesselModeFn.__new__(BesselModeFn)
        out._set(xi, self.m, self.D, series, chains)
        return out

    @property
    def series_limit(self) -> float:
        return T_SERIES / self.xi if self.xi > 0 else np.inf

    @property
    def outer_limit(self) -> float:
        return T_MAX / self.xi if self.xi > 0 else np.inf

    def _chain_ddt(self, terms: dict, nu2: Fraction) -> dict:
        """One t derivative on a Bessel chain, closed on K and K' through the
        second-derivative reduction K'' = (1 + nu^2/t^2) K - K'/t."""
        D = self.D
        out = {}

        def add(key, val):
            acc = out.get(key, 0) + val
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc

        for (a, d), c in terms.items():
            if d == 0:
                add((a - D, 0), Fraction(c.numerator * a, c.denominator * D))
                add((a, 1), c)
            else:
                add((a - D, 1), Fraction(c.numerator * (a - D), c.denominator * D))
                add((a, 0), c)
                add((a - 2 * D, 0), c * nu2)
        return out

    def weighted_laplacian(self) -> "BesselModeFn":
        """T_y - xi^2: equals xi^2 (T_t - 1) on functions of t = xi y."""
        xi2 = self.xi * self.xi
        D, (mp, mq) = self.D, (self.m.numerator, self.m.denominator)
        new_series = {}

        def add(key, val):
            acc = new_series.get(key, 0.0) + val
            if acc == 0:
                new_series.pop(key, None)
            else:
                new_series[key] = acc

        for p, c in self.series.items():
            w = p * ((p - D) * mq + mp * D)   # p (p - 1 + m) D^2 mq, exact; vanishes at branch bottoms
            if w != 0:
                add(p - 2 * D, c * (w / (D * D * mq)))
            add(p, -c * xi2)
        new_chains = []
        for nu, pre, terms in self.chains:
            nu2 = nu * nu
            d1 = self._chain_ddt(terms, nu2)
            out = self._chain_ddt(d1, nu2)

            def acc(key, val):
                cur = out.get(key, 0) + val
                if cur == 0:
                    out.pop(key, None)
                else:
                    out[key] = cur

            for (a, d), c in d1.items():  # + (m/t) d/dt
                acc((a - D, d), self.m * c)
            for (a, d), c in terms.items():  # - identity
                acc((a, d), -c)
            if out:
                new_chains.append((nu, pre * xi2, out))
        return self._new(self.xi, new_series, new_chains)

    def d_dy(self) -> "BesselModeFn":
        D = self.D
        new_series = {}
        for p, c in self.series.items():
            if p != 0:
                new_series[p - D] = new_series.get(p - D, 0.0) + c * (p / D)
        new_chains = []
        for nu, pre, terms in self.chains:
            out = self._chain_ddt(terms, nu * nu)
            if out:
                new_chains.append((nu, pre * self.xi, out))
        return self._new(self.xi, new_series, new_chains)

    def rescaled(self, xi: float, s: complex, j: int) -> "BesselModeFn":
        """s |xi|^(2j) F(|xi| y) for this function F of t at |xi| = 1.

        With F = (T_t - 1)^j P this is (T_y - |xi|^2)^j applied to s P(|xi| y):
        the series coefficient of y^p gains s |xi|^(p + 2j), each chain
        prefactor s |xi|^(2j), and the chain terms are unchanged."""
        D = self.D
        series = {p: c * (s * xi ** (p / D + 2 * j)) for p, c in self.series.items()}
        scale = s * xi ** (2 * j)
        chains = [(nu, pre * scale, terms) for nu, pre, terms in self.chains]
        return self._new(xi, series, chains)

    @functools.cached_property
    def branch_components(self) -> dict:
        """The series grouped by exponent class (p mod 2), anchored at the
        group minimum so the residual factor is a genuine power series in y^2:
        {P_min: coefficient vector over (y^2)^k}, P_min over D."""
        return _class_coefficients(self.series, self.D)

    def eval_series(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=complex)
        for p, c in self.series.items():
            out += c * y ** (p / self.D)
        return out

    def eval_outer(self, y: np.ndarray) -> np.ndarray:
        t = self.xi * y
        out = np.zeros(y.shape, dtype=complex)
        for nu, pre, terms in self.chains:
            k0, k1 = bessel_k(float(nu), t), bessel_k_dt(float(nu), t)
            for (a, d), c in terms.items():
                out += pre * float(c) * t ** (a / self.D) * (k0 if d == 0 else k1)
        return out

    def jet_arrays(self, truncation: int, frac_gamma: Fraction):
        return _branch_jets(self.series, self.D, truncation, frac_gamma, 0.0)


def _branch_jets(series: dict, D: int, truncation: int, frac_gamma: Fraction, lam: float):
    """Two-branch jets a[q], b[q] of sum_P c y^(P/D) exp(-lam y^2): y^(2q0)
    feeds a[q0 + i] and y^(2[g] + 2q0) feeds b[q0 + i] with the Taylor weight
    (-lam)^i / i! of the Gaussian (only i = 0 at lam = 0)."""
    a = [0.0j] * (truncation + 1)
    b = [0.0j] * (truncation + 1)
    shift = 2 * frac_gamma * D            # 2[g] as a numerator over D, if it is one
    for p, c in series.items():
        if p % (2 * D) == 0:
            branch, q0 = a, p // (2 * D)
        elif shift.denominator == 1 and (p - shift.numerator) % (2 * D) == 0:
            branch, q0 = b, (p - shift.numerator) // (2 * D)
        else:
            continue
        if q0 < 0:
            continue
        for q in range(q0, truncation + 1 if lam else min(q0, truncation) + 1):
            branch[q] += c * (-lam) ** (q - q0) / math.factorial(q - q0)
    return a, b


class PolyGaussModeFn:
    """Per-mode function sum_P c_P y^(P/D) exp(-lam y^2), exact under the mode
    Laplacian; lam = 0 degenerates to polynomials (zero-mode case).  The
    constructor takes rational exponents and keys them by numerators over D."""

    def __init__(self, xi: float, m: Fraction, lam: float, terms: dict):
        D = _key_denominator(terms)
        self._set(xi, Fraction(m), lam, D, {_numerator(p, D): c for p, c in terms.items()})

    def _set(self, xi, m, lam, D, terms):
        self.xi = xi
        self.m = m
        self.lam = lam
        self.D = D
        self.terms = {p: c for p, c in terms.items() if c != 0}

    def _new(self, terms) -> "PolyGaussModeFn":
        out = PolyGaussModeFn.__new__(PolyGaussModeFn)
        out._set(self.xi, self.m, self.lam, self.D, terms)
        return out

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
        p_max = max(self.terms) / self.D if self.terms else 0.0
        return math.sqrt((46.0 + 3.0 * p_max) / self.lam)

    def weighted_laplacian(self) -> "PolyGaussModeFn":
        xi2 = self.xi * self.xi
        lam = self.lam
        D, (mp, mq), mf = self.D, (self.m.numerator, self.m.denominator), float(self.m)
        out = {}

        def add(p, v):
            if v != 0:
                out[p] = out.get(p, 0.0) + v

        for p, c in self.terms.items():
            w = p * ((p - D) * mq + mp * D)   # p (p - 1 + m) D^2 mq, exact; vanishes at branch bottoms
            if w != 0:
                add(p - 2 * D, c * (w / (D * D * mq)))
            add(p, -c * 2.0 * lam * (2.0 * (p / D) + 1.0 + mf))
            add(p + 2 * D, c * 4.0 * lam * lam)
            add(p, -c * xi2)
        return self._new(out)

    def d_dy(self) -> "PolyGaussModeFn":
        D = self.D
        out = {}
        for p, c in self.terms.items():
            if p != 0:
                out[p - D] = out.get(p - D, 0.0) + c * (p / D)
            out[p + D] = out.get(p + D, 0.0) - 2.0 * self.lam * c
        return self._new(out)

    @functools.cached_property
    def branch_components(self) -> dict:
        return _class_coefficients(self.terms, self.D)

    def eval_series(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=complex)
        for p, c in self.terms.items():
            out += c * y ** (p / self.D)
        return out * np.exp(-self.lam * y * y)

    eval_outer = eval_series

    def jet_arrays(self, truncation: int, frac_gamma: Fraction):
        return _branch_jets(self.terms, self.D, truncation, frac_gamma, self.lam)


def _group_by_class(series: dict, D: int) -> dict:
    """Group exponent numerators P (over D) by their value mod 2D and key each
    group by its minimum, so every group reads P_min + (even powers); each
    term carries the exact integer k = (P - P_min)/(2D) of its power (y^2)^k."""
    classes = {}
    for p, c in series.items():
        classes.setdefault(p % (2 * D), []).append((p, c))
    out = {}
    for group in classes.values():
        low = min(p for p, _ in group)
        out[low] = [((p - low) // (2 * D), c) for p, c in group]
    return out


def _class_coefficients(series: dict, D: int) -> dict:
    """{P_min: coefficients of the class's power series in y^2}, dense in k."""
    out = {}
    for low, group in _group_by_class(series, D).items():
        coeffs = np.zeros(max(k for k, _ in group) + 1, dtype=complex)
        for k, c in group:
            coeffs[k] = c
        out[low] = coeffs
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_gj_cache = {}
GJ_MAX_STEPS = 20   # Aberth steps; at most 6 measured for beta in [-0.95, 21], n <= 768


def _gatteschi_pittaluga(n: int, a: float, b: float) -> np.ndarray:
    """First guesses for the roots of P_n^(a, b), largest first: x_k =
    cos(phi_k + ((1/4 - a^2) cot(phi_k/2) - (1/4 - b^2) tan(phi_k/2))/(4 r^2))
    with phi_k = (k + a/2 - 1/4) pi/r and r = n + (a + b + 1)/2 (Gatteschi &
    Pittaluga; Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  a shifts
    the phase phi_k, but b enters only through the tan(phi_k/2) term, which
    grows without bound toward x = -1."""
    r = n + 0.5 * (a + b + 1.0)
    phi = (np.arange(1.0, n + 1.0) + 0.5 * a - 0.25) * np.pi / r
    t = np.tan(0.5 * phi)
    return np.cos(phi + ((0.25 - a * a) / t - (0.25 - b * b) * t) / (4.0 * r * r))


def _gauss_jacobi_01(n: int, beta: float):
    """Nodes/weights for integral_0^1 u^beta F(u) du: the Gauss-Jacobi rule
    for the weight (1 + x)^beta on [-1, 1], mapped to u = (1 + x)/2; beta = 0
    is Gauss-Legendre.

    The nodes are the roots of P_n = P_n^(0, beta).  First guesses come from
    Gatteschi-Pittaluga, the half x >= 0 from P_n^(0, beta) and the half
    x < 0 from P_n^(beta, 0)(-x): each half is counted from its own
    endpoint, whose exponent then shifts the phase.  Aberth steps (Math.
    Comp. 27, 1973) then refine all nodes at once: the Newton ratio
    P_n/P_n' is deflated by the other nodes, which keeps them apart where
    plain Newton from the same guesses lands two on one root (beta = 12,
    n = 48).  One pass of the three-term recurrence gives P_(n-1) and P_n,
    and
    (2n + beta)(1 - x^2) P_n' = n (-beta - (2n + beta) x) P_n + 2n (n + beta) P_(n-1).
    The steps stop once none exceeds 1e-15; GJ_MAX_STEPS without that raises
    ArithmeticError.  The weights are 1/((1 - x^2) P_n'^2), normalised to
    integral_0^1 u^beta du = 1/(beta + 1).  No LAPACK routine is called, so
    no BLAS thread wakes."""
    key = (n, round(beta, 12))
    if key not in _gj_cache:
        right = _gatteschi_pittaluga(n, 0.0, beta)
        right = right[right >= 0.0][::-1]
        x = np.concatenate((-_gatteschi_pittaluga(n, beta, 0.0)[:n - right.size], right))
        j = np.arange(2.0, n + 1.0)
        s = 2.0 * j + beta
        d = 2.0 * j * (j + beta) * (s - 2.0)
        recurrence = list(zip((s - 1.0) * s * (s - 2.0) / d, -(s - 1.0) * beta * beta / d,
                              2.0 * (j - 1.0) * (j + beta - 1.0) * s / d))

        def value_and_slope(x):
            prev, cur = np.ones_like(x), 1.0 + 0.5 * (beta + 2.0) * (x - 1.0)
            for a_j, b_j, c_j in recurrence:
                prev, cur = cur, (a_j * x + b_j) * cur - c_j * prev
            slope = n * ((-beta - (2.0 * n + beta) * x) * cur + 2.0 * (n + beta) * prev) / (
                (2.0 * n + beta) * (1.0 - x) * (1.0 + x))
            return cur, slope

        for _ in range(GJ_MAX_STEPS):
            value, slope = value_and_slope(x)
            ratio = value / slope
            gaps = x[:, None] - x
            np.fill_diagonal(gaps, np.inf)
            step = ratio / (1.0 - ratio * (1.0 / gaps).sum(axis=1))
            x = x - step
            if np.max(np.abs(step)) <= 1e-15:
                break
        else:
            raise ArithmeticError(f"Gauss-Jacobi nodes (n={n}, beta={beta}) not converged "
                                  f"in {GJ_MAX_STEPS} Aberth steps")
        slope = value_and_slope(x)[1]
        w = 1.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
        _gj_cache[key] = (0.5 * (x + 1.0), w / (w.sum() * (beta + 1.0)))
    return _gj_cache[key]


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

    # inner region: per branch-class pair, weight-matched Gauss-Jacobi; each
    # class factor is its coefficient vector times the powers (y^2)^k
    lam = sum(f.lam for f in (u, v) if isinstance(f, PolyGaussModeFn))
    vg = {cv: np.conj(dv) for cv, dv in v.branch_components.items()}
    for cu, du in u.branch_components.items():
        for cv, dv in vg.items():
            beta = (cu * v.D + cv * u.D) / (u.D * v.D) + m_weight

            def smooth(yv):
                y2 = yv * yv
                powers = y2 ** np.arange(max(du.size, dv.size))[:, None]
                f = (du @ powers[:du.size]) * (dv @ powers[:dv.size])
                return f * np.exp(-lam * y2) if lam else f

            total += _adaptive_gj(smooth, split, beta)

    # outer region: both factors evaluated directly, integrand smooth
    if np.isfinite(outer) and outer > split * (1.0 + 1e-12):
        def outer_fn(yv):
            fu = u.eval_outer(yv) if yv[0] >= u.series_limit else u.eval_series(yv)
            fv = v.eval_outer(yv) if yv[0] >= v.series_limit else v.eval_series(yv)
            return fu * np.conj(fv) * yv ** m_weight

        total += _adaptive_gl(outer_fn, split, outer)
    return total


class _QuadCounts:
    """Process-wide quadrature tallies: integrals run, integrand nodes
    evaluated, and integrals stopped at GJ_CAP unconverged.  Checks run one
    at a time, so the difference around a check is its own count."""

    integrals = 0
    nodes = 0
    cap_hits = 0


QUAD_COUNTS = _QuadCounts()


def _adaptive(rule, start: int) -> complex:
    """Double the node count n from start until |I_n - I_(n/2)| <=
    QUAD_REL_TOL (|I_n| + A_n), where rule(n) returns I_n and A_n, the
    integral of |f| on the same nodes and weights.  The A_n term bounds the
    roundoff of a cancelling integrand, which a purely relative rule would
    chase to the cap; reaching GJ_CAP unconverged counts a cap hit."""
    counts = QUAD_COUNTS
    counts.integrals += 1
    prev = None
    n = start
    while True:
        val, mass = rule(n)
        counts.nodes += n
        if prev is not None and abs(val - prev) <= QUAD_REL_TOL * (abs(val) + mass):
            return val
        if n >= GJ_CAP:
            counts.cap_hits += 1
            return val
        prev = val
        n *= 2


def _adaptive_gj(smooth, upper: float, beta: float) -> complex:
    """integral_0^upper y^beta smooth(y) dy."""
    scale = upper ** (beta + 1.0)

    def rule(n):
        uu, w = _gauss_jacobi_01(n, beta)
        f = smooth(upper * uu)
        return scale * np.sum(w * f), scale * np.sum(w * np.abs(f))

    return _adaptive(rule, GJ_START)


def _adaptive_gl(fn, lo: float, hi: float) -> complex:
    """integral_lo^hi fn(y) dy on geometric panels: the integrand decays
    exponentially."""
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(hi, edges[-1] * 2.5 + 1.0))
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        def rule(n, a=a, b=b):
            uu, w = _gauss_jacobi_01(n, 0.0)
            f = fn(a + (b - a) * uu)
            return (b - a) * np.sum(w * f), (b - a) * np.sum(w * np.abs(f))

        total += _adaptive(rule, GL_PANEL_NODES)
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
    """A real boundary-periodic field presented as per-mode profile functions
    on its active canonical modes, with boundary-operator values and
    Plancherel weights.

    modes lists the active canonical flat mode indices in ascending order;
    mult (the conjugate-pair multiplicity used when summing real Plancherel
    contributions), xi2 and the arrays boundary_modes returns are aligned
    with it."""

    def __init__(self, params: GammaParams, template: GridField, atoms_by_mode):
        self._index(params, template, sorted(atoms_by_mode))
        self._atoms = [atoms_by_mode[idx] for idx in self.modes]

    def _index(self, params: GammaParams, template: GridField, modes):
        self.params = params
        self.template = template
        self.modes = np.asarray(modes, dtype=np.int64)
        mult = canonical_modes(template)
        self.mult = np.array([mult[idx] for idx in self.modes])
        self.xi2 = template.xi_abs2().reshape(-1)[self.modes]
        self._jets = None
        self._boundary = {}
        self._powers = {}

    def atoms(self, pos: int) -> list:
        """Profile functions of the mode at position pos of self.modes."""
        return self._atoms[pos]

    def laplacian_atoms(self, pos: int, j: int) -> list:
        """(T - |xi|^2)^j applied to each of atoms(pos), each power built once
        per view."""
        powers = self._powers.setdefault(pos, [self.atoms(pos)])
        while len(powers) <= j:
            powers.append([a.weighted_laplacian() for a in powers[-1]])
        return powers[j]

    def _add_atom_jets(self, pos: int, a: np.ndarray, b: np.ndarray):
        for atom in self.atoms(pos):
            aa, bb = atom.jet_arrays(a.shape[0] - 1, self.params.frac_gamma)
            a[:, pos] += aa
            b[:, pos] += bb

    def _jet_arrays(self, truncation: int):
        """Two-branch jets a[q], b[q] of the field, one column per mode."""
        a = np.zeros((truncation + 1, self.modes.size), dtype=complex)
        b = np.zeros_like(a)
        for pos in range(self.modes.size):
            self._add_atom_jets(pos, a, b)
        return a, b

    def boundary_modes(self, family: str, j: int) -> np.ndarray:
        """B[family, j] of the field on each mode, computed once per view."""
        key = (family, j)
        if key not in self._boundary:
            if self._jets is None:
                fl = self.params.floor_gamma
                self._jets = NumericJets(fl, float(self.params.frac_gamma),
                                         *self._jet_arrays(fl + 2))
            self._boundary[key] = self._jets.apply_boundary(family, j, self.xi2)
        return self._boundary[key]


def _profile_atom(prof: ModeProfile, xi: float, c) -> BesselModeFn:
    """c P(xi y) / xi^lead for a Frobenius-normalized profile P: its two branch
    series in y plus the chain t^gamma K_nu(t) / bessel_norm at t = xi y."""
    series = {}
    for i in range(len(prof.lead_series)):
        p = prof.lead_exponent + 2 * i
        series[p] = series.get(p, 0.0) + c * prof.lead_series[i] * xi ** (2 * i)
        p2 = prof.co_exponent + 2 * i
        series[p2] = series.get(p2, 0.0) + c * prof.co_series[i] * xi ** float(
            2 * prof.nu + 2 * i
        )
    chain_coeff = c / (prof.bessel_norm * xi ** float(prof.lead_exponent))
    chains = [(prof.nu, chain_coeff, {(prof.params.gamma, 0): Fraction(1)})]
    return BesselModeFn(xi, prof.params.m, series, chains)


class SolutionFieldView(ModeFieldView):
    """An extension solution on its active canonical modes.

    At |xi| > 0 the solution is U(y) = sum_i s_i P_i(|xi| y) with
    s_i = c_i |xi|^(-lead_i), where the P_i are the unit-coefficient profiles
    at |xi| = 1 (units, from the solution's own profiles) and c_i the solved
    coefficients; the zero mode is a polynomial.  (T - |xi|^2)^j U is
    sum_i s_i |xi|^(2j) [(T_t - 1)^j P_i](|xi| y), so the exact operator
    algebra runs once per unit and power (unit_laplacians) and every mode's
    atoms are rescaled copies, built only for the modes that ask."""

    def __init__(self, sol: ExtensionSolution, modes):
        self._index(sol.params, sol.template, modes)
        self.sol = sol
        self.coeffs = sol.coeffs[self.modes]
        self.xi = np.sqrt(self.xi2)
        self.units = [_profile_atom(prof, 1.0, 1.0) for prof in sol.profiles]
        lead = np.array([float(prof.lead_exponent) for prof in sol.profiles])
        nonzero = self.xi > 0.0
        self.scaled = np.zeros_like(self.coeffs)
        self.scaled[nonzero] = self.coeffs[nonzero] * self.xi[nonzero, None] ** -lead

    @functools.cached_property
    def unit_laplacians(self) -> list:
        """[P, (T_t - 1) P, ..., (T_t - 1)^k P] for each unit P."""
        return [_laplacian_powers(unit, self.params.k) for unit in self.units]

    def atoms(self, pos: int) -> list:
        if self.xi[pos] != 0.0:
            return self.laplacian_atoms(pos, 0)
        sol, params = self.sol, self.params
        terms = {}
        for q, c in enumerate(sol.zero_even):
            if c != 0:
                terms[Fraction(2 * q)] = terms.get(Fraction(2 * q), 0.0) + c
        for q, c in enumerate(sol.zero_odd):
            p = 2 * params.frac_gamma + 2 * q
            if c != 0:
                terms[p] = terms.get(p, 0.0) + c
        return [PolyGaussModeFn(0.0, params.m, 0.0, terms)]

    def laplacian_atoms(self, pos: int, j: int) -> list:
        xi = float(self.xi[pos])
        if xi == 0.0:
            return super().laplacian_atoms(pos, j)
        return [powers[j].rescaled(xi, s, j)
                for powers, s in zip(self.unit_laplacians, self.scaled[pos]) if s != 0]

    def _jet_arrays(self, truncation: int):
        """By scale invariance the y^(2q) jet of s_i P_i(|xi| y) is
        s_i |xi|^(2q) times the unit profile's, and the y^(2[g]+2q) jet carries
        |xi|^(2[g]+2q): vectorized over modes, the zero mode from its atom."""
        fr = self.params.frac_gamma
        q = np.arange(truncation + 1)[:, None]
        a_scale = self.xi ** (2 * q)
        b_scale = self.xi ** (2.0 * float(fr) + 2 * q)
        a = np.zeros((truncation + 1, self.modes.size), dtype=complex)
        b = np.zeros_like(a)
        for unit, s in zip(self.units, self.scaled.T):
            ua, ub = unit.jet_arrays(truncation, fr)
            a += np.outer(ua, s) * a_scale
            b += np.outer(ub, s) * b_scale
        for pos in np.flatnonzero(self.xi == 0.0):
            self._add_atom_jets(pos, a, b)
        return a, b


def extension_field_view(sol: ExtensionSolution, active_tol: float = 1e-13) -> SolutionFieldView:
    """The extension solution on its active canonical modes."""
    weight = np.zeros(sol.xi2.size)
    for dh in sol.data_hat:
        weight = np.maximum(weight, np.abs(dh.reshape(-1)))
    scale = weight.max() + 1e-300
    active = [idx for idx in canonical_modes(sol.template) if weight[idx] > active_tol * scale]
    return SolutionFieldView(sol, sorted(active))


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
        for idx in canonical_modes(self.template):
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
        return ModeFieldView(params, self.template, atoms)


def _band_limited(template: GridField, rng, scale: float = 1.0) -> np.ndarray:
    """Seeded real field on the five lowest nonzero modes (fewer on grids that
    have fewer), with peak magnitude scale."""
    flat = np.zeros(template.values.size, dtype=complex)
    order = np.argsort(template.xi_abs2().reshape(-1))[1:6]
    flat[order] = rng.normal(size=order.size) + 1j * rng.normal(size=order.size)
    vals = np.real(np.fft.ifftn(flat.reshape(template.shape)) * flat.size)
    return scale * vals / (np.abs(vals).max() + 1e-300)


def random_two_branch_field(params: GammaParams, template: GridField,
                            seed: int) -> TwoBranchGaussField:
    """Seeded band-limited random two-branch field for symmetry tests."""
    rng = np.random.default_rng(seed)
    fl = params.floor_gamma
    a = [_band_limited(template, rng) for _ in range(fl // 2 + 2)]
    b = [_band_limited(template, rng) for _ in range(max(fl - fl // 2, 1))]
    return TwoBranchGaussField(params, template, a, b)


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


def _interior_pair(u, v, params: GammaParams, xi2: float) -> complex:
    """<Delta_m^(k/2) u, Delta_m^(k/2) v> with the gradient form for odd k.

    u and v map a power j to the atoms of (T - |xi|^2)^j applied to the field
    at this mode."""
    k = params.k
    m = float(params.m)
    au = u(k // 2)
    av = v(k // 2)
    if k % 2 == 0:
        return sum(_pair_integral(a, b, m) for a in au for b in av)
    dau = [a.d_dy() for a in au]
    dav = [a.d_dy() for a in av]
    val = sum(_pair_integral(a, b, m) for a in dau for b in dav)
    if xi2 != 0.0:  # the tangential-gradient term vanishes on the zero mode
        val += xi2 * sum(_pair_integral(a, b, m) for a in au for b in av)
    return val


def _ul_mode(u, v, params: GammaParams, xi2: float) -> complex:
    """<u, (T - |xi|^2)^k v> at one mode, the raw interior term of the form."""
    m = float(params.m)
    return sum(_pair_integral(a, b, m) for a in u(0) for b in v(params.k))


def _laplacian_powers(fn, k: int) -> list:
    """[fn, L fn, ..., L^k fn] for the weighted mode Laplacian L."""
    out = [fn]
    for _ in range(k):
        out.append(out[-1].weighted_laplacian())
    return out


@functools.lru_cache(maxsize=None)
def _unit_gram(params: GammaParams, pair) -> np.ndarray:
    """G_ij = pair(P_i, P_j, |xi| = 1) over the unit-coefficient profiles.

    With t = |xi| y the mode Laplacian is T_y - |xi|^2 = |xi|^2 (T_t - 1), so
    at |xi| > 0 the pair block of two extension solutions is
    sum_ij s_i conj(s'_j) G_ij |xi|^(2k - m - 1), and 2k - m - 1 = 2 gamma:
    one matrix per order and pairing, built by the per-mode quadrature."""
    sides = [lambda j, powers=powers: [powers[j]] for powers in _unit_laplacians(params)]
    return np.array([[pair(a, b, params, 1.0) for b in sides] for a in sides])


@functools.lru_cache(maxsize=None)
def _unit_laplacians(params: GammaParams) -> list:
    """Laplacian powers 0..k of each unit-coefficient profile of the order,
    shared by the Gram matrices of both pairings."""
    return [_laplacian_powers(_profile_atom(prof, 1.0, 1.0), params.k)
            for prof in all_profiles(params)]


def _block(u: ModeFieldView, v: ModeFieldView, pair) -> complex:
    """Plancherel sum of pair(u atoms, v atoms) over the modes both views
    carry; solution pairs at |xi| > 0 take the unit Gram route instead."""
    params = u.params
    _, iu, iv = np.intersect1d(u.modes, v.modes, assume_unique=True, return_indices=True)
    total = 0.0 + 0.0j
    if isinstance(u, SolutionFieldView) and isinstance(v, SolutionFieldView):
        scaled = u.xi2[iu] > 0.0
        su, sv = iu[scaled], iv[scaled]
        weight = u.mult[su] * u.xi[su] ** (2 * params.k - float(params.m) - 1.0)
        total += np.einsum("m,mi,ij,mj->", weight, u.scaled[su], _unit_gram(params, pair),
                           np.conj(v.scaled[sv]))
        iu, iv = iu[~scaled], iv[~scaled]
    for a, b in zip(iu, iv):
        total += u.mult[a] * pair(functools.partial(u.laplacian_atoms, a),
                                  functools.partial(v.laplacian_atoms, b), params, u.xi2[a])
    return total


def interior_energy(u: ModeFieldView, v: ModeFieldView) -> float:
    return float(np.real(_block(u, v, _interior_pair))) * _mode_weight(u.template)


def _ul_pair(u: ModeFieldView, v: ModeFieldView) -> float:
    """integral of U (-Delta_m)^k V y^m, the raw interior term of the
    quadratic form.  The sign (-1)^k makes the form positive (for odd k the
    unsigned power would flip the gradient-form identity)."""
    total = float(np.real(_block(u, v, _ul_mode)))
    return total * _mode_weight(u.template) * (-1.0) ** u.params.k


def _boundary_pairing(u: ModeFieldView, family_u, j_u, v: ModeFieldView, family_v, j_v,
                      lap_power: int = 0) -> float:
    """oint B(U) Lap^p B(V) dx via Plancherel over the modes both views carry."""
    _, iu, iv = np.intersect1d(u.modes, v.modes, assume_unique=True, return_indices=True)
    bu = u.boundary_modes(family_u, j_u)[iu]
    bv = v.boundary_modes(family_v, j_v)[iv]
    total = np.sum(u.mult[iu] * bu * (-u.xi2[iu]) ** lap_power * np.conj(bv))
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


def _record_cap_hits(report: VerificationReport, start: int):
    """Fail the report if its quadrature hit GJ_CAP since the tally read start."""
    hits = QUAD_COUNTS.cap_hits - start
    report.record(hits == 0, 0.0, f"quadrature cap hits: {hits}")


def verify_q_symmetry(params: GammaParams, u_field, v_field,
                      tol_sym: float = 1e-8, tol_consistency: float = 1e-7) -> VerificationReport:
    """|Q(U,V) - Q(V,U)| small, and Q = interior - boundary correction."""
    report = VerificationReport("q_symmetry", str(params), params.n)
    hits = QUAD_COUNTS.cap_hits
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
    _record_cap_hits(report, hits)
    return report


def zero_data_perturbation(params: GammaParams, template: GridField, seed: int,
                           scale: float = 1.0) -> TwoBranchGaussField:
    """Field with every Dirichlet boundary operator vanishing: the a branch
    starts above the even data range and the b branch above the odd range."""
    rng = np.random.default_rng(seed)
    a = [np.zeros(template.shape) for _ in range(params.n_even_data)]
    b = [np.zeros(template.shape) for _ in range(params.n_odd_data)]
    a.append(_band_limited(template, rng, scale))
    b.append(_band_limited(template, rng, scale))
    return TwoBranchGaussField(params, template, a, b)


def dirichlet_principle_check(sol: ExtensionSolution, seed: int = 0,
                              tol: float = 1e-7) -> VerificationReport:
    """Quadraticity of the energy along zero-data perturbations of the solved
    extension sol, and positivity of the perturbation energy.

    E(t) = Q(U + tW, U + tW) follows from the four blocks Q(U,U), Q(U,W),
    Q(W,U), Q(W,W); its defect from Q(U,U) + t^2 Q(W,W) is the cross term
    t [Q(U,W) + Q(W,U)] that the Dirichlet principle says vanishes."""
    params = sol.params
    report = VerificationReport("dirichlet_principle", str(params), params.n)
    hits = QUAD_COUNTS.cap_hits
    u = extension_field_view(sol)
    w_field = zero_data_perturbation(
        params, sol.template, seed, scale=0.1 * max(np.abs(f.values).max() for f in sol.data_fields))
    w = w_field.view()

    # confirm the perturbation really has zero Dirichlet data
    for family, j in dirichlet_condition_list(params):
        worst = float(np.abs(w.boundary_modes(family, j)).max(initial=0.0))
        report.record(worst <= 1e-12, worst, f"W has zero B[{family},{j}] data ({worst:.1e})")

    e_u = q_form(u, u)
    e_w = q_form(w, w)
    cross = q_form(u, w) + q_form(w, u)
    report.record(e_w > 0.0, 0.0, f"perturbation energy {e_w:.6e} > 0")

    for t in (-1.0, 0.5, 1.0, 2.0):
        e_t = e_u + t * cross + t * t * e_w
        want = e_u + t * t * e_w
        scale = abs(e_u) + abs(e_w) + 1e-30
        err = abs(e_t - want) / scale
        report.record(err <= tol, err, f"t={t}: energy defect {err:.3e}")
    _record_cap_hits(report, hits)
    return report


def energy_trace_check(sol: ExtensionSolution, seed: int = 1,
                       tol: float = 1e-6) -> VerificationReport:
    """Equality of the energy with the weighted Dirichlet-to-Neumann sums for
    the solved extension sol, strict inequality with the predicted gap after
    perturbing."""
    params = sol.params
    report = VerificationReport("energy_trace", str(params), params.n)
    hits = QUAD_COUNTS.cap_hits
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

    w_field = zero_data_perturbation(
        params, sol.template, seed, scale=0.3 * max(np.abs(f.values).max() for f in sol.data_fields))
    w = w_field.view()
    e_w = q_form(w, w)
    e_pert = e_u + q_form(u, w) + q_form(w, u) + e_w
    gap = e_pert - rhs
    err3 = abs(gap - e_w) / (abs(e_w) + 1e-30)
    report.record(err3 <= tol, err3, f"perturbation gap {gap:.6e} vs E(W) {e_w:.6e}")
    report.record(gap > 0, 0.0, "strict inequality for the perturbed field")
    _record_cap_hits(report, hits)
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

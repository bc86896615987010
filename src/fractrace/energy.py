"""Quadratic forms, trace energies, and the sharp-inequality test bench.

All interior quantities are assembled per Fourier mode of the boundary grid:
the x integral is Plancherel-exact on the periodic box, and only the y
integral remains.  The modes are the entries of the rfftn half spectrum with
a nonzero GridField.pair_weights, one per +-xi pair, each summed with its
pair weight.  Per-mode profiles are polynomial-times-Gaussian series with
exact rational coefficients (synthetic test fields), or Bessel-type
(extension solutions): a lam = 0 float series plus a Bessel chain.  Both
expose symbolic application of the weighted mode Laplacian T - |xi|^2,
branch-split evaluation for small y and direct evaluation elsewhere.
Boundary values are read off two-branch jets, vectorized over modes, which
each view takes from where its field is defined: the solver's per-profile
jet terms, or a synthetic field's coefficient transforms.

Two synthetic atoms pair in closed form, by integral_0^inf y^(2b-1)
exp(-lam y^2) dy = Gamma(b)/(2 lam^b): each branch-class pair is a sum of
Pochhammer-weighted coefficient products, exact in integers and rounded
once (_gauss_pair).  Every pair of q_symmetry and the W-W blocks of the
energy checks go this way.  Quadrature remains only where a Bessel chain is
involved: the unit Gram matrices and the solution-synthetic cross terms.

The mode Laplacian is homogeneous: with t = |xi| y, T_y - |xi|^2 =
|xi|^2 (T_t - 1).  An extension solution is sum_i s_i P_i(|xi| y) at every
mode, with the same k unit-coefficient profiles P_i, so each solution-solution
block (the interior form and the U L^k U term of the quadratic form) is one
k x k Gram matrix per order, computed once at |xi| = 1, times a power of |xi|.
Per-mode quadrature remains for cross terms with synthetic fields.  There the
solution's atoms of (T - |xi|^2)^j U are rescaled copies of (T_t - 1)^j P_i,
which the exact rational chain algebra builds once per view: the y^p series
coefficient gains s_i |xi|^(p + 2j), the Bessel chain prefactor
s_i |xi|^(2j).  The zero mode, where every contribution is exactly zero, is
left out (see extension_field_view).

The y quadrature works on two lists of atoms at one |xi| at a time
(_pair_matrix), so each atom is evaluated once per node set for all its
pairs.  Below the series limits each side's terms fall into classes by
exponent mod 1, each y^anchor times a polynomial in y, and a pair of classes
is one integral by the Gauss-Jacobi rule whose weight exponent is the two
anchors plus m; the class pairs of one exponent share the rule's node sets
as one matrix product.  The smooth outer region is cut into geometric
panels, each one integral per atom pair by the exponent-0 (Gauss-Legendre)
rule mapped to it, again as one product.  Every integral doubles its nodes
until |I_n - I_(n/2)| <= 1e-9 (|I_n| + integral of |f|), the integral of
|f| taken on the same nodes: a cancelling integrand then stops at its
roundoff floor instead of running to the node cap.  One whose integral of
|f| is below the smallest normal float has converged: on a huge box
(--box 1e50 and up) some cross terms are subnormal, 1e-312 and smaller,
where a relative test cannot be met and nothing is left to resolve.  That
is the chosen route, rather than a bound on --box.  QUAD_COUNTS tallies
integrals, nodes and cap hits; the energy checks fail on a cap hit of their
own.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratmap
from .besselk import bessel_k
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
ACTIVE_TOL = 1e-13   # a mode is active above this share of the largest coefficient
Q_CONSISTENCY_TOL = 1e-7   # Q against interior minus boundary correction, in verify_q_symmetry


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


class _SeriesModeFn:
    """Float terms {P: c}, meaning c y^(P/D) exp(-lam y^2), keyed by integer
    numerators over the exponent denominator D: what both atom kinds share."""

    lam = 0.0

    def eval_series(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=complex)
        for p, c in self.terms.items():
            out += c * y ** (p / self.D)
        return out * np.exp(-self.lam * y * y) if self.lam else out


class PolyGaussModeFn(_SeriesModeFn):
    """Synthetic per-mode function sum_P c_P y^(P/D) exp(-lam y^2), lam > 0,
    with exact coefficients.

    A binary float is a dyadic rational, so the constructor takes |xi|^2, lam
    and the complex coefficients exactly: xi2 and rate (lam) as Fractions,
    the coefficients as integer numerators nums over one denominator den
    (ratmap's layout), keyed (P, 0) for the real part and (P, 1) for the
    imaginary part.  The mode Laplacian and d/dy run in integers.  terms holds
    each coefficient rounded once, for evaluation and for quadrature against
    Bessel atoms; two of these atoms pair in closed form (_gauss_pair)."""

    def __init__(self, xi2: float, m: Fraction, lam: float, terms: dict):
        D = _key_denominator(terms)
        ratios = {(_numerator(p, D), part): x.as_integer_ratio()
                  for p, c in terms.items() for part, x in enumerate((c.real, c.imag))}
        den = math.lcm(*(q for _, q in ratios.values()))
        self.nums, self.den = ratmap.canonical({key: a * (den // q) for key, (a, q) in ratios.items()},
                                               den)
        self.xi2, self.m, self.rate, self.D = Fraction(xi2), Fraction(m), Fraction(lam), D
        self.lam = float(lam)

    def _new(self, nums: dict, den: int) -> "PolyGaussModeFn":
        out = object.__new__(PolyGaussModeFn)
        out.xi2, out.m, out.rate, out.D, out.lam = self.xi2, self.m, self.rate, self.D, self.lam
        out.nums, out.den = ratmap.canonical(nums, den)
        return out

    @functools.cached_property
    def _parts(self) -> dict:
        """{P: [real numerator, imaginary numerator]}."""
        out = {}
        for (p, part), c in self.nums.items():
            out.setdefault(p, [0, 0])[part] = c
        return out

    @functools.cached_property
    def terms(self) -> dict:
        """{P: complex}, each part its exact numerator over den rounded once."""
        return {p: complex(re / self.den, im / self.den) for p, (re, im) in self._parts.items()}

    series_limit = np.inf

    @property
    def outer_limit(self) -> float:
        """Where y^p exp(-lam y^2) drops below ~1e-20 of scale for the largest
        power present; the polynomial factor matters once operator
        applications have piled up high powers."""
        p_max = max(self.terms) / self.D if self.terms else 0.0
        return math.sqrt((46.0 + 3.0 * p_max) / self.lam)

    def weighted_laplacian(self) -> "PolyGaussModeFn":
        """T_y - |xi|^2 by the power rule T y^p = p (p - 1 + m) y^(p-2) and the
        Gaussian's product rule,
        T (y^p g) = (p (p - 1 + m) y^(p-2) - 2 lam (2p + 1 + m) y^p + 4 lam^2 y^(p+2)) g,
        every factor over the common denominator D^2 mq lq^2 xq."""
        D = self.D
        (mp, mq), (lp, lq), (xp, xq) = (ratmap.ratio(r) for r in (self.m, self.rate, self.xi2))
        low, mid, high = lq * lq * xq, D * (2 * lp * lq * xq), 4 * lp * lp * D * D * mq * xq
        shift = xp * D * D * mq * lq * lq
        out, factors = {}, {}
        for (p, part), c in self.nums.items():
            if p not in factors:
                factors[p] = (p * ((p - D) * mq + mp * D) * low,   # 0 at branch bottoms
                              -(mid * ((2 * p + D) * mq + mp * D) + shift))
            down, same = factors[p]
            key = p - 2 * D, part
            out[key] = out.get(key, 0) + c * down
            key = p, part
            out[key] = out.get(key, 0) + c * same
            key = p + 2 * D, part
            out[key] = out.get(key, 0) + c * high
        return self._new(out, self.den * D * D * mq * lq * lq * xq)

    def d_dy(self) -> "PolyGaussModeFn":
        """d/dy (y^p g) = p y^(p-1) g - 2 lam y^(p+1) g, over D lq."""
        D, (lp, lq) = self.D, ratmap.ratio(self.rate)
        out = {}
        for (p, part), c in self.nums.items():
            for key, v in (((p - D, part), c * p * lq), ((p + D, part), -c * 2 * lp * D)):
                out[key] = out.get(key, 0) + v
        return self._new(out, self.den * D * lq)

    @functools.cached_property
    def exact_classes(self) -> dict:
        """{P_min: (real, imaginary)}, each an object array of the integer
        numerators over den of the class's (y^2)^k, dense in k."""
        out = {}
        for low, group in _group_by_class(self._parts, self.D).items():
            arrays = np.zeros((2, max(k for k, _ in group) + 1), dtype=object)
            for k, c in group:
                arrays[:, k] = c
            out[low] = arrays
        return out

    eval_outer = _SeriesModeFn.eval_series


class BesselModeFn(_SeriesModeFn):
    """Per-mode function: a lam = 0 series (valid t = xi y < switchover) plus
    one Bessel-kernel chain for larger y.

    terms: {P: complex coeff}, meaning coeff y^(P/D), already in the y variable.
    chain: None once it has cancelled, else (nu: Fraction, prefactor: complex,
                                              {(A, d in {0,1}): Fraction coeff})
    meaning prefactor * sum coeff (xi y)^(A/D) K_(nu-d)(xi y).  Exponents are
    keyed by integer numerators over the exponent denominator D; the
    constructor takes them as rationals.  Chain coefficients stay exact
    rationals so that kernel membership cancels exactly under repeated
    operator application (float coefficients would leave residue amplified
    by nu-sized factors at every step).
    """

    def __init__(self, xi: float, m: Fraction, terms: dict, chain: tuple):
        nu, pre, ch = chain
        D = _key_denominator([*terms, *(a for a, _ in ch)])
        self._set(xi, Fraction(m), D, {_numerator(p, D): c for p, c in terms.items()},
                  (nu, pre, {(_numerator(a, D), d): c for (a, d), c in ch.items()}))

    def _set(self, xi, m, D, terms, chain=None):
        self.xi, self.m, self.D = xi, m, D
        self.terms = {p: c for p, c in terms.items() if c != 0}
        nu, pre, ch = chain or (None, 0, {})
        ch = {key: c for key, c in ch.items() if c != 0}
        self.chain = (nu, pre, ch) if ch and pre != 0 else None

    def _new(self, terms, xi, chain=None) -> "BesselModeFn":
        out = object.__new__(BesselModeFn)
        out._set(xi, self.m, self.D, terms, chain)
        return out

    @property
    def series_limit(self) -> float:
        return T_SERIES / self.xi

    @property
    def outer_limit(self) -> float:
        return T_MAX / self.xi

    def _derived(self, terms: dict, xi: float, scale, chain_op) -> "BesselModeFn":
        """These series terms at xi, with the chain's prefactor times scale and
        its terms mapped by chain_op(nu, terms)."""
        if self.chain is None:
            return self._new(terms, xi)
        nu, pre, ch = self.chain
        return self._new(terms, xi, chain=(nu, pre * scale, chain_op(nu, ch)))

    def _chain_ddt(self, nu: Fraction, terms: dict) -> dict:
        """One t derivative on a chain by DLMF 10.29.2:
        (t^A K_nu)' = (A - nu) t^(A-1) K_nu - t^A K_(nu-1) and
        (t^A K_(nu-1))' = (A + nu - 1) t^(A-1) K_(nu-1) - t^A K_nu."""
        D = self.D
        p, q = nu.numerator, nu.denominator
        out = Counter()
        for (a, d), c in terms.items():
            shift = a * q - p * D if d == 0 else a * q + (p - q) * D   # the shift times D q
            out[a - D, d] += Fraction(c.numerator * shift, c.denominator * D * q)
            out[a, 1 - d] -= c
        return out

    def _chain_laplacian(self, nu: Fraction, terms: dict) -> dict:
        """T_t - 1 = d^2/dt^2 + (m/t) d/dt - 1 on a chain."""
        d1 = self._chain_ddt(nu, terms)
        out = self._chain_ddt(nu, d1)
        for (a, d), c in d1.items():
            out[a - self.D, d] += self.m * c
        for key, c in terms.items():
            out[key] -= c
        return out

    def weighted_laplacian(self) -> "BesselModeFn":
        """T_y - xi^2: the power rule T y^p = p (p - 1 + m) y^(p-2) on the
        series, and xi^2 (T_t - 1) on the chain, a function of t = xi y."""
        xi2 = self.xi * self.xi
        D, (mp, mq) = self.D, (self.m.numerator, self.m.denominator)
        out = {}

        def add(p, v):
            if v != 0:
                out[p] = out.get(p, 0.0) + v

        for p, c in self.terms.items():
            w = p * ((p - D) * mq + mp * D)   # p (p - 1 + m) D^2 mq, exact; vanishes at branch bottoms
            if w != 0:
                add(p - 2 * D, c * (w / (D * D * mq)))
            add(p, -c * xi2)
        return self._derived(out, self.xi, xi2, self._chain_laplacian)

    def d_dy(self) -> "BesselModeFn":
        D = self.D
        out = {}
        for p, c in self.terms.items():
            if p != 0:
                out[p - D] = out.get(p - D, 0.0) + c * (p / D)
        return self._derived(out, self.xi, self.xi, self._chain_ddt)

    def rescaled(self, xi: float, s: complex, j: int) -> "BesselModeFn":
        """s |xi|^(2j) F(|xi| y) for this function F of t at |xi| = 1.

        With F = (T_t - 1)^j P this is (T_y - |xi|^2)^j applied to s P(|xi| y):
        the series coefficient of y^p gains s |xi|^(p + 2j), the chain
        prefactor s |xi|^(2j), and the chain terms are unchanged."""
        D = self.D
        terms = {p: c * (s * xi ** (p / D + 2 * j)) for p, c in self.terms.items()}
        return self._derived(terms, xi, s * xi ** (2 * j), lambda nu, ch: ch)

    def eval_outer(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(y.shape, dtype=complex)
        if self.chain is None:
            return out
        t = self.xi * y
        nu, pre, terms = self.chain
        kernels = bessel_k(float(nu), t), bessel_k(float(nu - 1), t)
        for (a, d), c in terms.items():
            out += pre * float(c) * t ** (a / self.D) * kernels[d]
        return out


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


def _gauss_pair(u: PolyGaussModeFn, v: PolyGaussModeFn) -> complex:
    """integral_0^inf u(y) conj(v(y)) y^m dy for two synthetic atoms, in closed
    form.

    A branch-class pair of minima P0/D_u, Q0/D_v gives the integrand
    y^(2 b0 - 1) sum_n s_n y^(2n) exp(-lam y^2), with b0 = (P0/D_u + Q0/D_v
    + m + 1)/2, lam = lam_u + lam_v and s_n = sum_(i+j=n) c_i conj(d_j).  By
    integral_0^inf y^(2b-1) exp(-lam y^2) dy = Gamma(b)/(2 lam^b) (DLMF 5.9.1)
    it is Gamma(b0)/(2 lam^b0) sum_n s_n (b0)_n / lam^n.  The sum is exact in
    integers and rounded once, and one math.gamma call serves the class pair.
    b0 >= {gamma} > 0: the lowest exponents are 0 and 2{gamma} - 1 (after
    d/dy), and m = 1 - 2{gamma}."""
    lp, lq = ratmap.ratio(u.rate + v.rate)
    mp, mq = ratmap.ratio(u.m)
    du, dv = u.D, v.D
    total = 0j
    for pu, (ar, ai) in u.exact_classes.items():
        for pv, (br, bi) in v.exact_classes.items():
            # b0 = bp/bq; (b0)_n / lam^n = weights[n] / (bq lp)^top
            bp, bq = (pu * dv + pv * du) * mq + (mp + mq) * du * dv, 2 * du * dv * mq
            g = math.gcd(bp, bq)
            bp, bq = bp // g, bq // g
            top = ar.size + br.size - 2
            weights = np.empty(top + 1, dtype=object)
            weights[top] = 1
            for n in range(top, 0, -1):
                weights[n - 1] = weights[n] * bq * lp
            poch = 1
            for n in range(1, top + 1):
                poch *= (bp + (n - 1) * bq) * lq
                weights[n] *= poch
            wr, wi = np.correlate(weights, br), np.correlate(weights, bi)   # sum_j weights[i + j] b_j
            re = ar @ wr + ai @ wi
            im = ai @ wr - ar @ wi
            den = (bq * lp) ** top * u.den * v.den
            scale = math.gamma(bp / bq) / (2.0 * (lp / lq) ** (bp / bq))
            total += scale * complex(re / den, im / den)
    return total


def _pair_matrix(us: list, vs: list) -> np.ndarray:
    """[integral_0^inf u_i(y) conj(v_j(y)) y^m dy] over two lists of atoms at
    one |xi|: in closed form where both atoms are synthetic, else by batched
    quadrature."""
    out = np.zeros((len(us), len(vs)), dtype=complex)
    closed = np.array([[isinstance(a, PolyGaussModeFn) and isinstance(b, PolyGaussModeFn)
                        for b in vs] for a in us], dtype=bool).reshape(out.shape)
    for i, j in zip(*np.nonzero(closed)):
        out[i, j] = _gauss_pair(us[i], vs[j])
    if not closed.all():
        out[~closed] = _quadrature_matrix(us, vs, ~closed)[~closed]
    return out


def _quadrature_matrix(us: list, vs: list, members: np.ndarray) -> np.ndarray:
    """The pair integrals at the entries members marks, by quadrature on the
    float terms over [0, min(max_i outer_u, max_j outer_v)], which holds
    every pair's own range: below the series limits by exponent class
    (_inner_matrix), above on geometric panels, one integral per atom pair
    and panel.  Every atom is evaluated once per node set."""
    m = float(us[0].m)
    outer = min(max(a.outer_limit for a in us), max(b.outer_limit for b in vs))
    split = min(*(a.series_limit for a in us), *(b.series_limit for b in vs), outer)
    total = _inner_matrix(us, vs, members, split, m)
    if outer > split * (1.0 + 1e-12):
        def values(atoms, y):
            return np.array([a.eval_outer(y) if y[0] >= a.series_limit else a.eval_series(y)
                             for a in atoms])

        total += _adaptive_gl(lambda y: values(us, y), lambda y: np.conj(values(vs, y)) * y ** m,
                              split, outer, members)
    return total


def _exponent_classes(atoms: list, conj: bool) -> list:
    """The series terms of the atoms, in classes by exponent mod 1 over the
    list: per class (anchor, C, lam, has), anchor the least exponent of the
    class (a Fraction) and C[i, j] atom i's coefficient of y^(anchor + j),
    so each row is y^anchor times a polynomial in y.  has[i] says atom i has
    a term in the class, and lam holds each atom's lam, for its
    exp(-lam y^2).  Exponents are integer numerators over the lcm L of the
    atoms' denominators, so every offset j is exact."""
    L = math.lcm(*(a.D for a in atoms))
    classes = {}
    for i, a in enumerate(atoms):
        for p, c in a.terms.items():
            q = p * (L // a.D)
            classes.setdefault(q % L, []).append((i, q, np.conj(c) if conj else c))
    lam = np.array([a.lam for a in atoms])
    out = []
    for group in classes.values():
        anchor = min(q for _, q, _ in group)
        coeffs = np.zeros((len(atoms), (max(q for _, q, _ in group) - anchor) // L + 1), dtype=complex)
        has = np.zeros(len(atoms), dtype=bool)
        for i, q, c in group:
            coeffs[i, (q - anchor) // L] = c
            has[i] = True
        out.append((Fraction(anchor, L), coeffs, lam, has))
    return out


def _class_values(coeffs: np.ndarray, lam: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of coeffs as a polynomial in y on y, times exp(-lam y^2)."""
    f = coeffs @ y ** np.arange(coeffs.shape[1])[:, None]
    return f * np.exp(-lam[:, None] * (y * y)) if lam.any() else f


def _inner_matrix(us: list, vs: list, members: np.ndarray, split: float, m: float) -> np.ndarray:
    """The inner region [0, split].  Each exponent-class pair of each atom
    pair (_exponent_classes) is one integral, by the Gauss-Jacobi rule of
    exponent beta = the two anchors plus m, its smooth factor the product of
    the two polynomials in y.  The class pairs of one beta share its node
    sets: their classes stack into one product, whose diagonal blocks are
    their integrals."""
    right = _exponent_classes(vs, conj=True)
    groups = {}
    for anchor_u, *cu in _exponent_classes(us, conj=False):
        for anchor_v, *cv in right:
            groups.setdefault(anchor_u + anchor_v, []).append((cu, cv))
    nu, nv = members.shape
    out = np.zeros(members.shape, dtype=complex)
    for beta, pairs in groups.items():
        size = len(pairs)
        mask = np.zeros((size, nu, size, nv), dtype=bool)
        for p, ((_, _, has_u), (_, _, has_v)) in enumerate(pairs):
            mask[p, :, p, :] = members & np.outer(has_u, has_v)

        def side(y, s):
            return np.concatenate([_class_values(*pair[s][:2], y) for pair in pairs])

        vals = _adaptive_gj(functools.partial(side, s=0), functools.partial(side, s=1), 0.0, split,
                            float(beta) + m, mask.reshape(size * nu, size * nv))
        out += np.einsum("pipj->ij", vals.reshape(size, nu, size, nv))
    return out


class _QuadCounts:
    """Process-wide quadrature tallies: integrals run, integrand nodes
    evaluated, and integrals stopped at GJ_CAP unconverged.  Checks run one
    at a time, so the difference around a check is its own count."""

    integrals = 0
    nodes = 0
    cap_hits = 0


QUAD_COUNTS = _QuadCounts()


TINY = np.finfo(float).tiny


def _adaptive(rule, members: np.ndarray) -> np.ndarray:
    """The integrals at the entries members marks, each by doubling the node
    count n from GJ_START until |I_n - I_(n/2)| <= QUAD_REL_TOL (|I_n| + A_n),
    where rule(n) returns the matrices I_n and A_n, the integral of |f| on the
    same nodes and weights.  The A_n term bounds the roundoff of a cancelling
    integrand, which a purely relative rule would chase to the cap.  Every
    member stops on its own test and keeps its I_n from there; the batch
    doubles while any is open.  A member whose A_n is below the smallest
    normal float has converged: a subnormal integrand cannot meet a relative
    test, and it is below every other term's roundoff.  Each member still
    open at GJ_CAP counts a cap hit."""
    counts = QUAD_COUNTS
    counts.integrals += int(members.sum())
    out = np.zeros(members.shape, dtype=complex)
    active = members.copy()
    prev, n = None, GJ_START
    while active.any():
        val, mass = rule(n)
        counts.nodes += n * int(active.sum())
        if prev is not None:
            done = active & ((np.abs(val - prev) <= QUAD_REL_TOL * (np.abs(val) + mass))
                             | (mass < TINY))
            out[done] = val[done]
            active &= ~done
        if n >= GJ_CAP and active.any():
            counts.cap_hits += int(active.sum())
            out[active] = val[active]
            break
        prev, n = val, 2 * n
    return out


def _adaptive_gj(left, right, lo: float, hi: float, beta: float, members) -> np.ndarray:
    """[integral_lo^hi (y - lo)^beta l_a(y) r_b(y) dy] over the rows l_a of
    left(y) and r_b of right(y), by the Gauss-Jacobi rule mapped to [lo, hi]:
    one product (l w) @ r^T per node set."""
    width = hi - lo
    scale = width ** (beta + 1.0)

    def rule(n):
        uu, w = _gauss_jacobi_01(n, beta)
        y = lo + width * uu
        fl, fr = left(y) * (scale * w), right(y)
        return fl @ fr.T, np.abs(fl) @ np.abs(fr).T

    return _adaptive(rule, members)


def _adaptive_gl(left, right, lo: float, hi: float, members) -> np.ndarray:
    """[integral_lo^hi l_a(y) r_b(y) dy] on geometric panels, each by the
    mapped exponent-0 rule: the integrands decay exponentially."""
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(hi, edges[-1] * 2.5 + 1.0))
    total = np.zeros(members.shape, dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        total += _adaptive_gj(left, right, a, b, 0.0, members)
    return total


# ---------------------------------------------------------------------------
# Mode-level field views
# ---------------------------------------------------------------------------


class ModeFieldView:
    """A real boundary-periodic field presented as per-mode profile functions
    on its active modes, with its two-branch boundary jets and Plancherel
    weights.

    modes lists the active flat indices of the rfftn half spectrum with a
    nonzero GridField.pair_weights, in ascending order; weight (those pair
    weights), xi2, the columns of jets (orders 0..[g] of each branch) and
    the arrays boundary_modes returns are aligned with it, and atoms holds
    each mode's list of profile functions."""

    def __init__(self, params: GammaParams, template: GridField, modes, jets: NumericJets,
                 atoms):
        self.params = params
        self.template = template
        self.modes = np.asarray(modes, dtype=np.int64)
        self.weight = template.pair_weights().reshape(-1)[self.modes]
        self.xi2 = template.xi_abs2().reshape(-1)[self.modes]
        self.jets = jets
        self._atoms = atoms
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

    def boundary_modes(self, family: str, j: int) -> np.ndarray:
        """B[family, j] of the field on each mode, computed once per view."""
        key = (family, j)
        if key not in self._boundary:
            self._boundary[key] = self.jets.apply_boundary(family, j, self.xi2)
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
    return BesselModeFn(xi, prof.params.m, series,
                        (prof.nu, chain_coeff, {(prof.params.gamma, 0): Fraction(1)}))


class SolutionFieldView(ModeFieldView):
    """An extension solution on its active modes with |xi| > 0.

    There the solution is U(y) = sum_i s_i P_i(|xi| y) with
    s_i = c_i |xi|^(-lead_i), where the P_i are the unit-coefficient profiles
    at |xi| = 1 (units, from the solution's own profiles) and c_i the solved
    coefficients.  (T - |xi|^2)^j U is sum_i s_i |xi|^(2j) [(T_t - 1)^j P_i](|xi| y),
    so the exact operator algebra runs once per unit and power
    (unit_laplacians) and every mode's atoms are rescaled copies, built only
    for the modes that ask.  The jets are the solver's own on the view's
    modes, so a profile changed after the solve reaches the atoms and the
    boundary values alike."""

    def __init__(self, sol: ExtensionSolution, modes):
        self.sol = sol
        self.coeffs = sol.coeffs[modes]
        self.xi = sol.xi_abs.reshape(-1)[modes]
        super().__init__(sol.params, sol.template, modes, sol.solution_jets(modes), None)
        self.units = [_profile_atom(prof, 1.0, 1.0) for prof in sol.profiles]
        lead = np.array([float(prof.lead_exponent) for prof in sol.profiles])
        self.scaled = self.coeffs * self.xi[:, None] ** -lead

    @functools.cached_property
    def unit_laplacians(self) -> list:
        """[P, (T_t - 1) P, ..., (T_t - 1)^k P] for each unit P."""
        return [_laplacian_powers(unit, self.params.k) for unit in self.units]

    def atoms(self, pos: int) -> list:
        return self.laplacian_atoms(pos, 0)

    def laplacian_atoms(self, pos: int, j: int) -> list:
        xi = float(self.xi[pos])
        return [powers[j].rescaled(xi, s, j)
                for powers, s in zip(self.unit_laplacians, self.scaled[pos]) if s != 0]


def _active_modes(template: GridField, hats) -> np.ndarray:
    """The half-spectrum flat indices of nonzero pair weight, ascending,
    where some of the half-spectrum coefficient arrays hats exceeds
    ACTIVE_TOL of the largest magnitude any of them has."""
    paired = template.pair_weights().reshape(-1) > 0
    size = np.zeros(paired.size)
    for h in hats:
        size = np.maximum(size, np.abs(h.reshape(-1)))
    return np.flatnonzero(paired & (size > ACTIVE_TOL * (size.max() + 1e-300)))


def extension_field_view(sol: ExtensionSolution) -> SolutionFieldView:
    """The extension solution on its active modes but xi = 0.
    There it is sum_q a_q y^(2q) + b_q y^(2[g]+2q), which L^ceil(k/2)
    annihilates and d/dy L^floor(k/2) kills; each boundary pairing of q_form
    reads one side past its data slots, and boundary_correction weighs it
    with (-|xi|^2)^p, p >= 1: every contribution is exactly zero."""
    modes = _active_modes(sol.template, sol.data_hat)
    return SolutionFieldView(sol, modes[modes != 0])


def _two_branch_gauss_view(params: GammaParams, template: GridField, a_coeffs,
                           b_coeffs) -> ModeFieldView:
    """Synthetic test field sum_q (a_q y^(2q) + b_q y^(2[g]+2q)) exp(-y^2) for
    real boundary fields a_q, b_q, on its active modes.  Order tau of a
    branch's jet is sum_q hat_q times the Gaussian's Taylor weight
    (-1)^i / i!, i = tau - q >= 0."""
    hats = [[template.like(c).fft().reshape(-1) for c in coeffs] for coeffs in (a_coeffs, b_coeffs)]
    modes = _active_modes(template, hats[0] + hats[1])
    hats_a, hats_b = ([h[modes] for h in group] for group in hats)
    xi2 = template.xi_abs2().reshape(-1)[modes]
    fr2 = 2 * params.frac_gamma   # never an even integer, so no b exponent is an a exponent
    atoms = []
    for pos in range(modes.size):
        terms = {Fraction(2 * q): h[pos] for q, h in enumerate(hats_a) if h[pos] != 0}
        terms.update({fr2 + 2 * q: h[pos] for q, h in enumerate(hats_b) if h[pos] != 0})
        atoms.append([PolyGaussModeFn(xi2[pos], params.m, 1.0, terms)])

    def order(hats, tau):
        out = np.zeros(modes.size, dtype=complex)
        for q, h in enumerate(hats[:tau + 1]):
            out += h * (-1.0) ** (tau - q) / math.factorial(tau - q)
        return out

    fl = params.floor_gamma
    jets = NumericJets(fl, float(params.frac_gamma),
                       *([order(hats, tau) for tau in range(fl + 1)] for hats in (hats_a, hats_b)))
    return ModeFieldView(params, template, modes, jets, atoms)


def _band_limited(template: GridField, rng, scale: float = 1.0) -> np.ndarray:
    """Seeded real field on the five lowest nonzero modes of the full
    spectrum (fewer on grids that have fewer), with peak magnitude scale.
    Ties in |xi| go to the lower flat index: the sort is stable, so the
    choice does not depend on which SIMD path numpy dispatches to."""
    axes = [2.0 * np.pi * np.fft.fftfreq(s) * s / template.box_length for s in template.shape]
    flat = np.zeros(template.values.size, dtype=complex)
    order = np.argsort(sum(k ** 2 for k in np.ix_(*axes)).reshape(-1), kind="stable")[1:6]
    flat[order] = rng.normal(size=order.size) + 1j * rng.normal(size=order.size)
    vals = np.real(np.fft.ifftn(flat.reshape(template.shape)) * flat.size)
    return scale * vals / (np.abs(vals).max() + 1e-300)


def random_two_branch_field(params: GammaParams, template: GridField,
                            seed: int) -> ModeFieldView:
    """Seeded band-limited random two-branch field for symmetry tests."""
    rng = np.random.default_rng(seed)
    fl = params.floor_gamma
    a = [_band_limited(template, rng) for _ in range(fl // 2 + 2)]
    b = [_band_limited(template, rng) for _ in range(max(fl - fl // 2, 1))]
    return _two_branch_gauss_view(params, template, a, b)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


def _mode_weight(template: GridField) -> float:
    return template.box_length ** template.n


def _interior_pair(u, v, params: GammaParams, xi2: float) -> np.ndarray:
    """<Delta_m^(k/2) u_a, Delta_m^(k/2) v_b> with the gradient form for odd
    k, over the atoms a of u and b of v.

    u and v map a power j to the atoms of (T - |xi|^2)^j applied to the field
    at this mode."""
    k = params.k
    au = u(k // 2)
    av = v(k // 2)
    if k % 2 == 0:
        return _pair_matrix(au, av)
    return (_pair_matrix([a.d_dy() for a in au], [b.d_dy() for b in av])
            + xi2 * _pair_matrix(au, av))


def _ul_mode(u, v, params: GammaParams, xi2: float) -> np.ndarray:
    """<u_a, (T - |xi|^2)^k v_b> at one mode over the atoms a and b, the raw
    interior term of the form."""
    return _pair_matrix(u(0), v(params.k))


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
    one matrix per order and pairing, built by one call of the per-mode
    quadrature over all unit profiles."""
    side = [list(atoms) for atoms in zip(*_unit_laplacians(params))].__getitem__
    return pair(side, side, params, 1.0)


@functools.lru_cache(maxsize=None)
def _unit_laplacians(params: GammaParams) -> list:
    """Laplacian powers 0..k of each unit-coefficient profile of the order,
    shared by the Gram matrices of both pairings."""
    return [_laplacian_powers(_profile_atom(prof, 1.0, 1.0), params.k)
            for prof in all_profiles(params)]


def _block(u: ModeFieldView, v: ModeFieldView, pair) -> complex:
    """Plancherel sum of pair(u atoms, v atoms) over the modes both views
    carry; a pair of solution views takes the unit Gram route instead."""
    params = u.params
    _, iu, iv = np.intersect1d(u.modes, v.modes, assume_unique=True, return_indices=True)
    if isinstance(u, SolutionFieldView) and isinstance(v, SolutionFieldView):
        weight = u.weight[iu] * u.xi[iu] ** (2 * params.k - float(params.m) - 1.0)
        return np.einsum("m,mi,ij,mj->", weight, u.scaled[iu], _unit_gram(params, pair),
                         np.conj(v.scaled[iv]))
    total = 0.0 + 0.0j
    for a, b in zip(iu, iv):
        total += u.weight[a] * pair(functools.partial(u.laplacian_atoms, a),
                                    functools.partial(v.laplacian_atoms, b), params, u.xi2[a]).sum()
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
    total = np.sum(u.weight[iu] * bu * (-u.xi2[iu]) ** lap_power * np.conj(bv))
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
    weight = sol.template.pair_weights()
    total = 0.0
    for row, (family, j) in enumerate(sol.conds):
        dh = sol.data_hat[row]
        if family == "even":
            const = dtn_constant_even(params, j).value(params.frac_gamma)
            power = g - 2 * j
        else:
            const = dtn_constant_odd(params, j).value(params.frac_gamma)
            power = fl - fr - 2 * j
        total += const * float(np.sum(weight * np.abs(dh) ** 2 * sol.xi2 ** power))
    return total * _mode_weight(sol.template)


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def _record_cap_hits(report: VerificationReport, start: int):
    """Fail the report if its quadrature hit GJ_CAP since the tally read start."""
    hits = QUAD_COUNTS.cap_hits - start
    report.record(hits == 0, 0.0, f"quadrature cap hits: {hits}")


def verify_q_symmetry(params: GammaParams, u: ModeFieldView, v: ModeFieldView,
                      tol_sym: float = 1e-8) -> VerificationReport:
    """|Q(U,V) - Q(V,U)| small, and Q = interior - boundary correction."""
    report = VerificationReport("q_symmetry", str(params), params.n)
    quv = q_form(u, v)
    qvu = q_form(v, u)
    scale = abs(quv) + 1.0
    err = abs(quv - qvu) / scale
    report.record(err <= tol_sym, err, f"symmetry defect {err:.3e}")
    inter = interior_energy(u, v)
    corr = boundary_correction(u, v)
    scale2 = abs(quv) + abs(inter) + 1.0
    err2 = abs(quv - (inter - corr)) / scale2
    report.record(err2 <= Q_CONSISTENCY_TOL, err2,
                  f"Q vs interior-minus-correction defect {err2:.3e}")
    return report


def zero_data_perturbation(params: GammaParams, template: GridField, seed: int,
                           scale: float = 1.0) -> ModeFieldView:
    """Field with every Dirichlet boundary operator vanishing: the a branch
    starts above the even data range and the b branch above the odd range."""
    rng = np.random.default_rng(seed)
    a = [np.zeros(template.shape) for _ in range(params.n_even_data)]
    b = [np.zeros(template.shape) for _ in range(params.n_odd_data)]
    a.append(_band_limited(template, rng, scale))
    b.append(_band_limited(template, rng, scale))
    return _two_branch_gauss_view(params, template, a, b)


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
    w = zero_data_perturbation(
        params, sol.template, seed, scale=0.1 * max(np.abs(f.values).max() for f in sol.data_fields))

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

    w = zero_data_perturbation(
        params, sol.template, seed, scale=0.3 * max(np.abs(f.values).max() for f in sol.data_fields))
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
    """Extremal profile (eps + |x - xi0|^2)^(-(n - 2 gt)/2), centred at the
    origin of R^n unless xi0 says otherwise."""

    n: int
    gamma_tilde: float
    epsilon: float = 1.0
    xi0: tuple = None

    def __post_init__(self):
        if self.xi0 is None:
            self.xi0 = (0.0,) * self.n
        if self.epsilon <= 0:
            raise ValueError("bubble requires epsilon > 0")
        if self.n <= 2 * self.gamma_tilde:
            raise ValueError("bubble requires n > 2 gamma_tilde")

    def evaluate(self, template: GridField, rows: slice, out: np.ndarray):
        """Write the profile at template's grid points whose first index is in
        rows into out, in place: |x - xi0|^2 axis by axis, plus eps, to the
        power."""
        axes = template.axes()
        axes[0] = axes[0][rows]
        out.fill(0.0)
        for x, c in zip(np.ix_(*axes), self.xi0, strict=True):
            out += (x - c) ** 2
        out += self.epsilon
        out **= -(self.n - 2.0 * self.gamma_tilde) / 2.0


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


BLOCK_POINTS = 1 << 14   # grid points per block of SobolevQuotient's pass


class SobolevQuotient:
    """R = oint f (-Lap)^gt f / (S ||f||_p^2), p = 2n/(n - 2 gt), on one grid,
    for a bubble and for the bubble plus each of some Gaussian bumps.

    Two arrays of grid size are held: the symbol |xi|^(2 gt) on the rfftn
    half spectrum, times each entry's pair weight and the box volume, and one
    half spectrum F for the bubble.  The only other one ever made is the pair
    weights, while the symbol is built.  A call makes one
    pass over blocks of rows of the leading axis (the whole axis at n = 1).
    Each block evaluates the bubble in place, adds its share of sum |f|^p for
    the bubble and for every perturbed field, and writes its rfft along the
    last axis into F; np.fft.fft then runs over the leading axes in place.
    That is rfftn's route, not GridField.fft's Hermitian part of fftn; their
    roundoff differs only at noise-floor modes, which sum symbol |F|^2 does
    not see.  Every sum is taken per block and the block sums are added with
    math.fsum, so the block size moves a quotient by a few ulps at most.

    A bump amp exp(-|x - c|^2 / (2 w^2)) is an outer product of 1-D factors on
    the grid and on the half spectrum (fft on the leading axes, rfft on the
    last, each over its size).  So num(f + g) = num(f) + 2 Re sum symbol
    conj(F) G + sum symbol |G|^2 contracts each block of F against the outer
    product of the trailing factors, and a perturbation transforms no grid.

    smallxi_model = (a, b) activates the exact small-frequency repair for
    n = 2, gt = 1/2 fields with an a/|x| tail: their transform behaves like
    2 pi a e^(-b|xi|)/|xi| near zero, which the mode lattice undersamples by
    O(1/L); the continuum-minus-lattice difference of the model is added,
    computed once per (a, b) on the sub-box of axis frequencies inside its
    cutoff.
    """

    def __init__(self, template: GridField, gt: float):
        n, shape, L = template.n, template.shape, template.box_length
        self.template, self.gt = template, gt
        self.p = 2.0 * n / (n - 2.0 * gt)
        sym = template.xi_abs2()
        sym **= gt
        sym.flat[0] = 0.0
        sym *= template.pair_weights()
        sym *= L ** n
        self._symbol = sym
        self._spectrum = np.empty(sym.shape, complex)
        if n == 1:
            self._blocks, self._block_shape = [slice(None)], shape
        else:
            rows = min(shape[0], max(1, BLOCK_POINTS // math.prod(shape[1:])))
            self._blocks = [slice(i, i + rows) for i in range(0, shape[0], rows)]
            self._block_shape = (rows,) + shape[1:]
        self.cell = float(np.prod([L / s for s in shape]))
        self.constant = sharp_sobolev_constant(n, gt)
        self._corrections = {}

    def _bump_factors(self, amp: float, center, width: float):
        """amp exp(-|x - center|^2 / (2 width^2)) on the grid and on the half
        spectrum, each as (lead, tail): the first axis's factor times amp, and
        the outer product of the others (1 at n = 1)."""
        n = self.template.n
        grid, half = [], []
        for axis, (x, c) in enumerate(zip(self.template.axes(), center, strict=True)):
            g = np.exp(-(x - c) ** 2 / (2 * width ** 2))
            grid.append(g)
            half.append((np.fft.rfft(g) if axis == n - 1 else np.fft.fft(g)) / g.size)
        return tuple((amp * fs[0], functools.reduce(np.multiply.outer, fs[1:], np.ones(())))
                     for fs in (grid, half))

    def _transform(self, bubble: Bubble, bumps: list) -> list:
        """The pass: F of the bubble, and sum |f|^p for the bubble, then for
        the bubble plus each bump."""
        F, n = self._spectrum, self.template.n
        f, g = np.empty(self._block_shape), np.empty(self._block_shape)
        sums = [[] for _ in range(len(bumps) + 1)]
        for rows in self._blocks:
            bubble.evaluate(self.template, rows, f)
            np.abs(f, out=g)
            g **= self.p
            sums[0].append(float(g.sum()))
            for ((lead, tail), _), block_sums in zip(bumps, sums[1:]):
                np.multiply(lead[rows].reshape((-1,) + (1,) * (n - 1)), tail, out=g)
                g += f
                np.abs(g, out=g)
                g **= self.p
                block_sums.append(float(g.sum()))
            np.fft.rfft(f, out=F[rows])
        for axis in range(n - 1):
            np.fft.fft(F, axis=axis, out=F)
        F *= 1.0 / math.prod(self.template.shape)   # a power of two: exact
        return [math.fsum(block_sums) for block_sums in sums]

    def _numerators(self, bumps: list) -> list:
        """sum symbol |F + G|^2 for G = 0, then for each bump, block by block."""
        F = self._spectrum
        block_shape = F[self._blocks[0]].shape
        a, w = np.empty(block_shape), np.empty(block_shape, complex)
        sums = [[] for _ in range(len(bumps) + 1)]
        for rows in self._blocks:
            sym = self._symbol[rows]
            np.abs(F[rows], out=a)
            a **= 2
            a *= sym
            sums[0].append(float(a.sum()))
            np.conjugate(F[rows], out=w)
            w *= sym                                  # symbol conj(F)
            w2, sym2 = w.reshape(len(w), -1), sym.reshape(len(sym), -1)
            for (_, (lead, tail)), block_sums in zip(bumps, sums[1:]):
                lead = lead[rows]
                block_sums.append(2.0 * float((lead @ (w2 @ tail.ravel())).real)
                                  + float(np.abs(lead) ** 2 @ (sym2 @ np.abs(tail.ravel()) ** 2)))
        num = math.fsum(sums[0])
        return [num] + [num + math.fsum(block_sums) for block_sums in sums[1:]]

    def _smallxi_correction(self, a: float, b: float) -> float:
        if (a, b) not in self._corrections:
            if not (self.template.n == 2 and abs(self.gt - 0.5) < 1e-12):
                raise ValueError("small-xi repair implemented for n=2, gt=1/2 only")
            cutoff, L = 2.0, self.template.box_length
            # continuum: (2 pi)^-2 int_(|xi|<cutoff) (2 pi a e^(-b xi)/xi)^2 xi dxi^2
            continuum = 2.0 * math.pi * a * a * (1.0 - math.exp(-2.0 * b * cutoff)) / (2.0 * b)
            # lattice: every mode of the full spectrum with 0 < |xi| <= cutoff
            axes = (2.0 * np.pi * np.fft.fftfreq(s) * s / L for s in self.template.shape)
            xiabs = np.sqrt(sum(k ** 2 for k in np.ix_(*(k[np.abs(k) <= cutoff] for k in axes))))
            xi = xiabs[(xiabs > 0) & (xiabs <= cutoff)]
            lattice = float(np.sum((2.0 * math.pi * a * np.exp(-b * xi) / xi) ** 2 * xi)) / L ** 2
            self._corrections[(a, b)] = continuum - lattice
        return self._corrections[(a, b)]

    def __call__(self, bubble: Bubble, bumps, tail_p: float = 0.0,
                 smallxi_model: tuple = None) -> list:
        """R of the bubble, then of the bubble plus each bump (amp, center,
        width).  tail_p is an analytic estimate of the |f|^p mass outside the
        box (the sampled field is a windowed restriction of a decaying
        function), added for every field."""
        repair = 0.0 if smallxi_model is None else self._smallxi_correction(*smallxi_model)
        bumps = [self._bump_factors(*bump) for bump in bumps]
        sums = self._transform(bubble, bumps)
        return [(num + repair) / (self.constant * (s * self.cell + tail_p) ** (2.0 / self.p))
                for num, s in zip(self._numerators(bumps), sums)]


def bubble_tail_p(bubble: Bubble, box_length: float) -> float:
    """Mass of |f|^p outside the inscribed disk of the box: the bubble decay
    integrates in closed form, int_(r>R0) (eps + r^2)^(-n) dvol."""
    n = bubble.n
    R0 = box_length / 2.0
    surf = sphere_volume(n - 1) if n > 1 else 2.0
    if n == 2:
        return surf * 0.5 / (bubble.epsilon + R0 ** 2)
    # generic n: one-term asymptotic of the radial integral
    return surf * R0 ** (-n) / n


def sharp_sobolev_check(n: int, gt: float = 0.5, bubble: Bubble = None,
                        shape=(512, 512), box_length: float = 200.0,
                        tol: float = 1e-2, seed: int = 0) -> VerificationReport:
    """Bubble quotient R = 1 within windowing tolerance, strictly larger for
    perturbations, and invariance of R under translation/dilation.

    One SobolevQuotient serves every quotient: one pass per bubble, and the
    five perturbations ride along the main bubble's pass."""
    report = VerificationReport("sharp_sobolev", f"{gt}", n)
    if bubble is None:
        bubble = Bubble(n=n, gamma_tilde=gt, epsilon=1.0)
    if box_length < 200.0 * math.sqrt(bubble.epsilon):
        report.fail(f"box {box_length} too small for epsilon={bubble.epsilon}")
        return report
    # the template carries the grid only: its zero values are a broadcast view
    template = GridField(n, shape, box_length, np.broadcast_to(0.0, shape))
    quotient = SobolevQuotient(template, gt)

    def quotients(b: Bubble, bumps):
        return quotient(b, bumps, tail_p=bubble_tail_p(b, box_length),
                        smallxi_model=(1.0, math.sqrt(b.epsilon)))

    # perturbations by seeded Gaussian bumps (amp, center, width)
    rng = np.random.default_rng(seed)
    bumps = []
    for _ in range(5):
        width = rng.uniform(2.0, 6.0)
        amp = rng.uniform(0.2, 0.4)
        bumps.append((amp, rng.uniform(-8.0, 8.0, size=n), width))
    r_bubble, *r_perts = quotients(bubble, bumps)
    err = abs(r_bubble - 1.0)
    report.record(err <= tol, err, f"bubble quotient R = {r_bubble:.6f}")

    # translation / dilation invariance
    variants = [Bubble(n, gt, epsilon=4.0)]
    shift = ((10.0, -7.0) + (0.0,) * n)[:n]
    variants.append(Bubble(n, gt, epsilon=1.0, xi0=shift))
    for variant in variants:
        r_var = quotients(variant, [])[0]
        err = abs(r_var - r_bubble)
        report.record(err <= tol, err,
                      f"invariance: R = {r_var:.6f} (eps={variant.epsilon}, xi0={variant.xi0})")

    # perturbations: strictly super-optimal quotient, margins recorded
    margins = [r_pert - r_bubble for r_pert in r_perts]
    for i, (r_pert, margin) in enumerate(zip(r_perts, margins)):
        report.record(margin > 0.0, 0.0, f"perturbation {i}: R = {r_pert:.6f}, margin {margin:.4e}")
    report.details.append(f"min margin {min(margins):.4e}")
    return report


def lebedev_milin_check(extremal_eps: float = 1.0, extremal_xi: float = 0.0,
                        tol_equality: float = 1e-3, perturbation: float = 0.0,
                        f_values: np.ndarray = None) -> VerificationReport:
    """Exponential-class sharp trace inequality on the line (k = 0, n = 1):

        oint f (-Lap)^(1/2) f dx >= 4 pi ln oint e^(f - fbar) dmu,

    dmu = (1/(2 pi)) (2/(1+x^2)) dx.  Equality for f = a - ln((eps+|x-xi|^2)/(1+x^2)).
    """
    report = VerificationReport("lebedev_milin", "1/2", 1)

    def extremal(x):
        f = np.log(1.0 + x ** 2) - np.log(extremal_eps + (x - extremal_xi) ** 2)
        return f + perturbation * np.exp(-((x - 3.0) ** 2) / 8.0) if perturbation else f

    template = GridField(1, (8192,), 600.0, np.zeros(8192))
    x = template.axes()[0]
    f_vals = extremal(x) if f_values is None else np.asarray(f_values, dtype=float)
    f = template.like(f_vals)
    lhs = float(np.sum(f.pair_weights() * np.abs(f.fft()) ** 2 * np.sqrt(f.xi_abs2())))
    lhs *= f.box_length

    # mu-side integrals on the half-angle circle parametrization (x = tan th),
    # spectrally accurate for the decaying integrands
    nth = 4096
    th = (np.arange(nth) + 0.5) * (np.pi / nth) - np.pi / 2
    xs = np.tan(th)
    # the analytic form off the grid where there is one
    f_th = extremal(xs) if f_values is None else np.interp(xs, x, f_vals, left=0.0, right=0.0)
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

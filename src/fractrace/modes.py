"""Numerical realization of the extension problem on a periodic boundary grid.

Everything works per Fourier mode, on the rfftn half spectrum of the real
boundary data (GridField.fft; sums over modes weigh each entry with
GridField.pair_weights), so every +-xi pair is solved, evaluated and summed
once.  For a boundary frequency xi != 0 the decaying solutions of the
per-mode equation are spanned by the profiles t^gamma K_nu(t) at t = |xi| y,
one for each scattering order nu attached to gamma.  Profiles are normalized
through their exact Frobenius branch series (never by fitting), and boundary
operators are read off the two-branch jets.
The problem is homogeneous in t = |xi| y: at every mode the solution is
sum_i s_i P_i(|xi| y) with the same unit profiles P_i, so the Dirichlet system
is one k x k matrix M1 per order, built at |xi| = 1, whose row of exponent e
gains |xi|^e at each mode.  The boundary jets of the solution stay per branch
order, only the orders an operator reads, each profile's term raised to its
own exponent at the true |xi| of every mode, so the self-consistency check
still tests that scaling independently.
The profile ODE (T_t - 1)^k P = 0 is checked by applying the operator exactly,
through the Bessel recurrence on the kernel side and the power rule on the
branch series, and evaluating only the result; no finite difference enters.

The closed-form Dirichlet-to-Neumann constants are reproduced here from the
Bessel branch data alone: this module deliberately reimplements the small
amount of shared machinery (float Pochhammer products, the boundary-operator
recursion) so the comparison against the exact constants is a genuine
cross-check and not a tautology.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .besselk import bessel_k
from .gammacore import FAMILIES, GammaParams
from .report import VerificationReport, write_atomic

T_SERIES = 2.0     # below: Frobenius branch series; above: bessel_k
T_MAX = 30.0       # profiles are below 1e-13 of scale here and treated as zero
SERIES_ORDER = 34  # branch series order; headroom for repeated T applications
# ode_residual sample points on each side of T_SERIES
SERIES_SAMPLES = np.array([0.25, 0.75, 1.25, 1.75])
BESSEL_SAMPLES = np.array([2.5, 6.0, 12.0, 24.0])
RESOLVED_REL = 1e-8
RESOLVED_NYQUIST = 0.6


class GridError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Boundary grid fields
# ---------------------------------------------------------------------------


@dataclass
class GridField:
    """Real field sampled on a periodic tensor grid over [-L/2, L/2)^n."""

    n: int
    shape: tuple
    box_length: float
    values: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise GridError(f"box length must be finite and positive, got {self.box_length}")
        if self.n < 1:
            raise GridError(f"boundary dimension must be >= 1, got {self.n}")
        if len(self.shape) != self.n:
            raise GridError(f"shape {self.shape} does not match dimension {self.n}")
        for s in self.shape:
            if s < 1 or s & (s - 1):
                raise GridError(f"grid sizes must be powers of two, got {s}")
        self.values = np.asarray(self.values, dtype=float).reshape(self.shape)
        if not np.all(np.isfinite(self.values)):
            raise GridError("grid field contains non-finite values")

    def axes(self) -> list:
        """The grid points along each axis."""
        L = self.box_length
        return [(-L / 2 + L * np.arange(s) / s) for s in self.shape]

    def dist2(self, center) -> np.ndarray:
        """|x - center|^2 at every grid point; center has exactly n entries."""
        if len(center) != self.n:
            raise GridError(f"centre {tuple(center)} does not have {self.n} entries")
        return sum((x - c) ** 2 for x, c in zip(np.ix_(*self.axes()), center))

    def same_grid(self, other: "GridField") -> bool:
        return (
            self.n == other.n
            and self.shape == other.shape
            and abs(self.box_length - other.box_length) <= 1e-12 * self.box_length
        )

    def fft(self) -> np.ndarray:
        """Coefficients c_xi with f(x) = sum c_xi exp(i xi . x) on the rfftn
        half spectrum (last axis xi >= 0; c_(-xi) = conj(c_xi) for a real
        field).  They are the Hermitian part of np.fft.fftn, not rfftn, whose
        roundoff at a resolved field's noise-floor modes differs, and which
        |xi|^(2 gamma) multipliers raise to 1e-9 .. 1e-5 of the result; so a
        multiplier applied here agrees with one applied by fftn and
        np.real(ifftn) to 1e-15."""
        full = self.values.astype(complex)
        np.fft.fftn(full, out=full)
        half = self.shape[:-1] + (self.shape[-1] // 2 + 1,)
        out = full[np.ix_(*(-np.arange(m) % s for m, s in zip(half, self.shape)))]
        np.conj(out, out=out)
        out += full[..., :half[-1]]
        out *= 0.5 / self.values.size   # a power of two: exact
        return out

    def xi_axes(self):
        """The frequencies along each axis of the half spectrum."""
        L = self.box_length
        freqs = [np.fft.fftfreq(s) for s in self.shape[:-1]] + [np.fft.rfftfreq(self.shape[-1])]
        return [2.0 * np.pi * f * s / L for f, s in zip(freqs, self.shape)]

    def xi_abs2(self) -> np.ndarray:
        return sum(k ** 2 for k in np.ix_(*self.xi_axes()))

    def xi_nyquist(self) -> float:
        return min(np.pi * s / self.box_length for s in self.shape)

    def pair_weights(self) -> np.ndarray:
        """Each half-spectrum entry's weight in a sum over all modes of a real
        field: 2 off the zero and Nyquist planes of the last axis, where -xi
        is not stored.  On them a conjugate pair weighs 2 at its lower flat
        index and 0 at the other, and a self-conjugate entry 1."""
        lead = self.shape[:-1]
        idx = np.arange(math.prod(lead)).reshape(lead)
        plane = 1.0 + np.sign(idx[np.ix_(*(-np.arange(s) % s for s in lead))] - idx)
        weights = np.full(lead + (self.shape[-1] // 2 + 1,), 2.0)
        weights[..., [0, -1]] = plane[..., None]   # one plane when the last axis has 1 point
        return weights

    def like(self, values) -> "GridField":
        """A field with the given values on this grid."""
        return GridField(self.n, self.shape, self.box_length, values)

    @classmethod
    def from_modes(cls, template: "GridField", modes: np.ndarray) -> "GridField":
        """The real field on template's grid with half-spectrum coefficients
        modes, as fft returns them."""
        values = np.fft.irfftn(modes, s=template.shape, axes=range(template.n))
        return cls(template.n, template.shape, template.box_length,
                   values * template.values.size)

    # -- on-disk format: little-endian f64 + JSON sidecar --------------------

    def save(self, path: str):
        write_atomic(path, self.values.astype("<f8").tobytes())
        sidecar = {
            "n": self.n,
            "shape": list(self.shape),
            "box_length": self.box_length,
            "dtype": "f64-le",
        }
        write_atomic(path + ".json", (json.dumps(sidecar, sort_keys=True) + "\n").encode())

    @classmethod
    def load(cls, path: str) -> "GridField":
        sidecar_path = path + ".json"
        if not os.path.exists(sidecar_path):
            raise GridError(f"missing sidecar {sidecar_path}")
        with open(sidecar_path) as handle:
            meta = json.load(handle)
        for key in ("n", "shape", "box_length", "dtype"):
            if key not in meta:
                raise GridError(f"sidecar missing field {key!r}")
        if meta["dtype"] != "f64-le":
            raise GridError(f"unsupported dtype {meta['dtype']!r}")
        raw = np.fromfile(path, dtype="<f8")
        expect = int(np.prod(meta["shape"]))
        if raw.size != expect:
            raise GridError(f"file holds {raw.size} values, sidecar expects {expect}")
        try:
            box_length = float(meta["box_length"])
        except (TypeError, ValueError):
            raise GridError(f"sidecar box length {meta['box_length']!r} is not a number") from None
        return cls(meta["n"], tuple(meta["shape"]), box_length, raw)

    @classmethod
    def load_csv(cls, path: str, box_length: float) -> "GridField":
        """One value per line with a header - small 1-D fields only."""
        with open(path) as handle:
            lines = [ln.strip() for ln in handle if ln.strip()]
        if len(lines) < 2:
            raise GridError(f"csv {path} has no data rows")
        try:
            values = np.array([float(v) for v in lines[1:]])
        except ValueError as exc:
            raise GridError(f"csv {path}: non-numeric data") from exc
        return cls(1, (values.size,), box_length, values)


def gaussian_field(n: int, shape, box_length: float, width: float = 1.0) -> GridField:
    f = GridField(n, tuple(shape), box_length, np.zeros(shape))
    return f.like(np.exp(-f.dist2((0.0,) * n) / (2.0 * width ** 2)))


def fractional_laplacian_fft(f: GridField, power: float) -> GridField:
    """Spectral fractional Laplacian: multiply modes by |xi|^(2 power)."""
    if power <= 0:
        raise ValueError("fractional_laplacian_fft requires power > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = f.xi_abs2() ** power
        sym.flat[0] = 0.0
        try:
            return GridField.from_modes(f, f.fft() * sym)
        except GridError:
            raise OverflowError("the multiplier |xi|^(2 power) or the result overflows "
                                "float64") from None


# ---------------------------------------------------------------------------
# Independent float machinery (kept separate from the exact modules)
# ---------------------------------------------------------------------------


def _shifted(q, count: int) -> list:
    """q, q + 1, ..., q + count - 1 as floats, each within one rounding of
    its exact value for a Fraction q: q = n + r with n the nearest integer,
    so a factor near zero is r itself, never a float difference.  Near an
    integer order a float q would lose about 1e-16/r of that factor."""
    n = round(q)
    r = float(q - n)
    return [(n + t) + r for t in range(count)]


def _poch_f(q, i: int) -> float:
    """Gamma(q + i) / Gamma(q) in floats, from the factors _shifted gives."""
    if i >= 0:
        return math.prod(_shifted(q, i), start=1.0)
    return 1.0 / math.prod(_shifted(q + i, -i), start=1.0)


def _gamma_f(x) -> float:
    """Gamma(x) for a Fraction x: Gamma(1 + r) times the Pochhammer factors
    from 1 + r to x, with r = x - n for the nearest integer n, so a pole's
    small factor is r itself."""
    n = round(x)
    return math.gamma(1.0 + float(x - n)) * _poch_f(1 + (x - n), n - 1)


def _branch_series(q, first: float) -> np.ndarray:
    """first / (4^i i! (q)_i) for i < SERIES_ORDER: the t^(2i) coefficients
    of one Frobenius branch, q = 1 -+ nu."""
    steps = 4.0 * np.arange(1, SERIES_ORDER) * _shifted(q, SERIES_ORDER - 1)
    return first / np.cumprod(np.concatenate(([1.0], steps)))


def _base(fr: Fraction, s: int) -> Fraction:
    """The base of the family of branch shift s: 1 - [g] (even) or [g] (odd)."""
    return fr if s else 1 - fr


def _rho_f(fl: int, fr: Fraction, s: int, j: int, ell: int) -> float:
    q = _base(fr, s)
    return (
        math.comb(j, ell)
        * _poch_f(q, s + j) / _poch_f(q, s + j - ell)
        * _poch_f(q, s + 2 * j - 2 * ell - fl) / _poch_f(q, s + 2 * j - ell - fl)
    )


@functools.lru_cache(maxsize=None)
def boundary_symbol_float(fl: int, fr: Fraction, family: str, j: int) -> MappingProxyType:
    """{(t_power, lap_power): weight}; same recursion as the exact jets, float.

    Memoized, so a symbol at index j costs j + 1 evaluations instead of
    2^(j+1) - 1; the result is a read-only view of the cached dict."""
    s = FAMILIES.index(family)
    out = {(j, 0): (-1.0) ** (j + s)}
    for ell in range(1, j + 1):
        w = _rho_f(fl, fr, s, j, ell)
        for (tp, lp), c in boundary_symbol_float(fl, fr, family, j - ell).items():
            out[(tp, lp + ell)] = out.get((tp, lp + ell), 0.0) - w * c
    return MappingProxyType(out)


@functools.lru_cache(maxsize=None)
def _t_chain(fr: Fraction, s: int, tau: int) -> float:
    """(1+s) 4^tau tau! (q)_(tau+s): the trace of T^tau on the leading monomial
    y^(2s[g]+2tau) of the family of shift s."""
    return (1 + s) * 4.0 ** tau * math.factorial(tau) * _poch_f(_base(fr, s), tau + s)


def _apply_symbol(fl: int, fr: Fraction, family: str, j: int, xi2, order) -> np.ndarray:
    """The boundary operator B[family, j] with the tangential symbol -|xi|^2.

    order(tau) gives the jet coefficient array at y-order tau of the family's
    branch (a for even, b for odd); the symbol reads each tau <= j once, and
    its term is added into the result before the next order is requested.
    """
    s = FAMILIES.index(family)
    out = None
    for (tau, lp), w in boundary_symbol_float(fl, fr, family, j).items():
        piece = w * _t_chain(fr, s, tau) * order(tau)
        piece *= (-xi2) ** lp
        if out is None:
            out = piece
        else:
            out += piece
    return out


class NumericJets:
    """Two-branch jet coefficient arrays over a mode grid (vectorized)."""

    def __init__(self, fl: int, fr: Fraction, a, b):
        self.fl, self.fr = fl, fr
        self.a = a  # list of complex arrays, index = y^(2q) order
        self.b = b  # list of complex arrays, index = y^(2 fr + 2q) order

    def apply_boundary(self, family: str, j: int, xi2) -> np.ndarray:
        """Evaluate the boundary operator with the tangential symbol -|xi|^2."""
        arrays = (self.a, self.b)[FAMILIES.index(family)]
        return _apply_symbol(self.fl, self.fr, family, j, xi2, arrays.__getitem__)

    def weighted_laplacian(self, xi2) -> "NumericJets":
        fr = self.fr
        a = [4.0 * (q + 1) * shift * self.a[q + 1] + (-xi2) * self.a[q]
             for q, shift in enumerate(_shifted(1 - fr, len(self.a) - 1))]
        b = [4.0 * (q + 1) * shift * self.b[q + 1] + (-xi2) * self.b[q]
             for q, shift in enumerate(_shifted(1 + fr, len(self.b) - 1))]
        return NumericJets(self.fl, fr, a, b)

    def restrict(self):
        return self.a[0]

    def restrict_weighted_neumann(self):
        return 2.0 * self.fr * self.b[0]


# ---------------------------------------------------------------------------
# Mode profiles
# ---------------------------------------------------------------------------


def scattering_orders(params: GammaParams):
    """(kind, slot, nu) for every profile attached to gamma, Dirichlet order:
    nu = gamma - 2s[g] - 2j for the family of shift s."""
    g, fr = params.gamma, params.frac_gamma
    return [(kind, j, g - 2 * FAMILIES.index(kind) * fr - 2 * j)
            for kind, j in dirichlet_condition_list(params)]


@dataclass
class ModeProfile:
    """Decaying per-mode solution t^gamma K_nu(t), Frobenius-normalized.

    lead_exponent is the t power of the normalized leading branch 2s[g] + 2j,
    s the kind's branch shift (0 even, 1 odd), and branch s of the jets
    (a = 0, b = 1) is the one it leads; the other branch leads at
    lead_exponent + 2 nu with coefficient equal to the scattering symbol value
    2^(-2 nu) Gamma(-nu)/Gamma(nu) at |xi| = 1.
    """

    params: GammaParams
    j: int
    kind: str
    nu: Fraction

    def __post_init__(self):
        fr = self.params.frac_gamma
        fl = self.params.floor_gamma
        nu = self.nu
        self.nu_f = float(nu)
        self.s = FAMILIES.index(self.kind)
        self.lead_exponent = 2 * self.s * fr + 2 * self.j
        self.lead_index = self.j
        self.co_index = fl - self.j
        self.co_exponent = self.lead_exponent + 2 * self.nu
        # scattering symbol at |xi| = 1; every Gamma and Pochhammer factor
        # is taken from the exact nu (_gamma_f, _shifted)
        self.sigma = 2.0 ** (-2.0 * self.nu_f) * _gamma_f(-nu) / _gamma_f(nu)
        # branch series: coefficient of t^(lead + 2i) is 1/(4^i i! poch(1 -+ nu, i))
        self.lead_series = _branch_series(1 - nu, 1.0)
        self.co_series = _branch_series(1 + nu, self.sigma)
        # norm so that t^gamma K_nu(t) = C * (branch sum): 2^nu pi / (2 sin(pi nu)
        # Gamma(1 - nu)), which is 2^(nu - 1) Gamma(nu) by the reflection formula
        self.bessel_norm = 2.0 ** (self.nu_f - 1.0) * _gamma_f(nu)

    def eval(self, t):
        """Profile values; series below the switchover, Bessel kernel above."""
        return next(_profile_values([self], t))

    def series(self, ts: np.ndarray) -> np.ndarray:
        """The two branch series at the points ts (a 1-D array), both in
        Horner form in t^2 at once."""
        t2 = ts * ts
        poly = np.zeros((2, ts.size))
        for c in np.stack((self.lead_series, self.co_series), axis=1)[::-1, :, None]:
            poly = poly * t2 + c
        return (ts ** float(self.lead_exponent) * poly[0]
                + ts ** float(self.co_exponent) * poly[1])

    def jet_term(self, branch: int, tau: int, xi_abs: np.ndarray):
        """The coefficient of P(|xi| y) at y-order tau of branch 0 (y^(2 tau))
        or 1 (y^(2{g} + 2 tau)): series coefficient i times |xi|^(lead + 2i)
        (or co + 2i), as a float array, or None where the profile has no
        term."""
        if branch == self.s:
            i, exponent, series = tau - self.lead_index, self.lead_exponent, self.lead_series
        else:
            i, exponent, series = tau - self.co_index, self.co_exponent, self.co_series
        return series[i] * xi_abs ** float(exponent + 2 * i) if i >= 0 else None

    def ode_residual(self) -> float:
        """Relative residual of (T_t - 1)^k on the profile, T_t = d^2/dt^2 + (m/t) d/dt.

        The operator is applied exactly to both representations eval uses; only
        the result is evaluated in floats, so no step size enters.

        - Bessel side: d/dt[t^a K_mu] = (a - mu) t^(a-1) K_mu - t^a K_(mu-1)
          (DLMF 10.29) expands the result into terms t^(gamma-i) K_(nu-j)
          (_bessel_side_terms).  Only equal (i, j) merge, so the cancellation
          the ODE demands happens between kernel values at different orders,
          each its own quadrature sum from one bessel_k call over every order
          and sample; measured as |sum| / max |term|.
        - Series side: T t^p = p(p - 1 + m) t^(p-2) on both branch series.
          Each branch ends at the exact zero p = 0 or p = 2{gamma} of that
          factor, never at a float that leaves residue blowing up as t -> 0;
          measured against the largest intermediate stage value.
        - Seam: each side solves the ODE on its own, so only agreement at
          T_SERIES pins bessel_norm and the relative sign of the branches.

        Returns the largest of the three.
        """
        params = self.params
        g, m = float(params.gamma), float(params.m)
        terms = _bessel_side_terms(params.k, g, self.nu_f, m)
        # one block: every order nu - j, at the samples and at the seam
        t = np.append(BESSEL_SAMPLES, T_SERIES)
        index = np.arange(terms.shape[0])
        kernel = bessel_k(self.nu_f - index, t)
        t_powers = t ** (g - index)[:, None]
        vals = (terms[:, :, None] * t_powers[:, None, :-1]) * kernel[None, :, :-1]
        worst = np.max(np.abs(vals.sum(axis=(0, 1))) / np.abs(vals).max(axis=(0, 1)))
        at = t_powers[0, -1] * kernel[0, -1] / self.bessel_norm

        t = SERIES_SAMPLES
        stages = np.zeros((params.k + 1, t.size))
        for exponent, series in ((self.lead_exponent, self.lead_series),
                                 (self.co_exponent, self.co_series)):
            # coefficient n sits at p = end + 2n, where end = 0 or 2{gamma} is
            # the exact zero of p(p - 1 + m): the shift drops n = 0 outright
            offset = int(exponent // 2)
            p = float(exponent % 2) + 2.0 * np.arange(offset + series.size)
            coeff = np.concatenate([np.zeros(offset), series])
            powers = t[:, None] ** p
            stages[0] += powers @ coeff
            p1, weight = p[1:], p[1:] - 1.0 + m
            for stage in range(1, params.k + 1):
                down = np.zeros(coeff.size)
                down[:-1] = coeff[1:] * p1 * weight
                coeff = down - coeff
                stages[stage] += powers @ coeff
        worst = max(worst, np.max(np.abs(stages[-1]) / np.abs(stages).max(axis=0)))

        below = self.series(np.array([np.nextafter(T_SERIES, 0.0)]))[0]
        return float(max(worst, abs(below - at) / max(abs(below), abs(at))))


def _bessel_side_terms(k: int, g: float, nu: float, m: float) -> np.ndarray:
    """(T_t - 1)^k t^g K_nu as a (2k+1) x (2k+1) array whose entry [i, j]
    multiplies t^(g-i) K_(nu-j); each t derivative raises i + j by one, so
    2k of them stay inside it.  One derivative of the entry [i, j] gives
    (g - i) - (nu - j) to [i + 1, j] and -1 to [i, j + 1] (DLMF 10.29.2),
    two shifted array updates."""
    size = 2 * k + 1
    i, j = np.indices((size, size), dtype=float)
    factor = (g - i) - (nu - j)

    def ddt(c):
        out = np.zeros((size, size))
        out[1:] = c[:-1] * factor[:-1]
        out[:, 1:] -= c[:, :-1]
        return out

    terms = np.zeros((size, size))
    terms[0, 0] = 1.0
    for _ in range(k):
        first = ddt(terms)
        nxt = ddt(first)
        nxt[1:] += m * first[:-1]
        terms = nxt - terms
    return terms


def _profile_values(profiles, t):
    """Each profile at t in turn (a generator): the branch series below
    T_SERIES, t^gamma K_nu(t) / bessel_norm from T_SERIES to T_MAX, zero
    above.  The kernel side is one bessel_k call over every profile's order,
    with t^gamma formed once: the profiles of one order share gamma."""
    t = np.asarray(t, dtype=float)
    small = (t > 0) & (t < T_SERIES)
    mid = (t >= T_SERIES) & (t <= T_MAX)
    zero = t == 0
    ts = t[small]
    kernel = None
    if np.any(mid):
        tm = t[mid]
        kernel = bessel_k([prof.nu_f for prof in profiles], tm)
        kernel *= tm ** float(profiles[0].params.gamma)
    for row, prof in enumerate(profiles):
        out = np.zeros_like(t)
        if ts.size:
            out[small] = prof.series(ts)
        if kernel is not None:
            out[mid] = kernel[row] / prof.bessel_norm
        if prof.lead_exponent == 0:
            out[zero] = prof.lead_series[0]
        yield out


def all_profiles(params: GammaParams):
    return [ModeProfile(params, j, kind, nu) for kind, j, nu in scattering_orders(params)]


def _combined_order(profiles, coeffs, xi_abs: np.ndarray, branch: int):
    """The function tau -> sum_i coeffs[:, i] profiles[i].jet_term(branch, tau,
    xi_abs), order tau of the combination's y-jet in branch 0 or 1 over the
    modes xi_abs, each order built only when asked for (coeffs broadcasts
    against xi_abs)."""
    def order(tau):
        out = np.zeros(xi_abs.size, dtype=complex)
        for col, prof in enumerate(profiles):
            term = prof.jet_term(branch, tau, xi_abs)
            if term is not None:
                out += coeffs[:, col] * term
        return out

    return order


# ---------------------------------------------------------------------------
# The extension solver
# ---------------------------------------------------------------------------


def dirichlet_condition_list(params: GammaParams):
    """Ordered Dirichlet conditions: even slots then odd slots."""
    out = [("even", j) for j in range(params.n_even_data)]
    out += [("odd", j) for j in range(params.n_odd_data)]
    return out


def neumann_condition_list(params: GammaParams):
    """Neumann-family outputs paired with the Dirichlet slots, same order:
    ('odd', fl-j) carries the image of the even datum f^(2j) and vice versa."""
    fl = params.floor_gamma
    out = [("odd", fl - j) for j in range(params.n_even_data)]
    out += [("even", fl - j) for j in range(params.n_odd_data)]
    return out


class ExtensionSolution:
    """Per-mode solution of the Dirichlet problem for the weighted
    poly-Laplacian, assembled from decaying Bessel profiles."""

    def __init__(self, params: GammaParams, template: GridField, data_fields):
        self.params = params
        self.template = template
        self.data_fields = list(data_fields)
        conds = dirichlet_condition_list(params)
        if len(data_fields) != len(conds):
            raise GridError(
                f"gamma={params.gamma} needs {len(conds)} Dirichlet fields, got {len(data_fields)}"
            )
        for f in data_fields:
            if not f.same_grid(template):
                raise GridError("Dirichlet fields live on different grids")
        self.profiles = all_profiles(params)
        self.conds = conds

        self.xi2 = template.xi_abs2()
        self.xi_abs = np.sqrt(self.xi2)
        self.data_hat = [f.fft() for f in data_fields]
        self._warn_unresolved()
        self._solve()

    def _warn_unresolved(self):
        self.warnings = []
        nyq = self.template.xi_nyquist()
        for idx, dh in enumerate(self.data_hat):
            mag = np.abs(dh)
            peak = mag.max()
            if peak == 0:
                continue
            tail = mag[self.xi_abs > RESOLVED_NYQUIST * nyq]
            if tail.size and tail.max() > 1e-10 * peak:
                self.warnings.append(
                    f"data field {idx}: spectral tail {tail.max() / peak:.2e} of peak; "
                    "field may be unresolved"
                )

    def resolved_mask(self) -> np.ndarray:
        nyq = self.template.xi_nyquist()
        mask = (self.xi_abs > 0) & (self.xi_abs <= RESOLVED_NYQUIST * nyq)
        any_data = np.zeros_like(mask)
        for dh in self.data_hat:
            mag = np.abs(dh)
            if mag.max() > 0:
                any_data |= mag >= RESOLVED_REL * mag.max()
        return mask & any_data

    def _solve(self):
        """Unit-scaled coefficients per mode from the one |xi| = 1 matrix M1.

        U = sum_i s_i P_i(|xi| y), so the Dirichlet matrix at |xi| is
        diag(|xi|^e) M1, with e = 2s{g} + 2j for a row of branch shift s;
        hence s = M1^-1 (|xi|^-e f).  M1 stays on the solution as m1.
        """
        fr = self.params.frac_gamma
        flat_xi, zero = self._flat_xi()
        self.m1 = _unit_matrix(self.params, self.conds, self.profiles)
        rows = [(FAMILIES.index(family), j) for family, j in self.conds]
        e = np.array([float(2 * sh * fr + 2 * j) for sh, j in rows])
        s = np.linalg.solve(
            self.m1, np.stack([dh.reshape(-1) for dh in self.data_hat]) * flat_xi ** -e[:, None]).T
        s[zero, :] = 0.0
        self.s = s  # [modes, profile]

        # zero mode: polynomial kernel of the pure normal operator; with the
        # tangential symbol at zero the conditions diagonalize on monomials,
        # and zero_poly[s][j] multiplies y^(2s{g} + 2j)
        self.zero_poly = (np.zeros(self.params.n_even_data, dtype=complex),
                          np.zeros(self.params.n_odd_data, dtype=complex))
        for row, (sh, j) in enumerate(rows):
            val = self.data_hat[row].flat[0]   # flat index 0 is xi = 0
            self.zero_poly[sh][j] = val / ((-1.0) ** (j + sh) * _t_chain(fr, sh, j))

    def _flat_xi(self, modes=slice(None)):
        """Flat |xi| on the modes (an index array or a slice) with the zero
        mode set to 1 (a placeholder: the zero mode is handled separately),
        and the zero-mode mask."""
        flat_xi = self.xi_abs.reshape(-1)[modes].copy()
        zero = flat_xi == 0.0
        flat_xi[zero] = 1.0
        return flat_xi, zero

    def _jet_order(self, branch: int, modes=slice(None)):
        """The function tau -> order tau of the solution's y-jet in branch 0
        (y^(2 tau)) or 1 (y^(2{g} + 2 tau)) over the flat modes (an index
        array or a slice): each profile's coefficient times its one series
        term at the true |xi|, and the zero mode from the polynomial data."""
        xi_abs, zero = self._flat_xi(modes)
        combined = _combined_order(self.profiles, self.s[modes], xi_abs, branch)
        zero_vals = self.zero_poly[branch]

        def order(tau):
            out = combined(tau)
            out[zero] = zero_vals[tau] if tau < zero_vals.size else 0.0
            return out

        return order

    def boundary_value_flat(self, family: str, j: int, modes=slice(None)) -> np.ndarray:
        """B[family, j] of the solution over the flat modes (an index array
        or a slice).  The operator reads branch a (even) or b (odd) up to
        order j only; each order is built at the true |xi| of those modes
        alone and added into the output before the next is built."""
        return _apply_symbol(self.params.floor_gamma, self.params.frac_gamma,
                             family, j, self.xi2.reshape(-1)[modes],
                             self._jet_order(FAMILIES.index(family), modes))

    def boundary_value_modes(self, family: str, j: int) -> np.ndarray:
        """B[family, j] of the solution over all modes, on the half spectrum."""
        return self.boundary_value_flat(family, j).reshape(self.xi2.shape)

    def boundary_value(self, family: str, j: int) -> GridField:
        return GridField.from_modes(self.template, self.boundary_value_modes(family, j))

    def evaluate(self, y: float) -> GridField:
        """The solution restricted to height y, as a boundary grid field."""
        flat_xi, zero = self._flat_xi()
        out = np.zeros(flat_xi.size, dtype=complex)
        for s, values in zip(self.s.T, _profile_values(self.profiles, flat_xi * y)):
            out += s * values
        fr = float(self.params.frac_gamma)
        out[zero] = 0.0
        for sh, coeffs in enumerate(self.zero_poly):
            out[zero] += sum(c * y ** (2 * sh * fr + 2 * q) for q, c in enumerate(coeffs))
        return GridField.from_modes(self.template, out.reshape(self.xi2.shape))


def solve_extension(params: GammaParams, data_fields) -> ExtensionSolution:
    if not data_fields:
        raise GridError("no Dirichlet data supplied")
    return ExtensionSolution(params, data_fields[0], data_fields)


def neumann_indices(params: GammaParams) -> dict:
    """{2 alpha: (family, j)} for every Neumann-family operator."""
    fr = params.frac_gamma
    return {2 * FAMILIES.index(family) * fr + 2 * j: (family, j)
            for family, j in neumann_condition_list(params)}


def dtn_apply(sol: ExtensionSolution, alpha2) -> GridField:
    """Extract the Neumann-family operator at index 2 alpha as a grid field."""
    slot = neumann_indices(sol.params).get(Fraction(alpha2))
    if slot is None:
        raise IndexError(f"2*alpha={alpha2} is not a Neumann-family index for gamma={sol.params.gamma}")
    return sol.boundary_value(*slot)


# ---------------------------------------------------------------------------
# Independent reproduction of the DtN constants from Bessel branch data
# ---------------------------------------------------------------------------


def _unit_matrix(params: GammaParams, conds, profiles) -> np.ndarray:
    """The k x k matrix at |xi| = 1 whose entry (row, col) applies the row's
    condition from conds to profile col: M1 for dirichlet_condition_list, N1
    for neumann_condition_list.  The profiles sit side by side in one jet,
    profile col alone at position col (coefficients I), so each row's
    operator symbol is built once."""
    one = np.ones(len(profiles))
    a, b = ([order(q) for q in range(params.floor_gamma + 1)]
            for order in (_combined_order(profiles, np.eye(one.size), one, branch)
                          for branch in (0, 1)))
    nj = NumericJets(params.floor_gamma, params.frac_gamma, a, b)
    return np.array([nj.apply_boundary(family, j, one) for family, j in conds])


def _dtn_matrix(sol: ExtensionSolution) -> np.ndarray:
    """R = N1 M1^-1 at |xi| = 1, from the solution's own profiles and M1.
    The solution with datum one in slot i alone has profile coefficients
    M1^-1 e_i, so R[i', i] is its Neumann output in slot i'.  Each Neumann
    output depends on its paired datum alone, so R is diagonal."""
    n1 = _unit_matrix(sol.params, neumann_condition_list(sol.params), sol.profiles)
    return np.linalg.solve(sol.m1.T, n1.T).T


def _dtn_diagonal(params: GammaParams, r: np.ndarray) -> dict:
    """{('even'|'odd', j): value} from the diagonal of R, where 'even' maps
    the even datum slot j (c-type constant) and 'odd' the odd slot (d-type
    constant, sign convention: B = -d (-Lap)^nu phi)."""
    return {(family, j): float((-1) ** FAMILIES.index(family) * val)
            for (family, j), val in zip(dirichlet_condition_list(params), np.real(np.diag(r)))}


def verify_dtn_constants(sol: ExtensionSolution, tol: float = 1e-8) -> VerificationReport:
    """Bessel-branch extraction against the closed-form constants, and the
    decoupling of N1 M1^-1: in each Neumann row, the largest entry off the
    diagonal over the diagonal one.  N1 and M1 come from the solution's own
    profiles, the ones its solve, its boundary values and its energies use."""
    from .gammacore import dtn_constant  # cross-check only

    params = sol.params
    report = VerificationReport("dtn_bessel_extraction", str(params), params.n)
    r = _dtn_matrix(sol)
    for (family, j), got in _dtn_diagonal(params, r).items():
        want = dtn_constant(params, family, j).value(params.frac_gamma)
        rel = abs(got - want) / abs(want)
        name = "cd"[FAMILIES.index(family)]
        report.record(rel <= tol, rel, f"{name}[{j}]: bessel {got:.12e} vs exact {want:.12e}")
    for row, (family, j) in enumerate(neumann_condition_list(params)):
        off = float(np.abs(np.delete(r[row], row)).max(initial=0.0) / abs(r[row, row]))
        report.record(off <= tol, off,
                      f"row B[{family},{j}] of N1 M1^-1: off-diagonal over diagonal {off:.3e}")
    return report


def verify_self_consistency(sol: ExtensionSolution, tol: float = 1e-9) -> VerificationReport:
    """Boundary extraction must reproduce the prescribed Dirichlet data."""
    report = VerificationReport("extension_self_consistency", str(sol.params), sol.params.n)
    mask = sol.resolved_mask()
    mask_or_zero = mask | (sol.xi2 == 0.0)
    for row, (family, j) in enumerate(sol.conds):
        got = sol.boundary_value_modes(family, j)
        want = sol.data_hat[row]
        scale = np.abs(want).max() + 1e-300
        err = np.abs(got - want)[mask_or_zero].max() / scale
        report.record(err <= tol, err, f"B[{family},{j}] reproduces datum: rel err {err:.3e}")
    return report


def yang_extension_check(sol: ExtensionSolution, tol_trace: float = 1e-8,
                         tol_cs: float = 1e-6) -> VerificationReport:
    """The interior-trace normalizations and the weighted-Neumann
    representation of the fractional Laplacian, on U0, the solution with sol's
    datum 0 alone.  By linearity U0 = f_hat sum_i c_i P_i(|xi| y) with
    c = M1^-1 e_0, so it needs no solve or transform of its own."""
    params = sol.params
    report = VerificationReport("yang_extension", str(params), params.n)
    fl, fr = params.floor_gamma, float(params.frac_gamma)
    mask = sol.resolved_mask().reshape(-1)
    xi2, xi_abs = sol.xi2.reshape(-1)[mask], sol.xi_abs.reshape(-1)[mask]
    f_hat = sol.data_hat[0].reshape(-1)
    scale = np.abs(f_hat).max() + 1e-300
    f_hat = f_hat[mask]
    c = np.linalg.solve(sol.m1, np.eye(len(sol.conds))[0])

    # both traces of each weighted Laplacian power on the resolved modes, one
    # power held at a time
    jets = NumericJets(fl, params.frac_gamma,
                       *([order(tau) * f_hat for tau in range(fl + 1)]
                         for order in (_combined_order(sol.profiles, c[None, :], xi_abs, branch)
                                       for branch in (0, 1))))
    traces = []
    for _ in range(fl + 1):
        traces.append((jets.restrict(), jets.restrict_weighted_neumann()))
        jets = jets.weighted_laplacian(xi2)

    def _max_abs(arr):
        return float(np.abs(arr).max(initial=0.0))

    # interior traces of the weighted Laplacian powers
    for j in range(1, fl // 2 + 1):
        got = traces[j][0]
        # Gamma(g-j)/Gamma(g) = 1/poch(g-j, j)
        const = math.factorial(fl) / math.factorial(fl - j) / _poch_f(params.gamma - j, j)
        want = const * (-xi2) ** j * f_hat
        err = _max_abs(got - want) / scale
        report.record(err <= tol_trace, err, f"interior trace at power {j}: rel err {err:.3e}")
    # weighted Neumann traces vanish below the top order
    for j in range(fl - fl // 2):
        err = _max_abs(traces[j][1]) / scale
        report.record(err <= tol_trace, err, f"neumann trace vanishes at power {j}: rel err {err:.3e}")

    # top-order weighted Neumann trace recovers the fractional Laplacian, whose
    # spectral route multiplies f_hat by |xi|^(2 gamma) and never reads a profile.
    # The representation constant is the reciprocal of the energy constant
    # 2^(1-2[g]) fl! gamma Gamma(-gamma)/Gamma([g]) (the half-integer
    # specialization (-1)^(k+1) (2k-1)!!/(2^k k!) pins the convention), with
    # gamma Gamma(-gamma) = -Gamma(1 - gamma) from the exact order.
    yang = (-2.0 ** (1.0 - 2.0 * fr) * math.factorial(fl)
            * _gamma_f(1 - params.gamma) / math.gamma(fr))
    want = xi2 ** float(params.gamma) * f_hat
    err = _max_abs(traces[fl][1] / yang - want) / (_max_abs(want) + 1e-300)
    report.record(err <= tol_cs, err, f"fractional Laplacian via weighted Neumann: rel err {err:.3e}")
    return report

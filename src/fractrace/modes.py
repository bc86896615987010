"""Numerical realization of the extension problem on a periodic boundary grid.

Everything works per Fourier mode, on the rfftn half spectrum of the real
boundary data (GridField.fft; sums over modes weigh each entry with
GridField.pair_weights), so every +-xi pair is solved, evaluated and summed
once.  For a boundary frequency xi != 0 the decaying solutions of the
per-mode equation are spanned by the profiles t^gamma K_nu(t) at t = |xi| y,
one for each scattering order nu attached to gamma.  Profiles are normalized
through their exact Frobenius branch series (never by fitting), and boundary
operators are read off the two-branch jets.
The problem is homogeneous in t = |xi| y, so the Dirichlet system is one
k x k matrix per order, built at |xi| = 1 and scaled to each mode by powers of
|xi|.  The boundary jets of the solution stay per branch order, only the orders
an operator reads, at the true |xi| of every mode, so the self-consistency
check still tests that scaling independently.
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
from .gammacore import GammaParams
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


def _poch_f(q: float, i: int) -> float:
    if i >= 0:
        out = 1.0
        for t in range(i):
            out *= q + t
        return out
    out = 1.0
    for t in range(1, -i + 1):
        out *= q - t
    return 1.0 / out


def _rho_even_f(fl: int, fr: float, j: int, ell: int) -> float:
    return (
        math.comb(j, ell)
        * _poch_f(1 - fr, j) / _poch_f(1 - fr, j - ell)
        * _poch_f(1 - fr, 2 * j - 2 * ell - fl) / _poch_f(1 - fr, 2 * j - ell - fl)
    )


def _rho_odd_f(fl: int, fr: float, j: int, ell: int) -> float:
    return (
        math.comb(j, ell)
        * _poch_f(fr, 1 + j) / _poch_f(fr, 1 + j - ell)
        * _poch_f(fr, 1 + 2 * j - 2 * ell - fl) / _poch_f(fr, 1 + 2 * j - ell - fl)
    )


@functools.lru_cache(maxsize=None)
def boundary_symbol_float(fl: int, fr: float, family: str, j: int) -> MappingProxyType:
    """{(t_power, lap_power): weight}; same recursion as the exact jets, float.

    Memoized, so a symbol at index j costs j + 1 evaluations instead of
    2^(j+1) - 1; the result is a read-only view of the cached dict."""
    sign = (-1.0) ** j if family == "even" else (-1.0) ** (j + 1)
    rho = _rho_even_f if family == "even" else _rho_odd_f
    out = {(j, 0): sign}
    for ell in range(1, j + 1):
        w = rho(fl, fr, j, ell)
        for (tp, lp), c in boundary_symbol_float(fl, fr, family, j - ell).items():
            out[(tp, lp + ell)] = out.get((tp, lp + ell), 0.0) - w * c
    return MappingProxyType(out)


def _t_chain_even(fr: float, tau: int) -> float:
    out = 1.0
    for i in range(1, tau + 1):
        out *= 4.0 * i * (i - fr)
    return out


def _t_chain_odd(fr: float, tau: int) -> float:
    out = 2.0 * fr
    for i in range(1, tau + 1):
        out *= 4.0 * i * (i + fr)
    return out


def _apply_symbol(fl: int, fr: float, family: str, j: int, xi2, order) -> np.ndarray:
    """The boundary operator B[family, j] with the tangential symbol -|xi|^2.

    order(tau) gives the jet coefficient array at y-order tau of the family's
    branch (a for even, b for odd); the symbol reads each tau <= j once, and
    its term is added into the result before the next order is requested.
    """
    chain = _t_chain_even if family == "even" else _t_chain_odd
    out = None
    for (tau, lp), w in boundary_symbol_float(fl, fr, family, j).items():
        piece = w * chain(fr, tau) * order(tau)
        piece *= (-xi2) ** lp
        if out is None:
            out = piece
        else:
            out += piece
    return out


class NumericJets:
    """Two-branch jet coefficient arrays over a mode grid (vectorized)."""

    def __init__(self, fl: int, fr: float, a, b):
        self.fl, self.fr = fl, fr
        self.a = a  # list of complex arrays, index = y^(2q) order
        self.b = b  # list of complex arrays, index = y^(2 fr + 2q) order

    def apply_boundary(self, family: str, j: int, xi2) -> np.ndarray:
        """Evaluate the boundary operator with the tangential symbol -|xi|^2."""
        arrays = self.a if family == "even" else self.b
        return _apply_symbol(self.fl, self.fr, family, j, xi2, arrays.__getitem__)

    def weighted_laplacian(self, xi2) -> "NumericJets":
        fr = self.fr
        a = [4.0 * (q + 1) * (q + 1 - fr) * self.a[q + 1] + (-xi2) * self.a[q]
             for q in range(len(self.a) - 1)]
        b = [4.0 * (q + 1) * (q + 1 + fr) * self.b[q + 1] + (-xi2) * self.b[q]
             for q in range(len(self.b) - 1)]
        return NumericJets(self.fl, fr, a, b)

    def restrict(self):
        return self.a[0]

    def restrict_weighted_neumann(self):
        return 2.0 * self.fr * self.b[0]


# ---------------------------------------------------------------------------
# Mode profiles
# ---------------------------------------------------------------------------


def scattering_orders(params: GammaParams):
    """(kind, slot, nu) for every profile attached to gamma, Dirichlet order."""
    g, fl, fr = params.gamma, params.floor_gamma, params.frac_gamma
    out = [("even", j, g - 2 * j) for j in range(params.n_even_data)]
    out += [("odd", j, fl - fr - 2 * j) for j in range(params.n_odd_data)]
    return out


@dataclass
class ModeProfile:
    """Decaying per-mode solution t^gamma K_nu(t), Frobenius-normalized.

    lead_exponent is the t power of the normalized leading branch (2j for the
    even kind, 2[g]+2j for the odd kind); the other branch leads at
    lead_exponent + 2 nu with coefficient equal to the scattering symbol value
    2^(-2 nu) Gamma(-nu)/Gamma(nu) at |xi| = 1.
    """

    params: GammaParams
    j: int
    kind: str
    nu: Fraction

    def __post_init__(self):
        g = self.params.gamma
        fr = self.params.frac_gamma
        fl = self.params.floor_gamma
        nu = float(self.nu)
        self.nu_f = nu
        if self.kind == "even":
            self.lead_exponent = Fraction(2 * self.j)
            self.lead_branch = "a"
        else:
            self.lead_exponent = 2 * fr + 2 * self.j
            self.lead_branch = "b"
        self.lead_index = self.j
        self.co_index = fl - self.j
        self.co_exponent = self.lead_exponent + 2 * self.nu
        # scattering symbol at |xi| = 1 (signed float Gamma, stdlib)
        self.sigma = 2.0 ** (-2.0 * nu) * math.gamma(-nu) / math.gamma(nu)
        # branch series: coefficient of t^(lead + 2j) is 1/(4^j j! poch(1 -+ nu, j))
        self.lead_series = np.array(
            [1.0 / (4.0 ** i * math.factorial(i) * _poch_f(1.0 - nu, i))
             for i in range(SERIES_ORDER)]
        )
        self.co_series = self.sigma * np.array(
            [1.0 / (4.0 ** i * math.factorial(i) * _poch_f(1.0 + nu, i))
             for i in range(SERIES_ORDER)]
        )
        # norm so that t^gamma K_nu(t) = C * (branch sum)
        s = math.sin(math.pi * nu)
        self.bessel_norm = 2.0 ** nu * math.pi / (2.0 * s * math.gamma(1.0 - nu))

    def eval(self, t):
        """Profile values; series below the switchover, Bessel kernel above."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        small = (t > 0) & (t < T_SERIES)
        mid = (t >= T_SERIES) & (t <= T_MAX)
        if np.any(small):
            ts = t[small]
            acc = np.zeros_like(ts)
            for exponent, series in ((self.lead_exponent, self.lead_series),
                                     (self.co_exponent, self.co_series)):
                powers = ts ** float(exponent)
                poly = np.zeros_like(ts)
                t2 = ts * ts
                for c in series[::-1]:
                    poly = poly * t2 + c
                acc += powers * poly
            out[small] = acc
        if np.any(mid):
            g = float(self.params.gamma)
            out[mid] = t[mid] ** g * bessel_k(self.nu_f, t[mid]) / self.bessel_norm
        zero = t == 0
        if np.any(zero) and self.lead_exponent == 0:
            out[zero] = self.lead_series[0]
        return out

    def jets(self, xi_abs: np.ndarray):
        """Two-branch y-jet coefficient arrays at boundary frequency |xi|.

        The y^(2q) (resp. y^(2[g]+2q)) coefficient of P(|xi| y) / |xi|^lead
        for q <= [g], the orders every boundary operator reads.
        """
        xi2 = xi_abs * xi_abs

        def order(branch, tau):
            out = np.zeros_like(xi_abs, dtype=complex)
            term = self.jet_term(branch, tau, xi_abs, xi2)
            if term is not None:
                out += term
            return out

        orders = range(self.params.floor_gamma + 1)
        return tuple([order(branch, tau) for tau in orders] for branch in "ab")

    def jet_term(self, branch: str, tau: int, xi_abs: np.ndarray, xi2: np.ndarray):
        """The one term of jets(xi_abs) at order tau of branch 'a' or 'b',
        as a float array, or None where the profile has no term; xi2 is
        xi_abs * xi_abs."""
        if branch == self.lead_branch:
            i = tau - self.lead_index
            return self.lead_series[i] * xi2 ** i if i >= 0 else None
        i = tau - self.co_index
        if i < 0:
            return None
        return self.co_series[i] * xi_abs ** (2.0 * float(self.nu)) * xi2 ** i

    def ode_residual(self) -> float:
        """Relative residual of (T_t - 1)^k on the profile, T_t = d^2/dt^2 + (m/t) d/dt.

        The operator is applied exactly to both representations eval uses; only
        the result is evaluated in floats, so no step size enters.

        - Bessel side: d/dt[t^a K_mu] = (a - mu) t^(a-1) K_mu - t^a K_(mu-1)
          (DLMF 10.29) expands the result into terms t^(gamma-i) K_(nu-j).
          Only equal (i, j) merge, so the cancellation the ODE demands happens
          between kernel values at different orders; measured as
          |sum| / max |term|.
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

        def ddt(terms):
            out = {}
            for (i, j), c in terms.items():
                out[(i + 1, j)] = out.get((i + 1, j), 0.0) + c * ((g - i) - (self.nu_f - j))
                out[(i, j + 1)] = out.get((i, j + 1), 0.0) - c
            return out

        terms = {(0, 0): 1.0}
        for _ in range(params.k):
            first = ddt(terms)
            nxt = ddt(first)
            for (i, j), c in first.items():
                nxt[(i + 1, j)] = nxt.get((i + 1, j), 0.0) + m * c
            for key, c in terms.items():
                nxt[key] = nxt.get(key, 0.0) - c
            terms = nxt
        t = BESSEL_SAMPLES
        kernel = {j: bessel_k(self.nu_f - j, t) for j in {j for _, j in terms}}
        vals = np.array([c * t ** (g - i) * kernel[j] for (i, j), c in terms.items()])
        worst = np.max(np.abs(vals.sum(axis=0)) / np.abs(vals).max(axis=0))

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
            for stage in range(1, params.k + 1):
                coeff = np.append(coeff[1:] * p[1:] * (p[1:] - 1.0 + m), 0.0) - coeff
                stages[stage] += powers @ coeff
        worst = max(worst, np.max(np.abs(stages[-1]) / np.abs(stages).max(axis=0)))

        below, at = self.eval(np.array([np.nextafter(T_SERIES, 0.0), T_SERIES]))
        return float(max(worst, abs(below - at) / max(abs(below), abs(at))))


def all_profiles(params: GammaParams):
    return [ModeProfile(params, j, kind, nu) for kind, j, nu in scattering_orders(params)]


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
        """Coefficients per mode from the one |xi| = 1 matrix M1.

        The problem is homogeneous, so the Dirichlet matrix at |xi| is
        M1[row, col] |xi|^(e_row - lead_col), with e_row = 2j for even rows and
        2[g] + 2j for odd rows; hence coeffs = |xi|^lead (M1^-1 (|xi|^-e f)).
        """
        fr = self.params.frac_gamma
        flat_xi, zero = self._flat_xi()
        unit = _unit_matrix(self.params, self.conds,
                            [p.jets(np.ones(1)) for p in self.profiles])
        e = np.array([float(2 * j if family == "even" else 2 * fr + 2 * j)
                      for family, j in self.conds])
        lead = np.array([float(p.lead_exponent) for p in self.profiles])
        coeffs = np.linalg.solve(
            unit, np.stack([dh.reshape(-1) for dh in self.data_hat]) * flat_xi ** -e[:, None])
        coeffs *= flat_xi ** lead[:, None]
        coeffs = coeffs.T
        coeffs[zero, :] = 0.0
        self.coeffs = coeffs  # [modes, profile]

        # zero mode: polynomial kernel of the pure normal operator; with the
        # tangential symbol at zero the conditions diagonalize on monomials
        self.zero_even = np.zeros(self.params.n_even_data, dtype=complex)
        self.zero_odd = np.zeros(self.params.n_odd_data, dtype=complex)
        for row, (family, j) in enumerate(self.conds):
            val = self.data_hat[row].flat[0]   # flat index 0 is xi = 0
            if family == "even":
                self.zero_even[j] = val / ((-1.0) ** j * _t_chain_even(fr, j))
            else:
                self.zero_odd[j] = val / ((-1.0) ** (j + 1) * _t_chain_odd(fr, j))

    def _flat_xi(self, modes=slice(None)):
        """Flat |xi| on the modes (an index array or a slice) with the zero
        mode set to 1 (a placeholder: the zero mode is handled separately),
        and the zero-mode mask."""
        flat_xi = self.xi_abs.reshape(-1)[modes].copy()
        zero = flat_xi == 0.0
        flat_xi[zero] = 1.0
        return flat_xi, zero

    def _jet_order(self, branch: str, modes=slice(None)):
        """The function tau -> order tau of the solution's y-jet in branch 'a'
        (y^(2 tau)) or 'b' (y^(2{g} + 2 tau)) over the flat modes (an index
        array or a slice): each profile's coefficient times its one series
        term at the true |xi|, and the zero mode from the polynomial data."""
        xi_abs, zero = self._flat_xi(modes)
        xi2 = xi_abs * xi_abs
        coeffs = self.coeffs[modes]
        zero_vals = self.zero_even if branch == "a" else self.zero_odd

        def order(tau):
            out = np.zeros(xi_abs.size, dtype=complex)
            for col, prof in enumerate(self.profiles):
                term = prof.jet_term(branch, tau, xi_abs, xi2)
                if term is not None:
                    out += coeffs[:, col] * term
            out[zero] = zero_vals[tau] if tau < zero_vals.size else 0.0
            return out

        return order

    def solution_jets(self, modes=slice(None)) -> NumericJets:
        """Jets of the assembled solution over the flat modes, all of them
        (zero mode included) by default."""
        fl = self.params.floor_gamma
        a, b = ([order(q) for q in range(fl + 1)]
                for order in (self._jet_order(branch, modes) for branch in "ab"))
        return NumericJets(fl, float(self.params.frac_gamma), a, b)

    def boundary_value_modes(self, family: str, j: int) -> np.ndarray:
        """B[family, j] of the solution over all modes.  The operator reads
        branch a (even) or b (odd) up to order j only; each order is built at
        the true |xi| and added into the output before the next is built."""
        out = _apply_symbol(self.params.floor_gamma, float(self.params.frac_gamma),
                            family, j, self.xi2.reshape(-1),
                            self._jet_order("a" if family == "even" else "b"))
        return out.reshape(self.xi2.shape)

    def boundary_value(self, family: str, j: int) -> GridField:
        return GridField.from_modes(self.template, self.boundary_value_modes(family, j))

    def evaluate(self, y: float) -> GridField:
        """The solution restricted to height y, as a boundary grid field."""
        flat_xi, zero = self._flat_xi()
        out = np.zeros(flat_xi.size, dtype=complex)
        for col, prof in enumerate(self.profiles):
            scale = flat_xi ** -float(prof.lead_exponent)
            out += self.coeffs[:, col] * prof.eval(flat_xi * y) * scale
        fr = float(self.params.frac_gamma)
        out[zero] = sum(self.zero_even[q] * y ** (2 * q) for q in range(self.zero_even.size))
        out[zero] += sum(self.zero_odd[q] * y ** (2 * fr + 2 * q) for q in range(self.zero_odd.size))
        return GridField.from_modes(self.template, out.reshape(self.xi2.shape))


def solve_extension(params: GammaParams, data_fields) -> ExtensionSolution:
    if not data_fields:
        raise GridError("no Dirichlet data supplied")
    return ExtensionSolution(params, data_fields[0], data_fields)


def neumann_indices(params: GammaParams) -> dict:
    """{2 alpha: (family, j)} for every Neumann-family operator."""
    fr = params.frac_gamma
    return {(Fraction(2 * j) if family == "even" else 2 * fr + 2 * j): (family, j)
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


def _unit_matrix(params: GammaParams, conds, unit_jets) -> np.ndarray:
    """The k x k matrix at |xi| = 1 whose entry (row, col) applies the row's
    condition from conds to profile col, given the profiles' jets at
    |xi| = 1: M1 for dirichlet_condition_list, N1 for neumann_condition_list.
    The profiles sit side by side in one jet, so each row's operator symbol
    is built once."""
    a, b = ([np.concatenate([jet[branch][q] for jet in unit_jets])
             for q in range(len(unit_jets[0][branch]))] for branch in (0, 1))
    nj = NumericJets(params.floor_gamma, float(params.frac_gamma), a, b)
    one = np.ones(len(unit_jets))
    return np.array([nj.apply_boundary(family, j, one) for family, j in conds])


def extract_dtn_constants(params: GammaParams):
    """Neumann outputs of the unit-datum Dirichlet problems at |xi| = 1.  The
    solution with datum one in slot i alone has profile coefficients
    M1^-1 e_i, so its paired Neumann output is (N1 M1^-1)[i, i].  Returns
    {('even'|'odd', j): value} where 'even' maps the even datum slot j
    (c-type constant) and 'odd' the odd slot (d-type constant, sign
    convention: B = -d (-Lap)^nu phi)."""
    jets = [p.jets(np.ones(1)) for p in all_profiles(params)]
    m1 = _unit_matrix(params, dirichlet_condition_list(params), jets)
    n1 = _unit_matrix(params, neumann_condition_list(params), jets)
    diag = np.real(np.diag(np.linalg.solve(m1.T, n1.T)))
    return {(family, j): float(val if family == "even" else -val)
            for (family, j), val in zip(dirichlet_condition_list(params), diag)}


def verify_dtn_constants(params: GammaParams, tol: float = 1e-8) -> VerificationReport:
    """Bessel-branch extraction against the closed-form constants."""
    from .gammacore import dtn_constant_even, dtn_constant_odd  # cross-check only

    report = VerificationReport("dtn_bessel_extraction", str(params), params.n)
    extracted = extract_dtn_constants(params)
    for j in range(params.n_even_data):
        want = dtn_constant_even(params, j).value(params.frac_gamma)
        got = extracted[("even", j)]
        rel = abs(got - want) / abs(want)
        report.record(rel <= tol, rel, f"c[{j}]: bessel {got:.12e} vs exact {want:.12e}")
    for j in range(params.n_odd_data):
        want = dtn_constant_odd(params, j).value(params.frac_gamma)
        got = extracted[("odd", j)]
        rel = abs(got - want) / abs(want)
        report.record(rel <= tol, rel, f"d[{j}]: bessel {got:.12e} vs exact {want:.12e}")
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


def yang_extension_check(params: GammaParams, f: GridField,
                         tol_trace: float = 1e-8, tol_cs: float = 1e-6) -> VerificationReport:
    """Solve with only the order-zero datum and verify the interior-trace
    normalizations and the weighted-Neumann representation of the fractional
    Laplacian."""
    report = VerificationReport("yang_extension", str(params), params.n)
    fl, fr = params.floor_gamma, float(params.frac_gamma)
    g = float(params.gamma)
    conds = dirichlet_condition_list(params)
    zero = f.like(np.zeros(f.shape))
    data = [f if (fam, j) == ("even", 0) else zero for (fam, j) in conds]
    sol = solve_extension(params, data)
    mask = sol.resolved_mask().reshape(-1)
    xi2 = sol.xi2.reshape(-1)
    f_hat = sol.data_hat[0].reshape(-1)
    scale = np.abs(f_hat).max() + 1e-300

    # both traces of each weighted Laplacian power, one power held at a time
    jets, traces = sol.solution_jets(), []
    for _ in range(fl + 1):
        traces.append((jets.restrict(), jets.restrict_weighted_neumann()))
        jets = jets.weighted_laplacian(xi2)

    def _masked_max(arr):
        vals = np.abs(arr)[mask]
        return float(vals.max()) if vals.size else 0.0

    # interior traces of the weighted Laplacian powers
    for j in range(1, fl // 2 + 1):
        got = traces[j][0]
        const = (math.factorial(fl) / math.factorial(fl - j)) * _poch_f(g - j, j) ** -1
        # Gamma(g-j)/Gamma(g) = 1/poch(g-j, j)
        want = const * (-xi2) ** j * f_hat
        err = _masked_max(got - want) / scale
        report.record(err <= tol_trace, err, f"interior trace at power {j}: rel err {err:.3e}")
    # weighted Neumann traces vanish below the top order
    for j in range(fl - fl // 2):
        got = traces[j][1]
        err = _masked_max(got) / scale
        report.record(err <= tol_trace, err, f"neumann trace vanishes at power {j}: rel err {err:.3e}")

    # top-order weighted Neumann trace recovers the fractional Laplacian.
    # The representation constant is the reciprocal of the energy constant
    # 2^(1-2[g]) fl! gamma Gamma(-gamma)/Gamma([g]) (the half-integer
    # specialization (-1)^(k+1) (2k-1)!!/(2^k k!) pins the convention).
    yang = (
        2.0 ** (1.0 - 2.0 * fr)
        * math.factorial(fl)
        * g * math.gamma(-g) / math.gamma(fr)
    )
    lhs_modes = traces[fl][1] / yang
    frac = fractional_laplacian_fft(f, g)
    want_modes = frac.fft().reshape(-1)
    scale2 = _masked_max(want_modes) + 1e-300
    err = _masked_max(lhs_modes - want_modes) / scale2
    report.record(err <= tol_cs, err, f"fractional Laplacian via weighted Neumann: rel err {err:.3e}")
    return report

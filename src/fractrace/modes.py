"""Numerical realization of the extension problem on a periodic boundary grid.

Everything works per Fourier mode.  For a boundary frequency xi != 0 the
decaying solutions of the per-mode equation are spanned by the profiles
t^gamma K_nu(t) at t = |xi| y, one for each scattering order nu attached to
gamma.  Profiles are normalized through their exact Frobenius branch series
(never by fitting), the Dirichlet system is solved mode by mode, and boundary
operators are read off the two-branch jets.

The closed-form Dirichlet-to-Neumann constants are reproduced here from the
Bessel branch data alone: this module deliberately reimplements the small
amount of shared machinery (float Pochhammer products, the boundary-operator
recursion) so the comparison against the exact constants is a genuine
cross-check and not a tautology.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .besselk import bessel_k
from .gammacore import GammaParams
from .report import VerificationReport, write_atomic

T_SERIES = 2.0     # below: Frobenius branch series; above: bessel_k
T_MAX = 30.0       # profiles are below 1e-13 of scale here and treated as zero
SERIES_ORDER = 34  # branch series order; headroom for repeated T applications
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
        if self.n not in (1, 2):
            raise GridError(f"boundary dimension must be 1 or 2, got {self.n}")
        if len(self.shape) != self.n:
            raise GridError(f"shape {self.shape} does not match dimension {self.n}")
        for s in self.shape:
            if s & (s - 1):
                raise GridError(f"grid sizes must be powers of two, got {s}")
        self.values = np.asarray(self.values, dtype=float).reshape(self.shape)
        if not np.all(np.isfinite(self.values)):
            raise GridError("grid field contains non-finite values")

    def coords(self):
        L = self.box_length
        axes = [(-L / 2 + L * np.arange(s) / s) for s in self.shape]
        if self.n == 1:
            return axes[0]
        return np.meshgrid(*axes, indexing="ij")

    def same_grid(self, other: "GridField") -> bool:
        return (
            self.n == other.n
            and self.shape == other.shape
            and abs(self.box_length - other.box_length) < 1e-12 * self.box_length
        )

    def fft(self) -> np.ndarray:
        """Coefficients c_xi with f(x) = sum c_xi exp(i xi . x)."""
        return np.fft.fftn(self.values) / self.values.size

    def xi_axes(self):
        L = self.box_length
        return [2.0 * np.pi * np.fft.fftfreq(s) * s / L for s in self.shape]

    def xi_abs2(self) -> np.ndarray:
        axes = self.xi_axes()
        if self.n == 1:
            return axes[0] ** 2
        g = np.meshgrid(*axes, indexing="ij")
        return sum(a ** 2 for a in g)

    def xi_nyquist(self) -> float:
        return min(np.pi * s / self.box_length for s in self.shape)

    @classmethod
    def from_modes(cls, template: "GridField", modes: np.ndarray) -> "GridField":
        values = np.fft.ifftn(modes) * modes.size
        return cls(template.n, template.shape, template.box_length, np.real(values))

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
        return cls(meta["n"], tuple(meta["shape"]), float(meta["box_length"]), raw)

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


def gaussian_field(n: int, shape, box_length: float, width: float = 1.0,
                   center=None) -> GridField:
    f = GridField(n, tuple(shape), box_length, np.zeros(shape))
    if n == 1:
        x = f.coords()
        r2 = (x - (center or 0.0)) ** 2
    else:
        cx = center or (0.0, 0.0)
        X, Y = f.coords()
        r2 = (X - cx[0]) ** 2 + (Y - cx[1]) ** 2
    f.values = np.exp(-r2 / (2.0 * width ** 2))
    return f


def fractional_laplacian_fft(f: GridField, power: float) -> GridField:
    """Spectral fractional Laplacian: multiply modes by |xi|^(2 power)."""
    if power <= 0:
        raise ValueError("fractional_laplacian_fft requires power > 0")
    modes = f.fft()
    sym = f.xi_abs2() ** power
    sym.flat[0] = 0.0
    out = np.fft.ifftn(modes * sym) * f.values.size
    return GridField(f.n, f.shape, f.box_length, np.real(out))


# ---------------------------------------------------------------------------
# Independent float machinery (kept separate from the exact modules)
# ---------------------------------------------------------------------------


def _fornberg_weights(half_width: int, der: int) -> np.ndarray:
    """Central finite-difference weights on unit-spaced offsets, exact
    rational construction (Fornberg's recursion), returned as floats."""
    offsets = [Fraction(i) for i in range(-half_width, half_width + 1)]
    npts = len(offsets)
    c = [[Fraction(0)] * (der + 1) for _ in range(npts)]
    c1 = Fraction(1)
    c4 = offsets[0]
    c[0][0] = Fraction(1)
    for i in range(1, npts):
        mn = min(i, der)
        c2 = Fraction(1)
        c5 = c4
        c4 = offsets[i]
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                for kk in range(mn, 0, -1):
                    c[i][kk] = c1 * (kk * c[i - 1][kk - 1] - c5 * c[i - 1][kk]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for kk in range(mn, 0, -1):
                c[j][kk] = (c4 * c[j][kk] - kk * c[j][kk - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return np.array([float(row[der]) for row in c])


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


def boundary_symbol_float(fl: int, fr: float, family: str, j: int) -> dict:
    """{(t_power, lap_power): weight}; same recursion as the exact jets, float."""
    sign = (-1.0) ** j if family == "even" else (-1.0) ** (j + 1)
    rho = _rho_even_f if family == "even" else _rho_odd_f
    out = {(j, 0): sign}
    for ell in range(1, j + 1):
        w = rho(fl, fr, j, ell)
        for (tp, lp), c in boundary_symbol_float(fl, fr, family, j - ell).items():
            out[(tp, lp + ell)] = out.get((tp, lp + ell), 0.0) - w * c
    return out


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


class NumericJets:
    """Two-branch jet coefficient arrays over a mode grid (vectorized)."""

    def __init__(self, fl: int, fr: float, a, b):
        self.fl, self.fr = fl, fr
        self.a = a  # list of complex arrays, index = y^(2q) order
        self.b = b  # list of complex arrays, index = y^(2 fr + 2q) order

    def apply_boundary(self, family: str, j: int, xi2) -> np.ndarray:
        """Evaluate the boundary operator with the tangential symbol -|xi|^2."""
        symbol = boundary_symbol_float(self.fl, self.fr, family, j)
        arrays = self.a if family == "even" else self.b
        chain = _t_chain_even if family == "even" else _t_chain_odd
        out = None
        for (tau, lp), w in symbol.items():
            piece = w * chain(self.fr, tau) * arrays[tau] * (-xi2) ** lp
            out = piece if out is None else out + piece
        return out

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
            self.lead_index = self.j
            self.co_index = fl - self.j
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

    def jets(self, xi_abs: np.ndarray, truncation: int):
        """Two-branch y-jet coefficient arrays at boundary frequency |xi|.

        The y^(2q) (resp. y^(2[g]+2q)) coefficient of P(|xi| y) / |xi|^lead.
        """
        fl = self.params.floor_gamma
        a = [np.zeros_like(xi_abs, dtype=complex) for _ in range(truncation + 1)]
        b = [np.zeros_like(xi_abs, dtype=complex) for _ in range(truncation + 1)]
        lead, co = (a, b) if self.lead_branch == "a" else (b, a)
        xi2 = xi_abs * xi_abs
        co_scale = xi_abs ** (2.0 * float(self.nu))
        for i in range(truncation + 1):
            if self.lead_index + i <= truncation:
                lead[self.lead_index + i] += self.lead_series[i] * xi2 ** i
            if self.co_index + i <= truncation:
                co[self.co_index + i] += self.co_series[i] * co_scale * xi2 ** i
        return a, b

    def ode_residual(self, t_points=None, h: float = None, half_width: int = 6) -> float:
        """Relative residual of (T_t - 1)^k on the profile via nested
        high-order finite differences.

        Each stencil window must stay on one side of the series/Bessel
        switchover: the representations agree only to ~1e-14 there and nested
        differencing amplifies such a jump by h^(-2k).  Windows also stay away
        from t = 0 where fractional-branch derivatives blow up.  Residuals are
        measured against the largest intermediate magnitude, the natural scale
        of the cancellation.
        """
        params = self.params
        k, m = params.k, float(params.m)
        if h is None:
            # k nested second differences amplify the ~1e-14 evaluation noise
            # by h^(-2k); the step grows with k to keep that below 1e-7
            h = 0.055 if k <= 2 else (0.2 if k <= 4 else 0.25)
        if t_points is None:
            margin = half_width * k * h
            if k <= 2:
                t_points = [T_SERIES - margin - 0.1, margin + 2.4, 10.0, 16.0]
            else:
                t_points = [10.0, 16.0, min(22.0, T_MAX - margin - 0.2)]
        d1_w = _fornberg_weights(half_width, 1)
        d2_w = _fornberg_weights(half_width, 2)
        worst = 0.0
        for t0 in t_points:
            half = half_width * k
            grid = t0 + h * np.arange(-half, half + 1)
            if grid[0] <= 0 or (grid[0] < T_SERIES < grid[-1]):
                continue
            vals = self.eval(grid)
            scale = np.max(np.abs(vals)) + 1e-300
            w = half_width
            for _ in range(k):
                npts = vals.size
                inner = np.arange(w, npts - w)
                d2 = np.array([np.dot(d2_w, vals[i - w:i + w + 1]) for i in inner]) / h ** 2
                d1 = np.array([np.dot(d1_w, vals[i - w:i + w + 1]) for i in inner]) / h
                tt = grid[inner]
                vals = d2 + m * d1 / tt - vals[inner]
                grid = tt
                scale = max(scale, np.max(np.abs(vals)) + 1e-300)
            residual = np.max(np.abs(vals)) / scale
            worst = max(worst, residual)
        return worst


def build_mode_profile(params: GammaParams, j: int, kind: str) -> ModeProfile:
    g, fl, fr = params.gamma, params.floor_gamma, params.frac_gamma
    if kind == "even":
        if not 0 <= j < params.n_even_data:
            raise IndexError(f"even profile slot {j} out of range for gamma={g}")
        nu = g - 2 * j
    elif kind == "odd":
        if not 0 <= j < params.n_odd_data:
            raise IndexError(f"odd profile slot {j} out of range for gamma={g}")
        nu = fl - fr - 2 * j
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return ModeProfile(params, j, kind, nu)


def all_profiles(params: GammaParams):
    return [build_mode_profile(params, j, kind) for kind, j, _ in scattering_orders(params)]


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

    def __init__(self, params: GammaParams, template: GridField, data_fields,
                 truncation: int = None):
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
        self.truncation = truncation if truncation is not None else params.floor_gamma + 4
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

    def _profile_jets(self, xi_abs):
        return [p.jets(xi_abs, self.truncation) for p in self.profiles]

    def _solve(self):
        nmodes = self.xi2.size
        k = len(self.profiles)
        flat_xi = self.xi_abs.reshape(-1).copy()
        zero = flat_xi == 0.0
        flat_xi[zero] = 1.0  # placeholder, zero mode handled separately

        jets = self._profile_jets(flat_xi)
        fl, fr = self.params.floor_gamma, float(self.params.frac_gamma)
        matrix = np.zeros((nmodes, k, k), dtype=complex)
        xi2_flat = flat_xi ** 2
        for col, (a, b) in enumerate(jets):
            nj = NumericJets(fl, fr, a, b)
            for row, (family, j) in enumerate(self.conds):
                matrix[:, row, col] = nj.apply_boundary(family, j, xi2_flat)
        rhs = np.stack([dh.reshape(-1) for dh in self.data_hat], axis=-1)
        coeffs = np.linalg.solve(matrix, rhs[..., None])[..., 0]
        coeffs[zero, :] = 0.0
        self.coeffs = coeffs  # [modes, profile]

        # zero mode: polynomial kernel of the pure normal operator; with the
        # tangential symbol at zero the conditions diagonalize on monomials
        self.zero_even = np.zeros(self.params.n_even_data, dtype=complex)
        self.zero_odd = np.zeros(self.params.n_odd_data, dtype=complex)
        zero_idx = np.where(self.xi2.reshape(-1) == 0.0)[0]
        if zero_idx.size:
            i0 = zero_idx[0]
            for row, (family, j) in enumerate(self.conds):
                val = self.data_hat[row].reshape(-1)[i0]
                if family == "even":
                    self.zero_even[j] = val / ((-1.0) ** j * _t_chain_even(fr, j))
                else:
                    self.zero_odd[j] = val / ((-1.0) ** (j + 1) * _t_chain_odd(fr, j))

    def solution_jets(self) -> NumericJets:
        """Jets of the assembled solution over all modes (zero mode included)."""
        cached = getattr(self, "_jets_cache", None)
        if cached is not None:
            return cached
        fl, fr = self.params.floor_gamma, float(self.params.frac_gamma)
        shape = self.xi2.shape
        flat_xi = self.xi_abs.reshape(-1).copy()
        zero = flat_xi == 0.0
        flat_xi[zero] = 1.0
        jets = self._profile_jets(flat_xi)
        a = [np.zeros(flat_xi.size, dtype=complex) for _ in range(self.truncation + 1)]
        b = [np.zeros(flat_xi.size, dtype=complex) for _ in range(self.truncation + 1)]
        for col, (pa, pb) in enumerate(jets):
            c = self.coeffs[:, col]
            for q in range(self.truncation + 1):
                a[q] += c * pa[q]
                b[q] += c * pb[q]
        if np.any(zero):
            for q in range(self.truncation + 1):
                a[q][zero] = self.zero_even[q] if q < self.zero_even.size else 0.0
                b[q][zero] = self.zero_odd[q] if q < self.zero_odd.size else 0.0
        result = NumericJets(fl, fr, [x.reshape(shape) for x in a], [x.reshape(shape) for x in b])
        self._jets_cache = result
        return result

    def boundary_value_modes(self, family: str, j: int) -> np.ndarray:
        return self.solution_jets().apply_boundary(family, j, self.xi2)

    def boundary_value(self, family: str, j: int) -> GridField:
        return GridField.from_modes(self.template, self.boundary_value_modes(family, j))

    def evaluate(self, y: float) -> GridField:
        """The solution restricted to height y, as a boundary grid field."""
        flat_xi = self.xi_abs.reshape(-1)
        out = np.zeros(flat_xi.size, dtype=complex)
        for col, prof in enumerate(self.profiles):
            t = flat_xi * y
            vals = prof.eval(t)
            scale = np.ones_like(flat_xi)
            nz = flat_xi > 0
            scale[nz] = flat_xi[nz] ** (-float(prof.lead_exponent))
            out += self.coeffs[:, col] * vals * scale
        zero = flat_xi == 0.0
        if np.any(zero):
            fr = float(self.params.frac_gamma)
            val = sum(self.zero_even[q] * y ** (2 * q) for q in range(self.zero_even.size))
            val += sum(self.zero_odd[q] * y ** (2 * fr + 2 * q) for q in range(self.zero_odd.size))
            out[zero] = val
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


def extract_dtn_constants(params: GammaParams):
    """Solve the unit-datum Dirichlet problem at |xi| = 1 profile by profile
    and read off the Neumann outputs.  Returns {('even'|'odd', j): value}
    where 'even' maps the even datum slot j (c-type constant) and 'odd' the
    odd slot (d-type constant, sign convention: B = -d (-Lap)^nu phi)."""
    fl, fr = params.floor_gamma, float(params.frac_gamma)
    xi = np.array([1.0])
    truncation = params.floor_gamma + 4
    profiles = all_profiles(params)
    conds = dirichlet_condition_list(params)
    k = len(profiles)
    matrix = np.zeros((k, k), dtype=complex)
    jets = [p.jets(xi, truncation) for p in profiles]
    for col, (a, b) in enumerate(jets):
        nj = NumericJets(fl, fr, a, b)
        for row, (family, j) in enumerate(conds):
            matrix[row, col] = nj.apply_boundary(family, j, np.array([1.0]))[0]
    out = {}
    for slot, (family, j) in enumerate(conds):
        rhs = np.zeros(k, dtype=complex)
        rhs[slot] = 1.0
        c = np.linalg.solve(matrix, rhs)
        a = [np.zeros(1, dtype=complex) for _ in range(truncation + 1)]
        b = [np.zeros(1, dtype=complex) for _ in range(truncation + 1)]
        for col, (pa, pb) in enumerate(jets):
            for q in range(truncation + 1):
                a[q] += c[col] * pa[q]
                b[q] += c[col] * pb[q]
        nj = NumericJets(fl, fr, a, b)
        nfam, nj_idx = ("odd", fl - j) if family == "even" else ("even", fl - j)
        val = nj.apply_boundary(nfam, nj_idx, np.array([1.0]))[0]
        if family == "even":
            out[("even", j)] = float(np.real(val))          # c constant
        else:
            out[("odd", j)] = float(np.real(-val))          # -d (-Lap)^nu phi
    return out


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
    zero = GridField(f.n, f.shape, f.box_length, np.zeros(f.shape))
    data = [f if (fam, j) == ("even", 0) else zero for (fam, j) in conds]
    sol = solve_extension(params, data)
    mask = sol.resolved_mask()
    f_hat = sol.data_hat[0]
    scale = np.abs(f_hat).max() + 1e-300

    jets = sol.solution_jets()
    powers = [jets]
    for _ in range(fl):
        powers.append(powers[-1].weighted_laplacian(sol.xi2))

    def _masked_max(arr):
        vals = np.abs(arr)[mask]
        return float(vals.max()) if vals.size else 0.0

    # interior traces of the weighted Laplacian powers
    for j in range(1, fl // 2 + 1):
        got = powers[j].restrict()
        const = (math.factorial(fl) / math.factorial(fl - j)) * _poch_f(g - j, j) ** -1
        # Gamma(g-j)/Gamma(g) = 1/poch(g-j, j)
        want = const * (-sol.xi2) ** j * f_hat
        err = _masked_max(got - want) / scale
        report.record(err <= tol_trace, err, f"interior trace at power {j}: rel err {err:.3e}")
    # weighted Neumann traces vanish below the top order
    for j in range(fl - fl // 2):
        got = powers[j].restrict_weighted_neumann()
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
    lhs_modes = powers[fl].restrict_weighted_neumann() / yang
    frac = fractional_laplacian_fft(f, g)
    want_modes = frac.fft()
    scale2 = _masked_max(want_modes) + 1e-300
    err = _masked_max(lhs_modes - want_modes) / scale2
    report.record(err <= tol_cs, err, f"fractional Laplacian via weighted Neumann: rel err {err:.3e}")
    return report

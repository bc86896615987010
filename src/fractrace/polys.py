"""Exact calculus on the weighted radial-polynomial class of upper half space.

Elements are finite rational combinations of

    r^(2s) * x^alpha * y^(2*beta) * (y^(2[g]))^b,      r^2 = |x|^2 + y^2,

with s rational, alpha a multi-index, beta an integer (negative powers are
allowed formally; they only appear in intermediate expressions), and b in
{0, 1} flagging the fractional branch.  The class is closed under the
Laplacian, the weighted Laplacian at any weight, multiplication by r^2,
the radial directional derivative, and the Kelvin pullback, which is what the
commutation, factorization and conformal-covariance identities need.

Zero tests expand every integer power of r^2 multinomially, grouped by branch
flag and by fractional class of the r exponent, so identities are decided
exactly with no sampling error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import jets
from .gammacore import GammaParams
from .report import VerificationReport


def _falling(s: Fraction, j: int) -> Fraction:
    """s (s-1) ... (s-j+1); the Gamma(s+1)/Gamma(s+1-j) quotient as a product."""
    out = Fraction(1)
    for t in range(j):
        out *= s - t
    return out


def _rising_or_zero(q: Fraction, i: int) -> Fraction:
    """Gamma(q+i)/Gamma(q) for i >= 0.  A zero factor means the denominator
    Gamma sits at a pole while the numerator is finite, so the quotient
    continues to zero; only falling products can hit genuine poles."""
    assert i >= 0
    out = Fraction(1)
    for t in range(i):
        out *= q + t
    return out


class HalfSpacePoly:
    """terms: {(s, alpha, beta, b): coeff} over x in R^n and y > 0."""

    __slots__ = ("n", "frac_gamma", "terms")

    def __init__(self, n: int, frac_gamma: Fraction, terms=None):
        self.n = n
        self.frac_gamma = Fraction(frac_gamma)
        self.terms = {}
        if terms:
            for (s, alpha, beta, b), c in terms.items():
                if c == 0:
                    continue
                alpha = tuple(alpha)
                assert len(alpha) == n and all(e >= 0 for e in alpha), f"bad multi-index {alpha}"
                assert b in (0, 1), f"branch flag must be 0/1, got {b}"
                self.terms[(Fraction(s), alpha, int(beta), int(b))] = Fraction(c)

    @classmethod
    def monomial(cls, n, frac_gamma, s=0, alpha=None, beta=0, b=0, coeff=1):
        alpha = tuple(alpha) if alpha is not None else (0,) * n
        return cls(n, frac_gamma, {(Fraction(s), alpha, beta, b): Fraction(coeff)})

    def _new(self, terms):
        out = HalfSpacePoly.__new__(HalfSpacePoly)
        out.n, out.frac_gamma = self.n, self.frac_gamma
        out.terms = terms
        return out

    def _accum(self, acc, key, c):
        if c == 0:
            return
        cur = acc.get(key, Fraction(0)) + c
        if cur == 0:
            acc.pop(key, None)
        else:
            acc[key] = cur

    def __add__(self, other):
        acc = dict(self.terms)
        for key, c in other.terms.items():
            self._accum(acc, key, c)
        return self._new(acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return self._new({})
        return self._new({key: v * c for key, v in self.terms.items()})

    def mul_r2(self, power=1):
        """Multiply by r^(2*power); power may be any rational."""
        power = Fraction(power)
        return self._new({(s + power, a, be, b): c for (s, a, be, b), c in self.terms.items()})

    def mul_y2(self, power=1):
        return self._new({(s, a, be + power, b): c for (s, a, be, b), c in self.terms.items()})

    def __mul__(self, other):
        acc = {}
        for (s1, a1, be1, b1), c1 in self.terms.items():
            for (s2, a2, be2, b2), c2 in other.terms.items():
                if b1 and b2:
                    raise ValueError("product would need the y^(4[g]) branch; not representable")
                key = (s1 + s2, tuple(x + y for x, y in zip(a1, a2)), be1 + be2, b1 | b2)
                self._accum(acc, key, c1 * c2)
        return self._new(acc)

    def is_empty(self) -> bool:
        return not self.terms

    # -- derivations ------------------------------------------------------

    def lap_x(self):
        """Tangential Laplacian (the x variables only).

        The sum of x_i^2 r^(2s-4) terms is collapsed through x^2 = r^2 - y^2
        to keep the term count dimension-independent.
        """
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            if s != 0:
                self._accum(acc, (s - 1, a, be, b),
                            c * (2 * s * self.n + 4 * s * sum(a) + 4 * s * (s - 1)))
                self._accum(acc, (s - 2, a, be + 1, b), -c * 4 * s * (s - 1))
            for i in range(self.n):
                if a[i] >= 2:
                    a2 = list(a); a2[i] -= 2
                    self._accum(acc, (s, tuple(a2), be, b), c * a[i] * (a[i] - 1))
        return self._new(acc)

    def dx(self, i: int):
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            if s != 0:
                a2 = list(a); a2[i] += 1
                self._accum(acc, (s - 1, tuple(a2), be, b), c * 2 * s)
            if a[i] >= 1:
                a2 = list(a); a2[i] -= 1
                self._accum(acc, (s, tuple(a2), be, b), c * a[i])
        return self._new(acc)

    def _q(self, be, b):
        return 2 * be + 2 * self.frac_gamma * b

    def dy2(self):
        """Second y derivative; r^(2s-4) y^2 terms from differentiating r."""
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            q = self._q(be, b)
            if s != 0:
                self._accum(acc, (s - 2, a, be + 1, b), c * 4 * s * (s - 1))
                self._accum(acc, (s - 1, a, be, b), c * 2 * s * (2 * q + 1))
            self._accum(acc, (s, a, be - 1, b), c * q * (q - 1))
        return self._new(acc)

    def dy_over_y(self):
        """y^(-1) d_y; the beta-1 slot may go negative (formal Laurent term)."""
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            q = self._q(be, b)
            if s != 0:
                self._accum(acc, (s - 1, a, be, b), c * 2 * s)
            self._accum(acc, (s, a, be - 1, b), c * q)
        return self._new(acc)

    def y_dy(self):
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            q = self._q(be, b)
            if s != 0:
                self._accum(acc, (s - 1, a, be + 1, b), c * 2 * s)
            self._accum(acc, (s, a, be, b), c * q)
        return self._new(acc)

    def laplacian(self):
        return self.lap_x() + self.dy2()

    def weighted_laplacian(self, m):
        return self.laplacian() + self.dy_over_y().scale(m)

    def directional_r2(self, ell: int = 1):
        """ell-th covariant derivative contracted with the r^2 gradient.

        On a monomial of homogeneity d this is 2^ell d(d-1)...(d-ell+1), the
        falling-factorial of the Euler operator.
        """
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            d = 2 * s + sum(a) + self._q(be, b)
            self._accum(acc, (s, a, be, b), c * Fraction(2) ** ell * _falling(d, ell))
        return self._new(acc)

    def kelvin_pullback(self, w):
        """r^(2w) times the composition with the inversion z -> z / r^2.

        x^alpha picks up r^(-2|alpha|), y^(2 beta) picks up r^(-4 beta), and
        the branch factor y^(2[g]) picks up r^(-4[g]).
        """
        w = Fraction(w)
        return self._new({
            (w - s - sum(a) - 2 * be - 2 * self.frac_gamma * b, a, be, b): c
            for (s, a, be, b), c in self.terms.items()
        })

    # -- restriction to the boundary --------------------------------------

    def iota(self) -> "BoundaryPoly":
        """Value at y = 0 (keeps terms with zero y exponent; r becomes |x|)."""
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            if be < 0:
                raise ValueError("restriction of a negative y power")
            if be == 0 and b == 0:
                key = (s, a)
                acc[key] = acc.get(key, Fraction(0)) + c
        return BoundaryPoly(self.n, {k: v for k, v in acc.items() if v != 0})

    def iota_weighted_neumann(self) -> "BoundaryPoly":
        """y^m d_y at y -> 0+; only branch terms with beta = 0 survive, with
        factor 2[g]."""
        acc = {}
        for (s, a, be, b), c in self.terms.items():
            if be < 0:
                raise ValueError("restriction of a negative y power")
            if be == 0 and b == 1:
                key = (s, a)
                acc[key] = acc.get(key, Fraction(0)) + c * 2 * self.frac_gamma
        return BoundaryPoly(self.n, {k: v for k, v in acc.items() if v != 0})

    # -- exact zero test ---------------------------------------------------

    def is_zero_function(self) -> bool:
        """Decide whether the element is the zero function.

        Terms are grouped by branch flag and fractional class of s; inside a
        group all r powers are lowered to the common minimum by multinomial
        expansion of r^2 = |x|^2 + y^2, after which coefficients must vanish.
        """
        groups = {}
        for (s, a, be, b), c in self.terms.items():
            frac = s - (s.numerator // s.denominator)
            groups.setdefault((b, frac), []).append((s, a, be, c))
        for (b, _), entries in groups.items():
            base = min(s.numerator // s.denominator for s, _, _, _ in entries)
            acc = {}
            for s, a, be, c in entries:
                t = s.numerator // s.denominator - base
                for xa, ny, mult in _expand_r2(self.n, t):
                    key = (tuple(x + y for x, y in zip(a, xa)), be + ny)
                    cur = acc.get(key, Fraction(0)) + c * mult
                    if cur == 0:
                        acc.pop(key, None)
                    else:
                        acc[key] = cur
            if acc:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, HalfSpacePoly) and (self - other).is_zero_function()

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (s, a, be, b), c in sorted(self.terms.items()):
            bits.append(f"({c})*r^{{2*{s}}}x^{a}y^{{2*{be}}}b{b}")
        return " + ".join(bits)


def _expand_r2(n: int, t: int):
    """Multinomial expansion of (x_1^2+...+x_n^2+y^2)^t.

    Yields (alpha, ny, coeff) with alpha the x exponents (already doubled)
    and ny the power of y^2."""
    out = []

    def rec(balance, idx, alpha, coeff):
        if idx == n:
            out.append((tuple(2 * e for e in alpha), balance, coeff))
            return
        for e in range(balance + 1):
            rec(balance - e, idx + 1, alpha + [e], coeff * math.comb(balance, e))

    rec(t, 0, [], 1)
    return out


class BoundaryPoly:
    """Boundary restriction class: {(s, alpha): coeff} meaning |x|^(2s) x^alpha."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for (s, a), c in terms.items():
                if c != 0:
                    self.terms[(Fraction(s), tuple(a))] = Fraction(c)

    def _new(self, terms):
        out = BoundaryPoly.__new__(BoundaryPoly)
        out.n = self.n
        out.terms = terms
        return out

    def _accum(self, acc, key, c):
        if c == 0:
            return
        cur = acc.get(key, Fraction(0)) + c
        if cur == 0:
            acc.pop(key, None)
        else:
            acc[key] = cur

    def __add__(self, other):
        acc = dict(self.terms)
        for key, c in other.terms.items():
            self._accum(acc, key, c)
        return self._new(acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return self._new({k: v * c for k, v in self.terms.items()} if c else {})

    def lap(self, times: int = 1):
        out = self
        for _ in range(times):
            acc = {}
            for (s, a), c in out.terms.items():
                if s != 0:
                    self._accum(acc, (s - 1, a), c * (2 * s * self.n + 4 * s * sum(a)))
                    for i in range(self.n):
                        a2 = list(a); a2[i] += 2
                        self._accum(acc, (s - 2, tuple(a2)), c * 4 * s * (s - 1))
                for i in range(self.n):
                    if a[i] >= 2:
                        a2 = list(a); a2[i] -= 2
                        self._accum(acc, (s, tuple(a2)), c * a[i] * (a[i] - 1))
            out = self._new(acc)
        return out

    def directional_r2(self, ell: int = 1):
        acc = {}
        for (s, a), c in self.terms.items():
            d = 2 * s + sum(a)
            self._accum(acc, (s, a), c * Fraction(2) ** ell * _falling(d, ell))
        return self._new(acc)

    def mul_r2(self, power):
        power = Fraction(power)
        return self._new({(s + power, a): c for (s, a), c in self.terms.items()})

    def kelvin_pullback(self, w):
        w = Fraction(w)
        return self._new({(w - s - sum(a), a): c for (s, a), c in self.terms.items()})

    def is_zero_function(self) -> bool:
        """Exact zero test: expand integer powers of |x|^2 multinomially
        within each fractional class of the exponent."""
        groups = {}
        for (s, a), c in self.terms.items():
            frac = s - (s.numerator // s.denominator)
            groups.setdefault(frac, []).append((s, a, c))
        for entries in groups.values():
            base = min(s.numerator // s.denominator for s, _, _ in entries)
            acc = {}
            for s, a, c in entries:
                t = s.numerator // s.denominator - base
                for xa, mult in _expand_rn(self.n, t):
                    key = tuple(x + y for x, y in zip(a, xa))
                    cur = acc.get(key, Fraction(0)) + c * mult
                    if cur == 0:
                        acc.pop(key, None)
                    else:
                        acc[key] = cur
            if acc:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, BoundaryPoly) and (self - other).is_zero_function()

    def __repr__(self):
        return " + ".join(f"({c})*|x|^{{2*{s}}}x^{a}" for (s, a), c in sorted(self.terms.items())) or "0"


def _expand_rn(n: int, t: int):
    """Multinomial expansion of (x_1^2 + ... + x_n^2)^t."""
    out = []

    def rec(balance, idx, alpha, coeff):
        if idx == n - 1:
            out.append((tuple(alpha + [balance]), coeff))
            return
        for e in range(balance + 1):
            rec(balance - e, idx + 1, alpha + [e], coeff * math.comb(balance, e))

    rec(t, 0, [], 1)
    return [(tuple(2 * e for e in xa), mult) for xa, mult in out]


# ---------------------------------------------------------------------------
# Module-level operation names
# ---------------------------------------------------------------------------


def apply_laplacian(p: HalfSpacePoly) -> HalfSpacePoly:
    return p.laplacian()


def apply_weighted_laplacian(p: HalfSpacePoly, m) -> HalfSpacePoly:
    return p.weighted_laplacian(Fraction(m))


def kelvin_pullback(p: HalfSpacePoly, w) -> HalfSpacePoly:
    return p.kelvin_pullback(w)


def weighted_poly_power(p: HalfSpacePoly, m, k: int) -> HalfSpacePoly:
    out = p
    for _ in range(k):
        out = out.weighted_laplacian(m)
    return out


# ---------------------------------------------------------------------------
# Boundary operators on the polynomial class
# ---------------------------------------------------------------------------


def poly_T(p: HalfSpacePoly, m) -> HalfSpacePoly:
    return p.dy2() + p.dy_over_y().scale(m)


def boundary_operator_poly(params: GammaParams, family: str, j: int, p: HalfSpacePoly) -> BoundaryPoly:
    """The jet version's operator symbol, applied to the exact polynomial class."""
    symbol = jets.boundary_operator_symbol(params, family, j)
    trace = HalfSpacePoly.iota if family == "even" else HalfSpacePoly.iota_weighted_neumann
    traces = [trace(p)]
    for _ in range(j):
        p = poly_T(p, params.m)
        traces.append(trace(p))
    out = BoundaryPoly(p.n)
    for (tp, lp), coeff in symbol.items():
        out = out + traces[tp].lap(lp).scale(coeff)
    return out


# ---------------------------------------------------------------------------
# Hyperbolic side
# ---------------------------------------------------------------------------


class YPowerField:
    """Finite sums y^p * W(x, y) with rational top powers p and W in the
    branch-free polynomial class; the natural domain of the hyperbolic
    Laplacian.  Normal form pushes every even y power of W into p."""

    __slots__ = ("n", "frac_gamma", "parts")

    def __init__(self, n: int, frac_gamma, parts=None):
        self.n = n
        self.frac_gamma = Fraction(frac_gamma)
        self.parts = {}
        if parts:
            for p, poly in parts.items():
                self._add_part(Fraction(p), poly)

    def _add_part(self, p, poly):
        for (s, a, be, b), c in poly.terms.items():
            assert b == 0, "hyperbolic fields carry no fractional branch"
            key = p + 2 * be
            slot = self.parts.setdefault(key, HalfSpacePoly(self.n, self.frac_gamma))
            self.parts[key] = slot + HalfSpacePoly(self.n, self.frac_gamma, {(s, a, 0, 0): c})
        self.parts = {p: poly for p, poly in self.parts.items() if poly.terms}

    @classmethod
    def pure_power(cls, n, frac_gamma, p, poly=None):
        if poly is None:
            poly = HalfSpacePoly.monomial(n, frac_gamma)
        return cls(n, frac_gamma, {Fraction(p): poly})

    def _new(self):
        out = YPowerField.__new__(YPowerField)
        out.n, out.frac_gamma, out.parts = self.n, self.frac_gamma, {}
        return out

    def __add__(self, other):
        out = self._new()
        for p, poly in list(self.parts.items()) + list(other.parts.items()):
            out._add_part(p, poly)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = self._new()
        for p, poly in self.parts.items():
            out._add_part(p, poly.scale(c))
        return out

    def shift_power(self, delta):
        delta = Fraction(delta)
        out = self._new()
        for p, poly in self.parts.items():
            out._add_part(p + delta, poly)
        return out

    def is_zero_function(self) -> bool:
        return all(poly.is_zero_function() for poly in self.parts.values())

    def __eq__(self, other):
        return isinstance(other, YPowerField) and (self - other).is_zero_function()


def hyperbolic_laplacian(f: YPowerField, n: int) -> YPowerField:
    """y^2 d_y^2 - (n-1) y d_y + y^2 Lap_x applied in normal form."""
    out = f._new()
    for p, w in f.parts.items():
        ydw = w.y_dy()
        out._add_part(p, w.scale(p * (p - 1) - (n - 1) * p)
                      + ydw.scale(2 * p - (n - 1))
                      + w.dy2().mul_y2()
                      + w.lap_x().mul_y2())
    return out


def hyperbolic_resolvent(f: YPowerField, n: int, sigma: Fraction) -> YPowerField:
    """D_sigma = hyperbolic Laplacian + sigma (n - sigma)."""
    return hyperbolic_laplacian(f, n) + f.scale(Fraction(sigma) * (n - Fraction(sigma)))


def flat_weighted_laplacian_on_ypower(f: YPowerField, m) -> YPowerField:
    """The flat weighted Laplacian acting on y^p W with arbitrary rational p."""
    m = Fraction(m)
    out = f._new()
    for p, w in f.parts.items():
        ydw = w.y_dy()
        out._add_part(p - 2, w.scale(p * (p - 1) + m * p) + ydw.scale(2 * p + m - 1)
                      + ydw.y_dy())
        out._add_part(p, w.lap_x())
    return out


# note: y^2 d_y^2 W = (y d_y)^2 W - y d_y W, used above to stay in normal form


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def default_samples(n: int, frac_gamma, seed: int = 0, extra: int = 4):
    """Deterministic sample suite plus a few seeded random monomials."""
    mk = lambda **kw: HalfSpacePoly.monomial(n, frac_gamma, **kw)
    e1 = tuple([2] + [0] * (n - 1))
    samples = [
        mk(),
        mk(beta=1),
        mk(beta=2),
        mk(alpha=e1),
        mk(alpha=e1, beta=1),
        mk(b=1),
        mk(b=1, beta=1),
        mk(s=1, beta=1),
        mk(s=Fraction(-1), alpha=e1),
    ]
    rng = random.Random(seed)
    for _ in range(extra):
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        samples.append(mk(
            s=Fraction(rng.choice([0, 1, -1, 2])),
            alpha=alpha,
            beta=rng.randint(0, 2),
            b=rng.randint(0, 1),
            coeff=Fraction(rng.randint(1, 5), rng.randint(1, 3)),
        ))
    return samples


def verify_commutator(m, k: int, samples, gamma_str="-", n=1) -> VerificationReport:
    """Conjugating the k-th power by the weight shifts +-2k reproduces the
    (k+1)-st power, exactly."""
    m = Fraction(m)
    report = VerificationReport("weight_shift_commutator", gamma_str, n)
    if k < 1:
        raise ValueError("commutator check needs k >= 1")
    for idx, u in enumerate(samples):
        lhs = weighted_poly_power(u, m - 2 * k, 1)
        lhs = weighted_poly_power(lhs, m, k - 1)
        lhs = weighted_poly_power(lhs, m + 2 * k, 1)
        rhs = weighted_poly_power(u, m, k + 1)
        if not (lhs - rhs).is_zero_function():
            report.fail(f"sample {idx}: weight-shift commutator fails at m={m}, k={k}")
    if report.passed:
        report.details.append(f"m={m}, k={k}: exact on {len(samples)} samples")
    return report


def verify_product_factorization(params: GammaParams, samples) -> VerificationReport:
    """The ordered product of single weighted Laplacians at shifted weights
    equals the k-th power at the base weight."""
    report = VerificationReport("product_factorization", str(params), params.n)
    m, k = params.m, params.k
    for idx, u in enumerate(samples):
        lhs = u
        for j in range(k):
            lhs = lhs.weighted_laplacian(m - 2 * k + 4 * j + 2)
        rhs = weighted_poly_power(u, m, k)
        if not (lhs - rhs).is_zero_function():
            report.fail(f"sample {idx}: factorization fails for gamma={params.gamma}")
    if report.passed:
        report.details.append(f"k={k}: exact on {len(samples)} samples")
    return report


def verify_r2s_commutation(params: GammaParams, k: int, s, samples, n: int = None) -> VerificationReport:
    """Commuting r^(2s) through the k-th power of the weighted Laplacian,
    interior form and weighted-Neumann boundary form."""
    s = Fraction(s)
    if n is None:
        n = params.n
    report = VerificationReport("r2s_commutation", str(params), n)
    m, fr = params.m, params.frac_gamma
    half_n = Fraction(n, 2)
    for idx, u in enumerate(samples):
        if u.n != n:
            raise ValueError("sample dimension mismatch")
        powers = [u]
        for _ in range(k):
            powers.append(powers[-1].weighted_laplacian(m))
        lhs = weighted_poly_power(u.mul_r2(s), m, k)
        rhs = HalfSpacePoly(n, fr)
        for j in range(k + 1):
            for ell in range(j + 1):
                w = (
                    Fraction(2) ** (2 * j - ell)
                    * math.comb(k, j) * math.comb(j, ell)
                    * _falling(s, j)
                    * _rising_or_zero(half_n + 1 + s + k - 2 * j + ell - fr, j - ell)
                )
                if w == 0:
                    continue
                rhs = rhs + powers[k - j].directional_r2(ell).mul_r2(s - j).scale(w)
        if not (lhs - rhs).is_zero_function():
            report.fail(f"sample {idx}: interior r^2s commutation fails (k={k}, s={s})")

        blhs = weighted_poly_power(u.mul_r2(s), m, k).iota_weighted_neumann()
        brhs = BoundaryPoly(n)
        for j in range(k + 1):
            for ell in range(j + 1):
                w = (
                    Fraction(2) ** (2 * j - ell)
                    * math.comb(k, j) * math.comb(j, ell)
                    * _falling(s, j)
                    * _rising_or_zero(half_n + 1 + fr + s + k - 2 * j + ell, j - ell)
                )
                if w == 0:
                    continue
                brhs = brhs + powers[k - j].iota_weighted_neumann().directional_r2(ell).mul_r2(s - j).scale(w)
        if not (blhs - brhs).is_zero_function():
            report.fail(f"sample {idx}: boundary r^2s commutation fails (k={k}, s={s})")
    if report.passed:
        report.details.append(f"k={k}, s={s}, n={n}: exact on {len(samples)} samples")
    return report


def verify_flat_hyperbolic_correspondence(params: GammaParams, samples=None, n: int = None) -> VerificationReport:
    """Conjugating the hyperbolic poly-resolvent product by the boundary-defining
    power of y gives the flat weighted poly-Laplacian, and the two groupings of
    the resolvent product agree."""
    if n is None:
        n = params.n
    report = VerificationReport("flat_hyperbolic_correspondence", str(params), n)
    fr, fl, g, k, m = params.frac_gamma, params.floor_gamma, params.gamma, params.k, params.m
    half_n = Fraction(n, 2)
    s0 = half_n + g
    if samples is None:
        base = default_samples(n, fr, extra=2)
        samples = [YPowerField.pure_power(n, fr, Fraction(p), w)
                   for p in (0, 1, Fraction(1, 3)) for w in base[:4] if not any(key[3] for key in w.terms)]
    for idx, u in enumerate(samples):
        # ordered product, descending resolvent parameter
        lhs_prod = u
        for j in range(k):
            lhs_prod = hyperbolic_resolvent(lhs_prod, n, s0 - 2 * j)
        # grouped form: even-family factors then odd-family factors
        rhs_prod = u
        for j in range(fl // 2 + 1):
            rhs_prod = hyperbolic_resolvent(rhs_prod, n, half_n + g - 2 * j)
        for j in range(fl - fl // 2):
            rhs_prod = hyperbolic_resolvent(rhs_prod, n, half_n + fl - fr - 2 * j)
        if not (lhs_prod - rhs_prod).is_zero_function():
            report.fail(f"sample {idx}: resolvent product groupings disagree")

        # flat side: L_2k (y^(-(n-2g)/2) u) = y^(-(n-2g+4k)/2) L+_2k u
        flat = u.shift_power(-(half_n - g))
        for _ in range(k):
            flat = flat_weighted_laplacian_on_ypower(flat, m)
        rhs = lhs_prod.shift_power(-(half_n - g) - 2 * k)
        if not (flat - rhs).is_zero_function():
            report.fail(f"sample {idx}: flat/hyperbolic conjugation fails")
    if report.passed:
        report.details.append(f"exact on {len(samples)} hyperbolic samples (n={n}, k={k})")
    return report


def verify_conformal_covariance(params: GammaParams, alpha_list=None, samples=None, n: int = None) -> VerificationReport:
    """Kelvin-transform covariance of the weighted poly-Laplacian and of every
    boundary operator, as exact identities of radial polynomials."""
    if n is None:
        n = params.n
    report = VerificationReport("conformal_covariance", str(params), n)
    fr, fl, g, k, m = params.frac_gamma, params.floor_gamma, params.gamma, params.k, params.m
    half_n = Fraction(n, 2)
    w_in = g - half_n                       # r^(2g-n) companion weight
    if samples is None:
        samples = default_samples(n, fr, extra=2)[:7]
    if alpha_list is None:
        alpha_list = [("even", j) for j in range(fl + 1)] + [("odd", j) for j in range(fl + 1)]

    for idx, u in enumerate(samples):
        pulled = u.kelvin_pullback(w_in)
        # interior covariance
        lhs = weighted_poly_power(pulled, m, k)
        rhs = weighted_poly_power(u, m, k).kelvin_pullback(w_in - 2 * k)
        if not (lhs - rhs).is_zero_function():
            report.fail(f"sample {idx}: interior Kelvin covariance fails")
        # boundary covariance for each operator
        for family, j in alpha_list:
            alpha = Fraction(j) if family == "even" else fr + j
            got = boundary_operator_poly(params, family, j, pulled)
            want = boundary_operator_poly(params, family, j, u).kelvin_pullback(w_in - 2 * alpha)
            if not (got - want).is_zero_function():
                report.fail(f"sample {idx}: boundary Kelvin covariance fails at ({family},{j})")
    if report.passed:
        report.details.append(
            f"interior and {len(alpha_list)} boundary operators covariant on {len(samples)} samples"
        )
    return report

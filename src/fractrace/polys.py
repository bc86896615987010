"""Exact calculus on the weighted radial-polynomial class of upper half space.

Elements are finite rational combinations of

    r^(2s) * x^alpha * y^(2*beta) * (y^(2[g]))^b,      r^2 = |x|^2 + y^2,

with s rational, alpha a multi-index, beta an integer (negative powers are
allowed formally; they only appear in intermediate expressions), and b in
{0, 1} flagging the fractional branch.  The class is closed under the
Laplacian, the weighted Laplacian at any weight, multiplication by r^2,
the radial directional derivative, and the Kelvin pullback, which is what the
commutation, factorization and conformal-covariance identities need.

Storage is integer: the coefficients are numerators over one common
denominator per element (module `ratmap`), and each r exponent s is keyed by
the integer S = s D over a per-element exponent denominator D.  D starts at
lcm(2, den [g]) and is raised to an lcm when an operand or an argument needs
it (a Kelvin weight 5/3, say), so every derivation computes its per-term
factor as an integer over D^2 and reduces the result once.  ``terms`` gives
the same map with Fraction exponents and coefficients.

Zero tests expand every integer power of r^2 multinomially, grouped by branch
flag and by fractional class S mod D of the r exponent, so identities are
decided exactly with no sampling error.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from types import MappingProxyType

from . import jets, ratmap
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


def _add(acc: dict, key, v: int):
    acc[key] = acc.get(key, 0) + v


class _RadialTerms:
    """Storage shared by the two polynomial classes: ``nums`` maps keys
    (S, alpha, ...) to nonzero ints over ``den`` (canonical, see `ratmap`),
    and the r exponent of a key is S / D.  Each class supplies
    ``_degree(key, D)``, D times the degree of the key's x, y and branch
    factors, which is all the Euler operator and the Kelvin pullback read."""

    __slots__ = ()

    def _rekeyed(self, D: int) -> dict:
        """nums with S over D, a multiple of self.D."""
        if D == self.D:
            return self.nums
        f = D // self.D
        return {(key[0] * f,) + key[1:]: c for key, c in self.nums.items()}

    def _combine(self, other, sign: int):
        D = math.lcm(self.D, other.D)
        return self._new(ratmap.add(self._rekeyed(D), self.den, other._rekeyed(D), other.den, sign), D)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        return self._new(ratmap.scale(self.nums, self.den, *ratmap.ratio(c)))

    def mul_r2(self, power=1):
        """Multiply by r^(2*power); power may be any rational."""
        p, q = ratmap.ratio(power)
        D = math.lcm(self.D, q)
        shift = p * (D // q)
        nums = {(key[0] + shift,) + key[1:]: c for key, c in self._rekeyed(D).items()}
        return self._new((nums, self.den), D)

    def directional_r2(self, ell: int = 1):
        """ell-th covariant derivative contracted with the r^2 gradient.

        On a monomial of homogeneity d this is 2^ell d(d-1)...(d-ell+1), the
        falling-factorial of the Euler operator.
        """
        D = self.D
        nums = {}
        for key, c in self.nums.items():
            dD = 2 * key[0] + self._degree(key, D)
            for t in range(ell):
                c *= 2 * (dD - t * D)
            nums[key] = c
        return self._new(ratmap.canonical(nums, self.den * D ** ell))

    def kelvin_pullback(self, w):
        """r^(2w) times the composition with the inversion z -> z / r^2: a
        factor of degree d in x, y or the branch picks up r^(-2d)."""
        p, q = ratmap.ratio(w)
        D = math.lcm(self.D, q)
        W = p * (D // q)
        nums = {(W - key[0] - self._degree(key, D),) + key[1:]: c
                for key, c in self._rekeyed(D).items()}
        return self._new((nums, self.den), D)

    @property
    def terms(self):
        """Read-only {(s, ...): coeff} with Fraction s and coefficients."""
        D, den = self.D, self.den
        return MappingProxyType({(Fraction(key[0], D),) + key[1:]: Fraction(c, den)
                                 for key, c in self.nums.items()})

    def __eq__(self, other):
        return isinstance(other, type(self)) and (self - other).is_zero_function()


class HalfSpacePoly(_RadialTerms):
    """nums: {(S, alpha, beta, b): int} over den, s = S / D, for x in R^n and
    y > 0; ``terms`` reads it as {(s, alpha, beta, b): coeff}."""

    __slots__ = ("n", "frac_gamma", "D", "nums", "den")

    def __init__(self, n: int, frac_gamma: Fraction, terms=None):
        self.n = n
        self.frac_gamma = Fraction(frac_gamma)
        rational = {}
        for (s, alpha, beta, b), c in (terms or {}).items():
            if c == 0:
                continue
            alpha = tuple(alpha)
            assert len(alpha) == n and all(e >= 0 for e in alpha), f"bad multi-index {alpha}"
            assert b in (0, 1), f"branch flag must be 0/1, got {b}"
            rational[(Fraction(s), alpha, int(beta), int(b))] = c
        D = self.D = math.lcm(2, self.frac_gamma.denominator, *(key[0].denominator for key in rational))
        self.nums, self.den = ratmap.from_rationals(
            {(s.numerator * (D // s.denominator), a, be, b): c for (s, a, be, b), c in rational.items()})

    @classmethod
    def monomial(cls, n, frac_gamma, s=0, alpha=None, beta=0, b=0, coeff=1):
        alpha = tuple(alpha) if alpha is not None else (0,) * n
        return cls(n, frac_gamma, {(Fraction(s), alpha, beta, b): Fraction(coeff)})

    def _new(self, pair, D: int = None):
        """Same n and [g]; pair is a canonical (nums, den) at exponent
        denominator D (default: this element's)."""
        out = HalfSpacePoly.__new__(HalfSpacePoly)
        out.n, out.frac_gamma, out.D = self.n, self.frac_gamma, self.D if D is None else D
        out.nums, out.den = pair
        return out

    def _branch_q(self) -> int:
        """2[g] D: the y exponent q of a key is (2 beta D + b * this) / D."""
        fr = self.frac_gamma
        return 2 * fr.numerator * (self.D // fr.denominator)

    def mul_y2(self):
        return self._new(({(S, a, be + 1, b): c for (S, a, be, b), c in self.nums.items()},
                          self.den))

    # -- derivations ------------------------------------------------------

    def lap_x(self):
        """Tangential Laplacian (the x variables only).

        The sum of x_i^2 r^(2s-4) terms is collapsed through x^2 = r^2 - y^2
        to keep the term count dimension-independent.
        """
        D, n = self.D, self.n
        D2 = D * D
        acc = {}
        for (S, a, be, b), c in self.nums.items():
            if S:
                _add(acc, (S - D, a, be, b), c * (2 * S * D * (n + 2 * sum(a)) + 4 * S * (S - D)))
                _add(acc, (S - 2 * D, a, be + 1, b), -c * 4 * S * (S - D))
            for i, ai in enumerate(a):
                if ai >= 2:
                    _add(acc, (S, a[:i] + (ai - 2,) + a[i + 1:], be, b), c * ai * (ai - 1) * D2)
        return self._new(ratmap.canonical(acc, self.den * D2))

    def dy2(self):
        """Second y derivative; r^(2s-4) y^2 terms from differentiating r."""
        D, fq = self.D, self._branch_q()
        acc = {}
        for (S, a, be, b), c in self.nums.items():
            Q = 2 * be * D + b * fq
            if S:
                _add(acc, (S - 2 * D, a, be + 1, b), c * 4 * S * (S - D))
                _add(acc, (S - D, a, be, b), c * 2 * S * (2 * Q + D))
            _add(acc, (S, a, be - 1, b), c * Q * (Q - D))
        return self._new(ratmap.canonical(acc, self.den * D * D))

    def dy_over_y(self):
        """y^(-1) d_y; the beta-1 slot may go negative (formal Laurent term)."""
        D, fq = self.D, self._branch_q()
        acc = {}
        for (S, a, be, b), c in self.nums.items():
            if S:
                _add(acc, (S - D, a, be, b), c * 2 * S)
            _add(acc, (S, a, be - 1, b), c * (2 * be * D + b * fq))
        return self._new(ratmap.canonical(acc, self.den * D))

    def y_dy(self):
        D, fq = self.D, self._branch_q()
        acc = {}
        for (S, a, be, b), c in self.nums.items():
            if S:
                _add(acc, (S - D, a, be + 1, b), c * 2 * S)
            _add(acc, (S, a, be, b), c * (2 * be * D + b * fq))
        return self._new(ratmap.canonical(acc, self.den * D))

    def laplacian(self):
        return self.weighted_laplacian(0)

    def weighted_laplacian(self, m):
        """lap_x + dy2 + m dy_over_y in one pass.  The r^(2s-4) y^2 terms of
        lap_x and dy2 cancel; per term c r^(2s) x^alpha y^q what is left is
        c 2s (n + 2|alpha| + 2s + 2q - 1 + m) at s - 1, c q (q - 1 + m) at
        beta - 1 and the x second derivatives, all over D^2 mq for m = mp/mq."""
        mp, mq = ratmap.ratio(m)
        D, n, fq = self.D, self.n, self._branch_q()
        xx = D * D * mq
        acc = {}
        for (S, a, be, b), c in self.nums.items():
            Q = 2 * be * D + b * fq
            if S:
                _add(acc, (S - D, a, be, b),
                     c * 2 * S * (((n + 2 * sum(a) - 1) * D + 2 * S + 2 * Q) * mq + mp * D))
            _add(acc, (S, a, be - 1, b), c * Q * ((Q - D) * mq + mp * D))
            for i, ai in enumerate(a):
                if ai >= 2:
                    _add(acc, (S, a[:i] + (ai - 2,) + a[i + 1:], be, b), c * ai * (ai - 1) * xx)
        return self._new(ratmap.canonical(acc, self.den * xx))

    def _degree(self, key, D: int) -> int:
        """D times the degree of x^alpha y^(2 beta) (y^(2[g]))^b."""
        _, a, be, b = key
        fr = self.frac_gamma
        return (sum(a) + 2 * be) * D + b * 2 * fr.numerator * (D // fr.denominator)

    # -- restriction to the boundary --------------------------------------

    def _boundary_terms(self, branch: int) -> dict:
        nums = {}
        for (S, a, be, b), c in self.nums.items():
            if be < 0:
                raise ValueError("restriction of a negative y power")
            if be == 0 and b == branch:
                nums[(S, a)] = c
        return nums

    def iota(self) -> "BoundaryPoly":
        """Value at y = 0 (keeps terms with zero y exponent; r becomes |x|)."""
        return BoundaryPoly._of(self.n, self.D, ratmap.canonical(self._boundary_terms(0), self.den))

    def iota_weighted_neumann(self) -> "BoundaryPoly":
        """y^m d_y at y -> 0+; only branch terms with beta = 0 survive, with
        factor 2[g]."""
        fr = self.frac_gamma
        pair = ratmap.scale(self._boundary_terms(1), self.den, 2 * fr.numerator, fr.denominator)
        return BoundaryPoly._of(self.n, self.D, pair)

    # -- exact zero test ---------------------------------------------------

    def is_zero_function(self) -> bool:
        """Decide whether the element is the zero function.

        Terms are grouped by branch flag and fractional class S mod D; inside
        a group all r powers are lowered to the common minimum by multinomial
        expansion of r^2 = |x|^2 + y^2, after which the integer numerators
        must cancel.
        """
        D = self.D
        groups = {}
        for (S, a, be, b), c in self.nums.items():
            groups.setdefault((b, S % D), []).append((S // D, a, be, c))
        for entries in groups.values():
            base = min(entry[0] for entry in entries)
            acc = {}
            for t, a, be, c in entries:
                for xa, ny, mult in _expand_r2(self.n, t - base):
                    _add(acc, (tuple(map(operator.add, a, xa)), be + ny), c * mult)
            if any(acc.values()):
                return False
        return True

    def __repr__(self):
        if not self.nums:
            return "0"
        bits = []
        for (s, a, be, b), c in sorted(self.terms.items()):
            bits.append(f"({c})*r^{{2*{s}}}x^{a}y^{{2*{be}}}b{b}")
        return " + ".join(bits)


@functools.lru_cache(maxsize=None)
def _expand_r2(n: int, t: int) -> tuple:
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
    return tuple(out)


class BoundaryPoly(_RadialTerms):
    """Boundary restriction class: nums {(S, alpha): int} over den meaning
    |x|^(2s) x^alpha with s = S / D; ``terms`` reads {(s, alpha): coeff}."""

    __slots__ = ("n", "D", "nums", "den")

    def __init__(self, n: int, terms=None):
        self.n = n
        rational = {(Fraction(s), tuple(a)): c for (s, a), c in (terms or {}).items() if c != 0}
        D = self.D = math.lcm(2, *(s.denominator for s, _ in rational))
        self.nums, self.den = ratmap.from_rationals(
            {(s.numerator * (D // s.denominator), a): c for (s, a), c in rational.items()})

    @staticmethod
    def _of(n: int, D: int, pair) -> "BoundaryPoly":
        out = BoundaryPoly.__new__(BoundaryPoly)
        out.n, out.D = n, D
        out.nums, out.den = pair
        return out

    def _new(self, pair, D: int = None):
        return BoundaryPoly._of(self.n, self.D if D is None else D, pair)

    def lap(self):
        """Laplacian: per term c |x|^(2s) x^alpha, c 2s (n + 2|alpha| + 2s - 2)
        at s - 1 and the x second derivatives, all over D^2."""
        D, n = self.D, self.n
        D2 = D * D
        acc = {}
        for (S, a), c in self.nums.items():
            if S:
                _add(acc, (S - D, a), c * 2 * S * ((n + 2 * sum(a) - 2) * D + 2 * S))
            for i, ai in enumerate(a):
                if ai >= 2:
                    _add(acc, (S, a[:i] + (ai - 2,) + a[i + 1:]), c * ai * (ai - 1) * D2)
        return self._new(ratmap.canonical(acc, self.den * D2))

    def _degree(self, key, D: int) -> int:
        """D times the degree of x^alpha."""
        return sum(key[1]) * D

    def is_zero_function(self) -> bool:
        """Exact zero test: expand integer powers of |x|^2 multinomially
        within each fractional class S mod D of the exponent."""
        D = self.D
        groups = {}
        for (S, a), c in self.nums.items():
            groups.setdefault(S % D, []).append((S // D, a, c))
        for entries in groups.values():
            base = min(entry[0] for entry in entries)
            acc = {}
            for t, a, c in entries:
                for xa, mult in _expand_rn(self.n, t - base):
                    _add(acc, tuple(map(operator.add, a, xa)), c * mult)
            if any(acc.values()):
                return False
        return True

    def __repr__(self):
        return " + ".join(f"({c})*|x|^{{2*{s}}}x^{a}" for (s, a), c in sorted(self.terms.items())) or "0"


@functools.lru_cache(maxsize=None)
def _expand_rn(n: int, t: int) -> tuple:
    """Multinomial expansion of (x_1^2 + ... + x_n^2)^t: _expand_r2 in n - 1
    variables with y as the last x axis, (alpha, coeff) with alpha doubled."""
    return tuple(((*xa, 2 * ny), mult) for xa, ny, mult in _expand_r2(n - 1, t))


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


def boundary_operators_poly(params: GammaParams, p: HalfSpacePoly) -> dict:
    """The jet version's operator symbols applied to the exact polynomial class,
    as {(family, j): B p} for every j <= [g].  T is applied [g] times, both
    traces are taken at every step, and each trace's ladder Lap^l is built
    once, as deep as the symbols reach."""
    chain = [p]
    for _ in range(params.floor_gamma):
        chain.append(poly_T(chain[-1], params.m))
    out = {}
    for family, trace in (("even", HalfSpacePoly.iota), ("odd", HalfSpacePoly.iota_weighted_neumann)):
        ladders = [[trace(q)] for q in chain]
        for j in range(params.floor_gamma + 1):
            nums, den = {}, 1
            for (tp, lp), coeff in jets.boundary_operator_symbol(params, family, j).items():
                ladder = ladders[tp]
                while len(ladder) <= lp:
                    ladder.append(ladder[-1].lap())
                nums, den = ratmap.add(nums, den, ladder[lp].nums, ladder[lp].den, *ratmap.ratio(coeff))
            out[(family, j)] = BoundaryPoly._of(p.n, p.D, (nums, den))
    return out


# ---------------------------------------------------------------------------
# Hyperbolic side
# ---------------------------------------------------------------------------


class YPowerField:
    """Finite sums y^p * W(x, y) with rational top powers p and W in the
    branch-free polynomial class; the natural domain of the hyperbolic
    Laplacian.  Normal form pushes every even y power of W into p.  Top
    powers are keyed by integer numerators P = p Dy over the field's
    y-exponent denominator Dy."""

    __slots__ = ("n", "frac_gamma", "Dy", "parts")

    def __init__(self, n: int, frac_gamma, parts=None):
        self.n = n
        self.frac_gamma = Fraction(frac_gamma)
        powers = {Fraction(p): poly for p, poly in (parts or {}).items()}
        self.Dy = math.lcm(*(p.denominator for p in powers))
        self.parts = {}
        for p, poly in powers.items():
            self._add_part(p.numerator * (self.Dy // p.denominator), poly)

    def _add_part(self, P, poly):
        by_beta = {}
        for (S, a, be, b), c in poly.nums.items():
            assert b == 0, "hyperbolic fields carry no fractional branch"
            by_beta.setdefault(be, {})[(S, a, 0, 0)] = c
        for be, nums in by_beta.items():
            part = poly._new(ratmap.canonical(nums, poly.den))
            key = P + 2 * be * self.Dy
            slot = self.parts.get(key)
            if slot is not None:
                part = slot + part
            if part.nums:
                self.parts[key] = part
            else:
                del self.parts[key]

    @classmethod
    def pure_power(cls, n, frac_gamma, p, poly=None):
        if poly is None:
            poly = HalfSpacePoly.monomial(n, frac_gamma)
        return cls(n, frac_gamma, {Fraction(p): poly})

    def _new(self, Dy: int = None, parts=None):
        out = YPowerField.__new__(YPowerField)
        out.n, out.frac_gamma = self.n, self.frac_gamma
        out.Dy, out.parts = self.Dy if Dy is None else Dy, parts or {}
        return out

    def __add__(self, other):
        out = self._new(math.lcm(self.Dy, other.Dy))
        for f in (self, other):
            k = out.Dy // f.Dy
            for P, poly in f.parts.items():
                out._add_part(P * k, poly)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._new(parts={P: poly.scale(c) for P, poly in self.parts.items()} if c else {})

    def shift_power(self, delta):
        p, q = ratmap.ratio(delta)
        Dy = math.lcm(self.Dy, q)
        k, shift = Dy // self.Dy, p * (Dy // q)
        return self._new(Dy, {P * k + shift: poly for P, poly in self.parts.items()})

    def is_zero_function(self) -> bool:
        return all(poly.is_zero_function() for poly in self.parts.values())

    def __eq__(self, other):
        return isinstance(other, YPowerField) and (self - other).is_zero_function()


def _weighted_sum(*terms) -> HalfSpacePoly:
    """sum (p/q) poly over (poly, p, q) triples at one exponent denominator."""
    nums, den = {}, 1
    for poly, p, q in terms:
        assert poly.D == terms[0][0].D
        nums, den = ratmap.add(nums, den, poly.nums, poly.den, p, q)
    return terms[0][0]._new((nums, den))


def hyperbolic_laplacian(f: YPowerField, n: int) -> YPowerField:
    """y^2 d_y^2 - (n-1) y d_y + y^2 Lap_x applied in normal form: on y^p W
    the y^p factor contributes p (p - n) W + (2p - n + 1) y d_y W."""
    Dy = f.Dy
    out = f._new()
    for P, w in f.parts.items():
        out._add_part(P, _weighted_sum((w, P * (P - n * Dy), Dy * Dy),
                                       (w.y_dy(), 2 * P - (n - 1) * Dy, Dy),
                                       (w.laplacian().mul_y2(), 1, 1)))
    return out


def hyperbolic_resolvent(f: YPowerField, n: int, sigma: Fraction) -> YPowerField:
    """D_sigma = hyperbolic Laplacian + sigma (n - sigma)."""
    return hyperbolic_laplacian(f, n) + f.scale(Fraction(sigma) * (n - Fraction(sigma)))


def flat_weighted_laplacian_on_ypower(f: YPowerField, m) -> YPowerField:
    """The flat weighted Laplacian acting on y^p W with arbitrary rational p:
    p (p - 1 + m) W + (2p + m - 1) y d_y W + (y d_y)^2 W at y^(p-2), and
    Lap_x W at y^p."""
    mp, mq = ratmap.ratio(m)
    Dy = f.Dy
    out = f._new()
    for P, w in f.parts.items():
        ydw = w.y_dy()
        out._add_part(P - 2 * Dy, _weighted_sum((w, P * ((P - Dy) * mq + mp * Dy), Dy * Dy * mq),
                                                (ydw, 2 * P * mq + (mp - mq) * Dy, Dy * mq),
                                                (ydw.y_dy(), 1, 1)))
        out._add_part(P, w.lap_x())
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


def verify_commutator(params: GammaParams, k: int, samples) -> VerificationReport:
    """Conjugating the k-th power by the weight shifts +-2k reproduces the
    (k+1)-st power at the weight m of params, exactly."""
    m = params.m
    report = VerificationReport("weight_shift_commutator", str(params), params.n)
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


def _r2s_weights(k: int, s: Fraction, base: Fraction) -> list:
    """The nonzero weights (j, ell, w) of the r^(2s) commutation formula:
    w = 2^(2j - ell) C(k, j) C(j, ell) s (s-1)...(s-j+1) times the rising
    product (q)_(j - ell), q = base - 2j + ell, for 0 <= ell <= j <= k."""
    out = []
    for j in range(k + 1):
        for ell in range(j + 1):
            w = (Fraction(2) ** (2 * j - ell) * math.comb(k, j) * math.comb(j, ell)
                 * _falling(s, j) * _rising_or_zero(base - 2 * j + ell, j - ell))
            if w != 0:
                out.append((j, ell, w))
    return out


def verify_r2s_commutation(params: GammaParams, k: int, s, samples) -> VerificationReport:
    """Commuting r^(2s) through the k-th power of the weighted Laplacian,
    interior form and weighted-Neumann boundary form.  The weights depend on
    (k, s, n, [g]) only, so each list is built once for every sample."""
    s = Fraction(s)
    n = params.n
    report = VerificationReport("r2s_commutation", str(params), n)
    m, fr = params.m, params.frac_gamma
    half_n = Fraction(n, 2)
    interior = _r2s_weights(k, s, half_n + 1 + s + k - fr)
    boundary = _r2s_weights(k, s, half_n + 1 + fr + s + k)
    for idx, u in enumerate(samples):
        if u.n != n:
            raise ValueError("sample dimension mismatch")
        powers = [u]
        for _ in range(k):
            powers.append(powers[-1].weighted_laplacian(m))
        lhs = weighted_poly_power(u.mul_r2(s), m, k)
        rhs = HalfSpacePoly(n, fr)
        for j, ell, w in interior:
            rhs = rhs + powers[k - j].directional_r2(ell).mul_r2(s - j).scale(w)
        if not (lhs - rhs).is_zero_function():
            report.fail(f"sample {idx}: interior r^2s commutation fails (k={k}, s={s})")

        blhs = lhs.iota_weighted_neumann()
        brhs = BoundaryPoly(n)
        for j, ell, w in boundary:
            brhs = brhs + powers[k - j].iota_weighted_neumann().directional_r2(ell).mul_r2(s - j).scale(w)
        if not (blhs - brhs).is_zero_function():
            report.fail(f"sample {idx}: boundary r^2s commutation fails (k={k}, s={s})")
    if report.passed:
        report.details.append(f"k={k}, s={s}, n={n}: exact on {len(samples)} samples")
    return report


def verify_flat_hyperbolic_correspondence(params: GammaParams) -> VerificationReport:
    """Conjugating the hyperbolic poly-resolvent product by the boundary-defining
    power of y gives the flat weighted poly-Laplacian, and the two groupings of
    the resolvent product agree."""
    n = params.n
    report = VerificationReport("flat_hyperbolic_correspondence", str(params), n)
    fr, fl, g, k, m = params.frac_gamma, params.floor_gamma, params.gamma, params.k, params.m
    half_n = Fraction(n, 2)
    s0 = half_n + g
    samples = [YPowerField.pure_power(n, fr, Fraction(p), w)
               for p in (0, 1, Fraction(1, 3)) for w in default_samples(n, fr, extra=2)[:4]
               if not any(key[3] for key in w.nums)]
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


def verify_conformal_covariance(params: GammaParams, samples=None) -> VerificationReport:
    """Kelvin-transform covariance of the weighted poly-Laplacian and of every
    boundary operator, as exact identities of radial polynomials."""
    n = params.n
    report = VerificationReport("conformal_covariance", str(params), n)
    fr, fl, g, k, m = params.frac_gamma, params.floor_gamma, params.gamma, params.k, params.m
    half_n = Fraction(n, 2)
    w_in = g - half_n                       # r^(2g-n) companion weight
    if samples is None:
        # the first five carry no fractional branch, on which every odd-family
        # operator vanishes; the two branch samples reach all of them
        mk = lambda **kw: HalfSpacePoly.monomial(n, fr, **kw)
        samples = default_samples(n, fr, extra=0)[:5] + [mk(b=1), mk(b=1, s=-1)]

    for idx, u in enumerate(samples):
        pulled = u.kelvin_pullback(w_in)
        ops_pulled = boundary_operators_poly(params, pulled)
        ops_u = boundary_operators_poly(params, u)
        # interior covariance
        lhs = weighted_poly_power(pulled, m, k)
        rhs = weighted_poly_power(u, m, k).kelvin_pullback(w_in - 2 * k)
        if not (lhs - rhs).is_zero_function():
            report.fail(f"sample {idx}: interior Kelvin covariance fails")
        # boundary covariance for each operator
        for (family, j), got in ops_pulled.items():
            alpha = Fraction(j) if family == "even" else fr + j
            want = ops_u[(family, j)].kelvin_pullback(w_in - 2 * alpha)
            if not (got - want).is_zero_function():
                report.fail(f"sample {idx}: boundary Kelvin covariance fails at ({family},{j})")
    if report.passed:
        report.details.append(
            f"interior and {2 * (fl + 1)} boundary operators covariant on {len(samples)} samples"
        )
    return report

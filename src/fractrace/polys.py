"""Exact calculus on the weighted radial-polynomial class of upper half space.

Elements are finite rational combinations of

    r^(2s) * x^alpha * y^q,      r^2 = |x|^2 + y^2,

with s and q rational and alpha a multi-index.  One y exponent serves every
power of y: the fractional branch y^(2[g]) is q = 2[g], and negative q are
allowed formally (they only appear in intermediate expressions; the boundary
restrictions reject them).  The class is closed under the Laplacian, the
weighted Laplacian at any weight, y d_y, multiplication by r^(2p) and by y^q
for rational p and q, the radial directional derivative, and the Kelvin
pullback, which is what the commutation, factorization, flat/hyperbolic and
conformal-covariance identities need.

A function |x|^(2s) x^alpha on the boundary R^n is the same class in n - 1
variables whose y is x_n: there r^2 = |x'|^2 + x_n^2 = |x|^2, and the
Laplacian, the Euler operator, the Kelvin pullback and the zero test read
exactly as on the boundary.  The restrictions return that class, so one set
of generators serves the interior and the boundary sides of every identity.

Storage is integer: the coefficients are numerators over one common
denominator per element (module `ratmap`), and the exponents s and q are keyed
by the integers S = s D and Q = q D over a per-element exponent denominator D.
D starts at lcm(2, den [g]) and is raised to an lcm when an operand or an
argument needs it (a Kelvin weight 5/3 or a factor y^(1/3), say), so every
derivation computes its per-term factor as an integer over D^2 and reduces the
result once.  ``terms`` gives the same map with Fraction exponents and
coefficients.

Zero tests expand every integer power of r^2 multinomially within each
fractional class S mod D of the r exponent.  What is left in a class is a sum
of distinct monomials x^alpha y^q, and powers of r from distinct classes are
independent over those, so identities are decided exactly with no sampling
error.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from fractions import Fraction
from types import MappingProxyType

from . import jets, ratmap
from .gammacore import FAMILIES, GammaParams
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


class HalfSpacePoly:
    """nums: {(S, alpha, Q): int} over den (canonical, see `ratmap`), s = S / D
    and q = Q / D, meaning r^(2s) x^alpha y^q for x in R^n and y > 0; ``terms``
    reads it as {(s, alpha, q): coeff}."""

    __slots__ = ("n", "frac_gamma", "D", "nums", "den")

    def __init__(self, n: int, frac_gamma: Fraction, terms=None):
        self.n = n
        self.frac_gamma = Fraction(frac_gamma)
        rational = {}
        for (s, alpha, q), c in (terms or {}).items():
            if c == 0:
                continue
            alpha = tuple(alpha)
            assert len(alpha) == n and all(e >= 0 for e in alpha), f"bad multi-index {alpha}"
            rational[(Fraction(s), alpha, Fraction(q))] = c
        D = self.D = math.lcm(2, self.frac_gamma.denominator,
                              *(e.denominator for s, _, q in rational for e in (s, q)))
        self.nums, self.den = ratmap.from_rationals(
            {(s.numerator * (D // s.denominator), a, q.numerator * (D // q.denominator)): c
             for (s, a, q), c in rational.items()})

    @classmethod
    def monomial(cls, n, frac_gamma, s=0, alpha=None, beta=0, b=0, coeff=1):
        """coeff r^(2s) x^alpha y^(2 beta + 2[g] b)."""
        alpha = tuple(alpha) if alpha is not None else (0,) * n
        q = 2 * beta + 2 * Fraction(frac_gamma) * b
        return cls(n, frac_gamma, {(Fraction(s), alpha, q): Fraction(coeff)})

    @staticmethod
    def _of(n: int, frac_gamma: Fraction, D: int, pair) -> "HalfSpacePoly":
        """The element of a canonical (nums, den) at exponent denominator D."""
        out = HalfSpacePoly.__new__(HalfSpacePoly)
        out.n, out.frac_gamma, out.D = n, frac_gamma, D
        out.nums, out.den = pair
        return out

    def _new(self, pair, D: int = None):
        """Same n and [g]; D defaults to this element's."""
        return HalfSpacePoly._of(self.n, self.frac_gamma, self.D if D is None else D, pair)

    def _rekeyed(self, D: int) -> dict:
        """nums with every exponent over D, a multiple of self.D."""
        if D == self.D:
            return self.nums
        f = D // self.D
        return {(S * f, a, Q * f): c for (S, a, Q), c in self.nums.items()}

    def _combine(self, other, sign: int):
        if other.n != self.n:
            # keys of different lengths would zip short in the zero test
            raise ValueError(f"cannot combine elements in {self.n} and {other.n} variables")
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
        nums = {(S + shift, a, Q): c for (S, a, Q), c in self._rekeyed(D).items()}
        return self._new((nums, self.den), D)

    def mul_y(self, power):
        """Multiply by y^power; power may be any rational."""
        p, q = ratmap.ratio(power)
        D = math.lcm(self.D, q)
        shift = p * (D // q)
        nums = {(S, a, Q + shift): c for (S, a, Q), c in self._rekeyed(D).items()}
        return self._new((nums, self.den), D)

    def directional_r2(self, ell: int = 1):
        """ell-th covariant derivative contracted with the r^2 gradient.

        On a monomial of homogeneity d this is 2^ell d(d-1)...(d-ell+1), the
        falling-factorial of the Euler operator.
        """
        D = self.D
        nums = {}
        for (S, a, Q), c in self.nums.items():
            dD = 2 * S + sum(a) * D + Q
            for t in range(ell):
                c *= 2 * (dD - t * D)
            nums[(S, a, Q)] = c
        return self._new(ratmap.canonical(nums, self.den * D ** ell))

    def kelvin_pullback(self, w):
        """r^(2w) times the composition with the inversion z -> z / r^2: a
        factor of degree d in x or y picks up r^(-2d)."""
        p, q = ratmap.ratio(w)
        D = math.lcm(self.D, q)
        W = p * (D // q)
        nums = {(W - S - sum(a) * D - Q, a, Q): c for (S, a, Q), c in self._rekeyed(D).items()}
        return self._new((nums, self.den), D)

    @property
    def terms(self):
        """Read-only {(s, alpha, q): coeff} with Fraction exponents and
        coefficients."""
        D, den = self.D, self.den
        return MappingProxyType({(Fraction(S, D), a, Fraction(Q, D)): Fraction(c, den)
                                 for (S, a, Q), c in self.nums.items()})

    def __eq__(self, other):
        return isinstance(other, HalfSpacePoly) and (self - other).is_zero_function()

    # -- derivations ------------------------------------------------------

    def dy2(self):
        """Second y derivative; r^(2s-4) y^2 terms from differentiating r."""
        D = self.D
        acc = {}
        for (S, a, Q), c in self.nums.items():
            if S:
                _add(acc, (S - 2 * D, a, Q + 2 * D), c * 4 * S * (S - D))
                _add(acc, (S - D, a, Q), c * 2 * S * (2 * Q + D))
            _add(acc, (S, a, Q - 2 * D), c * Q * (Q - D))
        return self._new(ratmap.canonical(acc, self.den * D * D))

    def dy_over_y(self):
        """y^(-1) d_y; the y exponent may go negative (formal Laurent term)."""
        D = self.D
        acc = {}
        for (S, a, Q), c in self.nums.items():
            if S:
                _add(acc, (S - D, a, Q), c * 2 * S)
            _add(acc, (S, a, Q - 2 * D), c * Q)
        return self._new(ratmap.canonical(acc, self.den * D))

    def y_dy(self):
        D = self.D
        acc = {}
        for (S, a, Q), c in self.nums.items():
            if S:
                _add(acc, (S - D, a, Q + 2 * D), c * 2 * S)
            _add(acc, (S, a, Q), c * Q)
        return self._new(ratmap.canonical(acc, self.den * D))

    def laplacian(self):
        return self.weighted_laplacian(0)

    def weighted_laplacian(self, m):
        """The x Laplacian + dy2 + m dy_over_y in one pass.  The r^(2s-4) y^2
        terms of the x and y parts cancel; per term c r^(2s) x^alpha y^q what
        is left is c 2s (n + 2|alpha| + 2s + 2q - 1 + m) at s - 1, c q (q - 1 + m)
        at q - 2 and the x second derivatives, all over D^2 mq for m = mp/mq."""
        mp, mq = ratmap.ratio(m)
        D, n = self.D, self.n
        xx = D * D * mq
        acc = {}
        for (S, a, Q), c in self.nums.items():
            if S:
                _add(acc, (S - D, a, Q),
                     c * 2 * S * (((n + 2 * sum(a) - 1) * D + 2 * S + 2 * Q) * mq + mp * D))
            _add(acc, (S, a, Q - 2 * D), c * Q * ((Q - D) * mq + mp * D))
            for i, ai in enumerate(a):
                if ai >= 2:
                    _add(acc, (S, a[:i] + (ai - 2,) + a[i + 1:], Q), c * ai * (ai - 1) * xx)
        return self._new(ratmap.canonical(acc, self.den * xx))

    # -- restriction to the boundary --------------------------------------

    def _boundary(self, Q0: int, p: int = 1, q: int = 1) -> "HalfSpacePoly":
        """p/q times the terms with y exponent Q0 / D, as a function on R^n:
        the class in n - 1 variables whose y is x_n.  A nonzero y exponent
        below Q0 / D has no finite limit at y = 0+."""
        D = self.D
        nums = {}
        for (S, a, Q), c in self.nums.items():
            if Q < Q0 and Q:
                raise ValueError("restriction of a y power with no boundary limit")
            if Q == Q0:
                nums[(S, a[:-1], a[-1] * D)] = c
        return HalfSpacePoly._of(self.n - 1, self.frac_gamma, D, ratmap.scale(nums, self.den, p, q))

    def iota(self) -> "HalfSpacePoly":
        """Value at y = 0 (keeps terms with zero y exponent; r becomes |x|)."""
        return self._boundary(0)

    def iota_weighted_neumann(self) -> "HalfSpacePoly":
        """y^m d_y at y -> 0+, m = 1 - 2[g]; only terms with y exponent 2[g]
        survive, with factor 2[g]."""
        fr = self.frac_gamma
        return self._boundary(2 * fr.numerator * (self.D // fr.denominator), 2 * fr.numerator, fr.denominator)

    # -- exact zero test ---------------------------------------------------

    def is_zero_function(self) -> bool:
        """Decide whether the element is the zero function.

        Terms are grouped by fractional class S mod D of the r exponent;
        inside a group all r powers are lowered to the common minimum by
        multinomial expansion of r^2 = |x|^2 + y^2, after which the integer
        numerators of each x^alpha y^q must cancel.
        """
        D = self.D
        groups = {}
        for (S, a, Q), c in self.nums.items():
            groups.setdefault(S % D, []).append((S // D, a, Q, c))
        for entries in groups.values():
            base = min(entry[0] for entry in entries)
            acc = {}
            for t, a, Q, c in entries:
                for xa, ny, mult in _expand_r2(self.n, t - base):
                    _add(acc, (tuple(map(operator.add, a, xa)), Q + 2 * D * ny), c * mult)
            if any(acc.values()):
                return False
        return True

    def __repr__(self):
        if not self.nums:
            return "0"
        return " + ".join(f"({c})*r^{{2*{s}}}x^{a}y^{{{q}}}" for (s, a, q), c in sorted(self.terms.items()))


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
    as {(family, j): B p} for every j <= [g]: T is applied [g] times, and
    jets._apply_operators does the rest."""
    chain = [p]
    for _ in range(params.floor_gamma):
        chain.append(poly_T(chain[-1], params.m))
    return jets._apply_operators(
        params, chain, (HalfSpacePoly.iota, HalfSpacePoly.iota_weighted_neumann),
        lambda pair: HalfSpacePoly._of(p.n - 1, p.frac_gamma, p.D, pair))


# ---------------------------------------------------------------------------
# Hyperbolic side
# ---------------------------------------------------------------------------


def hyperbolic_resolvent(f: HalfSpacePoly, sigma) -> HalfSpacePoly:
    """D_sigma = y^2 Lap - (n - 1) y d_y + sigma (n - sigma): the Laplacian of
    the hyperbolic metric on upper half space plus sigma (n - sigma)."""
    sigma = Fraction(sigma)
    return f.laplacian().mul_y(2) - f.y_dy().scale(f.n - 1) + f.scale(sigma * (f.n - sigma))


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
        brhs = HalfSpacePoly(n - 1, fr)
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
    samples = [w.mul_y(p) for p in (0, 1, Fraction(1, 3)) for w in default_samples(n, fr, extra=2)[:4]]
    for idx, u in enumerate(samples):
        # ordered product, descending resolvent parameter
        lhs_prod = u
        for j in range(k):
            lhs_prod = hyperbolic_resolvent(lhs_prod, s0 - 2 * j)
        # grouped form: even-family factors then odd-family factors
        rhs_prod = u
        for j in range(fl // 2 + 1):
            rhs_prod = hyperbolic_resolvent(rhs_prod, half_n + g - 2 * j)
        for j in range(fl - fl // 2):
            rhs_prod = hyperbolic_resolvent(rhs_prod, half_n + fl - fr - 2 * j)
        if not (lhs_prod - rhs_prod).is_zero_function():
            report.fail(f"sample {idx}: resolvent product groupings disagree")

        # flat side: L_2k (y^(-(n-2g)/2) u) = y^(-(n-2g+4k)/2) L+_2k u
        flat = weighted_poly_power(u.mul_y(-(half_n - g)), m, k)
        rhs = lhs_prod.mul_y(-(half_n - g) - 2 * k)
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
            alpha = FAMILIES.index(family) * fr + j
            want = ops_u[(family, j)].kelvin_pullback(w_in - 2 * alpha)
            if not (got - want).is_zero_function():
                report.fail(f"sample {idx}: boundary Kelvin covariance fails at ({family},{j})")
    if report.passed:
        report.details.append(
            f"interior and {2 * (fl + 1)} boundary operators covariant on {len(samples)} samples"
        )
    return report

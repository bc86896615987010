"""Exact rational core: the order parameter gamma and every constant built from it.

All constants of the theory (Dirichlet-to-Neumann normalizations, quadratic-form
coupling constants, combinatorial Gamma-sum identities) reduce, for rational
gamma, to exact rationals times a single transcendental marker

    R = Gamma(1 - [g]) / Gamma([g]),       [g] = fractional part of gamma,

times a power of two.  The reduction is done with Pochhammer shifts: every
Gamma quotient whose arguments differ by an integer is a finite product of
rational factors.  ``ExactConstant`` carries (rational, R-power, 2-power) and
multiplies exactly; floating evaluation is used only for cross-checks.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction


class PoleError(ArithmeticError):
    """A Gamma quotient hit a pole (zero factor in a Pochhammer product)."""


class GammaDomainError(ValueError):
    """gamma outside the admissible set: positive, non-integer, at most GAMMA_CAP."""


GAMMA_CAP = 8

# the two boundary families, indexed by their branch shift s: the even family
# lives on y^(2j), the odd family on y^(2[g]+2j)
FAMILIES = ("even", "odd")


def parse_gamma(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact Fraction."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GammaDomainError(f"cannot parse gamma from {text!r}") from exc


@dataclass(frozen=True)
class GammaParams:
    """Parameter bundle derived from a positive non-integer rational order.

    Fields follow the conventions used throughout: ``floor_gamma`` is the
    integer part, ``frac_gamma`` the fractional part in (0, 1),
    ``k = floor_gamma + 1`` the power of the weighted Laplacian, and
    ``m = 1 - 2*frac_gamma`` the weight exponent, m in (-1, 1).
    """

    gamma: Fraction
    n: int = 1

    def __post_init__(self):
        g = self.gamma
        if not isinstance(g, Fraction):
            object.__setattr__(self, "gamma", Fraction(g))
            g = self.gamma
        if g <= 0 or g.denominator == 1:
            raise GammaDomainError(f"gamma must be positive and non-integer, got {g}")
        if g > GAMMA_CAP:
            raise GammaDomainError(f"gamma={g} exceeds the cap {GAMMA_CAP}")
        if min(self.frac_gamma, 1 - self.frac_gamma) < sys.float_info.epsilon:
            raise GammaDomainError(f"gamma is within machine epsilon of the integer {round(g)}; "
                                   "its fractional part does not survive floating point")
        if self.n < 1:
            raise GammaDomainError(f"boundary dimension must be >= 1, got {self.n}")

    # computed once per bundle; the exact layers read them in inner loops
    @functools.cached_property
    def floor_gamma(self) -> int:
        return self.gamma.numerator // self.gamma.denominator

    @functools.cached_property
    def frac_gamma(self) -> Fraction:
        return self.gamma - self.floor_gamma

    @property
    def k(self) -> int:
        return self.floor_gamma + 1

    @functools.cached_property
    def m(self) -> Fraction:
        return 1 - 2 * self.frac_gamma

    # index ranges of the two boundary-operator families that carry data
    @property
    def n_even_data(self) -> int:
        """Number of even-family Dirichlet slots: floor(gamma/2) + 1."""
        return self.floor_gamma // 2 + 1

    @property
    def n_odd_data(self) -> int:
        """Number of odd-family Dirichlet slots: floor(gamma) - floor(gamma/2)."""
        return self.floor_gamma - self.floor_gamma // 2

    def __str__(self):
        return f"{self.gamma.numerator}/{self.gamma.denominator}"


_POCHHAMMER = {}


def pochhammer_ratio(q: Fraction, i: int) -> Fraction:
    """Gamma(q + i) / Gamma(q) as an exact rational, for integer i.

    Rising product for i >= 0, reciprocal falling product for i < 0, formed
    on the integer numerator and denominator of q and memoized.  Raises
    PoleError when a factor vanishes (the quotient would hit a pole).
    """
    key = (q, i)
    out = _POCHHAMMER.get(key)
    if out is None:
        q = Fraction(q)
        p, d = q.numerator, q.denominator
        offsets = range(i) if i >= 0 else range(-1, i - 1, -1)
        num = 1
        for t in offsets:
            factor = p + t * d
            if factor == 0:
                raise PoleError(f"pochhammer_ratio({q}, {i}): zero factor at offset {t}")
            num *= factor
        den = d ** len(offsets)
        out = _POCHHAMMER[key] = Fraction(num, den) if i >= 0 else Fraction(den, num)
    return out


def gamma_quotient(a: Fraction, b: Fraction) -> Fraction:
    """Gamma(a)/Gamma(b) where a - b is an integer; exact via Pochhammer shift."""
    diff = Fraction(a) - Fraction(b)
    if diff.denominator != 1:
        raise ValueError(f"Gamma({a})/Gamma({b}) is not rational: offset {diff} not integer")
    return pochhammer_ratio(Fraction(b), int(diff))


def double_factorial(nn: int) -> int:
    """n!! for integer n >= -3 with the conventions (-1)!! = 1 and (-3)!! = -1."""
    if nn == -3:
        return -1
    if nn in (-1, 0):
        return 1
    if nn < -3:
        raise ValueError(f"double factorial not defined here for {nn}")
    out = 1
    while nn > 1:
        out *= nn
        nn -= 2
    return out


def binom_general(top: int, bottom: int) -> Fraction:
    """Generalized binomial via falling factorial; binom(-1, 0) = 1 by convention."""
    if bottom < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(bottom):
        num *= top - i
    return num / math.factorial(bottom)


@dataclass(frozen=True)
class ExactConstant:
    """rational_part * (Gamma(1-[g])/Gamma([g]))**gamma_ratio_power * 2**two_power.

    Closed under multiplication; the value is finite for every admissible
    parameter bundle.  ``two_power`` may be fractional (e.g. 1 - 2[g]).
    """

    rational_part: Fraction
    gamma_ratio_power: int = 0
    two_power: Fraction = field(default_factory=lambda: Fraction(0))

    def __mul__(self, other):
        if isinstance(other, ExactConstant):
            return ExactConstant(
                self.rational_part * other.rational_part,
                self.gamma_ratio_power + other.gamma_ratio_power,
                self.two_power + other.two_power,
            )
        return ExactConstant(
            self.rational_part * Fraction(other), self.gamma_ratio_power, self.two_power
        )

    __rmul__ = __mul__

    def canonical(self, frac_gamma: Fraction):
        """Canonical (rational, ratio_power, two_power in [0,1)) for a given [g].

        At [g] = 1/2 the ratio Gamma(1/2)/Gamma(1/2) is 1, so the marker power
        collapses to zero; integer parts of the 2-power fold into the rational.
        """
        rat = self.rational_part
        p = self.gamma_ratio_power
        if frac_gamma == Fraction(1, 2):
            p = 0
        e = Fraction(self.two_power)
        e_int = e.numerator // e.denominator
        rat = rat * Fraction(2) ** e_int
        return (rat, p, e - e_int)

    def equals_at(self, other: "ExactConstant", frac_gamma: Fraction) -> bool:
        return self.canonical(frac_gamma) == other.canonical(frac_gamma)

    def as_fraction(self, frac_gamma: Fraction) -> Fraction:
        """Exact rational value when the markers collapse (e.g. [g] = 1/2)."""
        rat, p, e = self.canonical(frac_gamma)
        if p != 0 or e != 0:
            raise ValueError(f"constant is not rational at [g]={frac_gamma}: {self}")
        return rat

    def value(self, frac_gamma: Fraction) -> float:
        # 1 - [g] from the exact fraction: in floats it loses digits as [g] -> 1
        ratio = math.gamma(float(1 - frac_gamma)) / math.gamma(float(frac_gamma))
        return (
            float(self.rational_part)
            * ratio ** self.gamma_ratio_power
            * 2.0 ** float(self.two_power)
        )


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann constants
# ---------------------------------------------------------------------------


def cs_normalization(gamma) -> float:
    """The order-(0,1) extension normalization 2^(1-2g) Gamma(1-g)/Gamma(g)."""
    g = Fraction(gamma)
    if not 0 < g < 1:
        raise GammaDomainError(f"cs_normalization requires gamma in (0,1), got {gamma}")
    return 2.0 ** float(1 - 2 * g) * math.gamma(float(1 - g)) / math.gamma(float(g))


def dtn_constant(params: GammaParams, family: str, j: int) -> ExactConstant:
    """Constant linking the Dirichlet datum of a family's slot j to its Neumann
    trace: f^(2j) for the even family, phi^(2j) for the odd one.  Values (with
    fl = floor(gamma), fr = [gamma]):

        (-1)^(1+fl) 2^(1-2 fr) (fl-j)! G(1-fr) G(1-j+gamma) G(2j-gamma)
        -----------------------------------------------------------------
               j!  G(fr)  G(1+j-fr)  G(-2j+gamma)

        (-1)^fl 2^(2 fr - 1) (fl-j)! G(fr) G(1+fl-j-fr) G(2j-fl+fr)
        -------------------------------------------------------------
               j!  G(1-fr)  G(1+j+fr)  G(-2j+fl-fr)

    Both are one rule in the family's branch shift s (0 even, 1 odd) and base
    p = 1 - fr resp. fr, for 0 <= j <= (fl - s)//2: the rational

        (-1)^(1+fl+s) (fl-j)!/j! (1-p)_(1+fl-j-s) (p)_(2j-fl-1+s)
                                 / ((p)_(j+s) (1-p)_(fl-2j-s))

    times R^(1-2s) 2^(2p-1), so the only Gamma content left is a power of R.
    """
    fl, fr = params.floor_gamma, params.frac_gamma
    s = FAMILIES.index(family)
    if not 0 <= j <= (fl - s) // 2:
        raise IndexError(f"dtn_constant: {family} j={j} out of range for gamma={params.gamma}")
    p = fr if s else 1 - fr
    rat = (
        Fraction(-1) ** (1 + fl + s)
        * Fraction(math.factorial(fl - j), math.factorial(j))
        * pochhammer_ratio(1 - p, 1 + fl - j - s)
        * pochhammer_ratio(p, 2 * j - fl - 1 + s)
        / pochhammer_ratio(p, j + s)
        / pochhammer_ratio(1 - p, fl - 2 * j - s)
    )
    return ExactConstant(rat, gamma_ratio_power=1 - 2 * s, two_power=2 * p - 1)


def symmetry_constant(params: GammaParams, j: int, l: int) -> ExactConstant:
    """Coupling constant C(j, l) in the boundary correction of the energy.

    Couples the even datum at slot j with the odd datum at slot l; the Gamma
    content cancels completely, so the result is a pure rational.
    """
    fl, fr = params.floor_gamma, params.frac_gamma
    h = fl // 2
    if not 0 <= j <= h:
        raise IndexError(f"symmetry_constant: j={j} out of range for gamma={params.gamma}")
    if not 0 <= l <= fl - h - 1:
        raise IndexError(f"symmetry_constant: l={l} out of range for gamma={params.gamma}")
    sign = Fraction(-1) ** (h + j)
    rat = (
        sign
        * Fraction(math.factorial(fl - l), math.factorial(j))
        * binom_general(fl - j, l)
        * binom_general(fl - j - l - 1, h - j)
        * pochhammer_ratio(fr, 1 - fl + 2 * l)      # G(1-fl+2l+fr)/G(fr)
        * pochhammer_ratio(fr, fl - h - j)          # G(gamma-h-j)/G(fr)
        / (fr - j + l)
        / pochhammer_ratio(fr, fl - 2 * j)          # G(gamma-2j)/G(fr)
        / pochhammer_ratio(fr, l - h)               # G(fr-h+l)/G(fr)
    )
    return ExactConstant(rat, gamma_ratio_power=0, two_power=Fraction(0))


def yang_constant(params: GammaParams) -> ExactConstant:
    """Energy normalization for data concentrated in the order-zero slot.

    (-1)^(1+fl) 2^(1-2 fr) fl! gamma Gamma(-gamma) / Gamma(fr); agrees with
    dtn_constant(params, "even", 0).
    """
    fl, fr = params.floor_gamma, params.frac_gamma
    sign = Fraction(-1) ** (1 + fl)
    # Gamma(-gamma) = poch(1-fr, -fl-1) * Gamma(1-fr)
    rat = (
        sign
        * math.factorial(fl)
        * params.gamma
        * pochhammer_ratio(1 - fr, -fl - 1)
        / pochhammer_ratio(fr, 0)
    )
    return ExactConstant(rat, gamma_ratio_power=1, two_power=1 - 2 * fr)


# ---------------------------------------------------------------------------
# Half-integer specializations (poly-Laplacian case gamma = kk + 1/2)
# ---------------------------------------------------------------------------


def halfint_dtn_even(kk: int, j: int) -> Fraction:
    """Even-family constant at gamma = kk + 1/2, as an exact rational:

        2^(kk-2j) (kk-j)! (2kk-2j+1)!! / [ j! (2j-1)!! (2kk-4j-1)!! (2kk-4j+1)!! ]
    """
    if not 0 <= j <= kk // 2:
        raise IndexError(f"halfint_dtn_even: j={j} out of range for k={kk}")
    num = Fraction(2) ** (kk - 2 * j) * math.factorial(kk - j) * double_factorial(2 * kk - 2 * j + 1)
    den = (
        math.factorial(j)
        * double_factorial(2 * j - 1)
        * double_factorial(2 * kk - 4 * j - 1)
        * double_factorial(2 * kk - 4 * j + 1)
    )
    return num / den


def halfint_dtn_odd(kk: int, j: int) -> Fraction:
    """Odd-family constant at gamma = kk + 1/2, as an exact rational:

        2^(kk-2j) (kk-j)! (2kk-2j-1)!! / [ j! (2j+1)!! (2kk-4j-1)!! (2kk-4j-3)!! ]

    The power of two here is 2^(kk-2j); a 2^(kk-2j-1) variant in circulation
    is low by a factor of two (cross-checked against an explicit biharmonic
    extension and against the Bessel-mode extraction).
    """
    if not 0 <= j <= kk - kk // 2 - 1:
        raise IndexError(f"halfint_dtn_odd: j={j} out of range for k={kk}")
    num = Fraction(2) ** (kk - 2 * j) * math.factorial(kk - j) * double_factorial(2 * kk - 2 * j - 1)
    den = (
        math.factorial(j)
        * double_factorial(2 * j + 1)
        * double_factorial(2 * kk - 4 * j - 1)
        * double_factorial(2 * kk - 4 * j - 3)
    )
    return num / den


# ---------------------------------------------------------------------------
# Combinatorial Gamma-sum identities: brute-force sums vs closed forms
# ---------------------------------------------------------------------------


def brute_force_F(j: int, l: int, params: GammaParams) -> Fraction:
    """Alternating sum over s of binom(l,s) G(1+j+s-[g]) / G(1+j-l+s-gamma)."""
    if j < 0 or l < 0:
        raise ValueError("brute_force_F requires j, l >= 0")
    fr, g = params.frac_gamma, params.gamma
    total = Fraction(0)
    for s in range(l + 1):
        term = gamma_quotient(1 + j + s - fr, 1 + j - l + s - g)
        total += Fraction(-1) ** s * math.comb(l, s) * term
    return total


def closed_form_F(j: int, l: int, params: GammaParams) -> Fraction:
    """(-1)^l (fl+l)!/fl! * G(1+j-[g]) / G(1+j-gamma)."""
    if j < 0 or l < 0:
        raise ValueError("closed_form_F requires j, l >= 0")
    fl, fr, g = params.floor_gamma, params.frac_gamma, params.gamma
    return (
        Fraction(-1) ** l
        * Fraction(math.factorial(fl + l), math.factorial(fl))
        * gamma_quotient(1 + j - fr, 1 + j - g)
    )


def brute_force_H(nn: int, d: int, g: Fraction) -> Fraction:
    """Sum over ell of (-1)^ell binom(d, ell) G(g-ell) / G(1+g-d-ell)."""
    if nn < 0 or d < 0:
        raise ValueError("brute_force_H requires nn, d >= 0")
    g = Fraction(g)
    total = Fraction(0)
    for ell in range(nn + 1):
        total += Fraction(-1) ** ell * math.comb(d, ell) * gamma_quotient(g - ell, 1 + g - d - ell)
    return total


def closed_form_H(nn: int, d: int, g: Fraction) -> Fraction:
    """(-1)^nn binom(d-1, nn) G(g-nn) / ((g-d) G(g-nn-d)), binom(-1,0) = 1."""
    if nn < 0 or d < 0:
        raise ValueError("closed_form_H requires nn, d >= 0")
    g = Fraction(g)
    if g == d:
        raise PoleError(f"closed_form_H pole: g == d == {d}")
    return (
        Fraction(-1) ** nn
        * binom_general(d - 1, nn)
        * gamma_quotient(g - nn, g - nn - d)
        / (g - d)
    )


def brute_force_K(a: Fraction, b: Fraction, j: int) -> Fraction:
    """Sum over t of binom(j,t) G(a+j)G(b) / (G(a+t)G(b-t))."""
    if j < 0:
        raise ValueError("brute_force_K requires j >= 0")
    a, b = Fraction(a), Fraction(b)
    total = Fraction(0)
    for t in range(j + 1):
        total += (
            math.comb(j, t)
            * pochhammer_ratio(a + t, j - t)   # G(a+j)/G(a+t)
            * pochhammer_ratio(b - t, t)       # G(b)/G(b-t)
        )
    return total


def closed_form_K(a: Fraction, b: Fraction, j: int) -> Fraction:
    """G(a+b+j-1) / G(a+b-1)."""
    if j < 0:
        raise ValueError("closed_form_K requires j >= 0")
    return pochhammer_ratio(Fraction(a) + Fraction(b) - 1, j)

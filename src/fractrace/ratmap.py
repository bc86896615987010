"""Finite maps with rational values, stored as integer numerators over one
positive common denominator: the layout of FLINT's fmpq_poly (Hart, "FLINT:
Fast Library for Number Theory", ICMS 2010), without the library.

A map is a pair (nums, den): a dict key -> nonzero int and an int den > 0
with gcd(den, *nums) = 1, so equal maps have equal pairs.  Every function
here returns that canonical form; arithmetic inside a loop stays on plain
ints and is reduced once per result.  ``HalfSpacePoly``, ``BoundaryPoly``
(module ``polys``), ``BoundaryExpr`` (module ``jets``) and
``PolyGaussModeFn`` (module ``energy``) share it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def canonical(nums: dict, den: int):
    """(nums, den) with zero numerators dropped and the common gcd divided
    out; den must be positive."""
    if 0 in nums.values():
        nums = {k: v for k, v in nums.items() if v}
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


def from_rationals(terms: dict):
    """Canonical pair of a map whose values are ints or Fractions."""
    values = {k: Fraction(c) for k, c in terms.items()}
    den = math.lcm(*(c.denominator for c in values.values()))
    return canonical({k: c.numerator * (den // c.denominator) for k, c in values.items()}, den)


def as_rationals(nums: dict, den: int) -> dict:
    return {k: Fraction(v, den) for k, v in nums.items()}


def scale(nums: dict, den: int, p: int, q: int = 1):
    """The map times p/q, for ints p and q > 0."""
    if p == 0:
        return {}, 1
    return canonical({k: v * p for k, v in nums.items()}, den * q)


def add(nums1: dict, den1: int, nums2: dict, den2: int, p: int = 1, q: int = 1):
    """nums1/den1 + (p/q) nums2/den2, aligned on the lcm of the denominators."""
    den2 *= q
    den = den1 // math.gcd(den1, den2) * den2
    f1, f2 = den // den1, den // den2 * p
    acc = {k: v * f1 for k, v in nums1.items()} if f1 != 1 else dict(nums1)
    for k, v in nums2.items():
        acc[k] = acc.get(k, 0) + v * f2
    return canonical(acc, den)


def ratio(c):
    """(numerator, denominator) of an int or Fraction c, else of Fraction(c)."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator

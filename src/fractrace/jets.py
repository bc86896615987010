"""Exact two-branch jet algebra near y = 0 and the recursive boundary operators.

A jet is a truncated expansion

    sum_j a_j(x) y^(2j)  +  y^(2[g]) sum_j b_j(x) y^(2j)

whose coefficients are formal boundary expressions: finite rational
combinations of tangential-Laplacian powers applied to named symbols, with a
separate flag marking the scattering image of a symbol.  Everything here is
exact rational arithmetic, kept on integers: a boundary expression stores
integer numerators over one common denominator (module `ratmap`), and the
normal-operator factors 4j(j -+ [g]) are integers over den [g].  The
verification operations check operator identities with zero tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import ratmap
from .gammacore import FAMILIES, GammaParams, pochhammer_ratio
from .report import VerificationReport


class TruncationError(ValueError):
    """An operation needed jet orders beyond the tracked truncation."""


class BoundaryExpr:
    """Finite map (symbol, laplacian_power, hat_flag) -> rational coefficient.

    Stored as nonzero integer numerators ``nums`` over one positive common
    denominator ``den`` in the canonical form of `ratmap`, so equality is map
    equality; ``terms`` reads the map with Fraction coefficients.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        self.nums, self.den = ratmap.from_rationals({k: c for k, c in (terms or {}).items() if c != 0})

    @staticmethod
    def _of(pair) -> "BoundaryExpr":
        out = BoundaryExpr.__new__(BoundaryExpr)
        out.nums, out.den = pair
        return out

    @classmethod
    def symbol(cls, name: str, lap: int = 0, hat: bool = False, coeff=1) -> "BoundaryExpr":
        return cls({(name, lap, hat): coeff})

    @classmethod
    def zero(cls) -> "BoundaryExpr":
        return BoundaryExpr._of(({}, 1))

    @property
    def terms(self):
        return MappingProxyType(ratmap.as_rationals(self.nums, self.den))

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: "BoundaryExpr") -> "BoundaryExpr":
        return BoundaryExpr._of(ratmap.add(self.nums, self.den, other.nums, other.den))

    def __sub__(self, other: "BoundaryExpr") -> "BoundaryExpr":
        return BoundaryExpr._of(ratmap.add(self.nums, self.den, other.nums, other.den, -1))

    def scale(self, c) -> "BoundaryExpr":
        return BoundaryExpr._of(ratmap.scale(self.nums, self.den, *ratmap.ratio(c)))

    def laplacian(self, times: int = 1) -> "BoundaryExpr":
        """Apply the tangential Laplacian as a formal symbol shift."""
        return BoundaryExpr._of((
            {(name, lap + times, hat): c for (name, lap, hat), c in self.nums.items()}, self.den))

    def __eq__(self, other):
        return isinstance(other, BoundaryExpr) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((frozenset(self.nums.items()), self.den))

    def __repr__(self):
        if not self.nums:
            return "0"
        bits = []
        for (name, lap, hat), coeff in sorted(self.terms.items()):
            sym = f"{name}^" if hat else name
            lapstr = f"L^{lap} " if lap else ""
            bits.append(f"({coeff})*{lapstr}{sym}")
        return " + ".join(bits)


@dataclass(frozen=True)
class Jet:
    """Two-branch truncated expansion with BoundaryExpr coefficients.

    a[j] multiplies y^(2j); b[j] multiplies y^(2[g]+2j).  The branches never
    mix under any operation here (for [g] = 1/2 they are the even/odd integer
    powers and remain stored separately).
    """

    params: GammaParams
    truncation: int
    a: tuple
    b: tuple

    @classmethod
    def zero(cls, params: GammaParams, truncation: int) -> "Jet":
        z = tuple(BoundaryExpr.zero() for _ in range(truncation + 1))
        return cls(params, truncation, z, z)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.a) and all(e.is_zero() for e in self.b)

    def __add__(self, other: "Jet") -> "Jet":
        trunc = min(self.truncation, other.truncation)
        return Jet(
            self.params,
            trunc,
            tuple(self.a[j] + other.a[j] for j in range(trunc + 1)),
            tuple(self.b[j] + other.b[j] for j in range(trunc + 1)),
        )

    def scale(self, c) -> "Jet":
        return Jet(
            self.params,
            self.truncation,
            tuple(e.scale(c) for e in self.a),
            tuple(e.scale(c) for e in self.b),
        )


def apply_T(jet: Jet) -> Jet:
    """The normal operator on jets: y^(2j) -> 4j(j-[g]) y^(2j-2) on the a
    branch and y^(2[g]+2j) -> 4j(j+[g]) y^(2[g]+2j-2) on the b branch.
    Consumes one order of truncation."""
    if jet.truncation < 1:
        raise TruncationError("apply_T: truncation exhausted")
    fr = jet.params.frac_gamma
    fn, fd = fr.numerator, fr.denominator
    trunc = jet.truncation - 1

    def scaled(e, j, sign):  # e * 4 (j+1)(j+1 -+ [g]), an integer over den [g]
        return BoundaryExpr._of(ratmap.scale(e.nums, e.den, 4 * (j + 1) * ((j + 1) * fd - sign * fn), fd))

    new_a = tuple(scaled(jet.a[j + 1], j, 1) for j in range(trunc + 1))
    new_b = tuple(scaled(jet.b[j + 1], j, -1) for j in range(trunc + 1))
    return Jet(jet.params, trunc, new_a, new_b)


def apply_tangential(jet: Jet) -> Jet:
    """Tangential Laplacian: shift the formal laplacian power of every term."""
    return Jet(
        jet.params,
        jet.truncation,
        tuple(e.laplacian() for e in jet.a),
        tuple(e.laplacian() for e in jet.b),
    )


def apply_weighted_laplacian(jet: Jet) -> Jet:
    """Weighted Laplacian on jets: the normal part plus the tangential part,
    truncated to the surviving order."""
    if jet.truncation < 1:
        raise TruncationError("apply_weighted_laplacian: truncation exhausted")
    t_part = apply_T(jet)
    lap = apply_tangential(jet)
    lap_cut = Jet(jet.params, t_part.truncation, lap.a[: t_part.truncation + 1], lap.b[: t_part.truncation + 1])
    return t_part + lap_cut


def restrict(jet: Jet) -> BoundaryExpr:
    """Boundary restriction: the order-zero coefficient of the a branch."""
    return jet.a[0]


def restrict_weighted_neumann(jet: Jet) -> BoundaryExpr:
    """Weighted Neumann trace y^m d_y at y -> 0+: picks out 2[g] b_0."""
    fr = jet.params.frac_gamma
    return BoundaryExpr._of(ratmap.scale(jet.b[0].nums, jet.b[0].den, 2 * fr.numerator, fr.denominator))


def _rho(params: GammaParams, s: int, j: int, ell: int) -> Fraction:
    """Recursion weight of the tangential term in the family of branch shift s,
    in the family's base q = 1 - [g] (s = 0) or [g] (s = 1):
    C(j, l) (q)_(s+j)/(q)_(s+j-l) (q)_(s+2j-2l-fl)/(q)_(s+2j-l-fl)."""
    fr, fl = params.frac_gamma, params.floor_gamma
    q = fr if s else 1 - fr
    return (
        math.comb(j, ell)
        * pochhammer_ratio(q, s + j) / pochhammer_ratio(q, s + j - ell)
        * pochhammer_ratio(q, s + 2 * j - 2 * ell - fl)
        / pochhammer_ratio(q, s + 2 * j - ell - fl)
    )


def _trace_chain(params: GammaParams, s: int, tau: int) -> Fraction:
    """c_s(tau) = (1+s) 4^tau tau! (q)_(tau+s): the trace of T^tau on the
    family's leading monomial y^(2s[g]+2tau) (restriction for s = 0, weighted
    Neumann trace for s = 1)."""
    q = params.frac_gamma if s else 1 - params.frac_gamma
    return (1 + s) * Fraction(4) ** tau * math.factorial(tau) * pochhammer_ratio(q, tau + s)


def boundary_operators(params: GammaParams, jet: Jet) -> dict:
    """Every B at (family, j) for j <= min([g], truncation), as {(family, j): B};
    T is applied to the jet once per step (see _apply_operators)."""
    chain = [jet]
    for _ in range(min(params.floor_gamma, jet.truncation)):
        chain.append(apply_T(chain[-1]))
    return _apply_operators(params, chain, (restrict, restrict_weighted_neumann), BoundaryExpr._of)


def _apply_operators(params: GammaParams, chain: list, traces: tuple, of) -> dict:
    """{(family, j): sum c * Lap^l trace(T^t x)} over the symbol of each
    (family, j), j < len(chain), from chain = [x, T x, ...] and each family's
    trace, for the jets and the polynomial class alike: each trace's ladder
    Lap^l is built once, as deep as the symbols reach; of(nums, den) makes B."""
    out = {}
    for family, trace in zip(FAMILIES, traces):
        ladders = [[trace(x)] for x in chain]
        for j in range(len(chain)):
            nums, den = {}, 1
            for (tp, lp), coeff in boundary_operator_symbol(params, family, j).items():
                ladder = ladders[tp]
                while len(ladder) <= lp:
                    ladder.append(ladder[-1].laplacian())
                nums, den = ratmap.add(nums, den, ladder[lp].nums, ladder[lp].den, *ratmap.ratio(coeff))
            out[(family, j)] = of((nums, den))
    return out


def boundary_indices(params: GammaParams):
    """All admissible operator indices 2*alpha, as (family, j, 2*alpha) triples."""
    fl, fr = params.floor_gamma, params.frac_gamma
    out = [("even", j, Fraction(2 * j)) for j in range(fl + 1)]
    out += [("odd", j, 2 * fr + 2 * j) for j in range(fl + 1)]
    return out


def boundary_operator_symbol(params: GammaParams, family: str, j: int) -> dict:
    """The operator written in the (normal, tangential) algebra.

    Returns {(t_power, lap_power): coeff} meaning sum coeff * Lap^l o trace o T^t,
    where trace is the restriction (even family) or the weighted Neumann trace
    (odd family).  The coefficient of the pure T^j term is (-1)^j resp. (-1)^(j+1).
    """
    return dict(_symbol_items(params, family, j))


@functools.lru_cache(maxsize=None)
def _symbol_items(params: GammaParams, family: str, j: int) -> tuple:
    """Memoized symbol as sorted items, unrolling, with s the family's shift,

    B_{2s[g]+2j} = (-1)^(j+s) trace_s o T^j - sum_l rho_s * Lap^l B_{2s[g]+2j-2l}

    where trace_0 is the restriction and trace_1 the weighted Neumann trace.
    """
    s = FAMILIES.index(family)
    sign = Fraction(-1) ** (j + s)
    out = {(j, 0): sign}
    for ell in range(1, j + 1):
        weight = _rho(params, s, j, ell)
        for (tp, lp), coeff in _symbol_items(params, family, j - ell):
            key = (tp, lp + ell)
            acc = out.get(key, Fraction(0)) - weight * coeff
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return tuple(sorted(out.items()))


def default_truncation(params: GammaParams) -> int:
    return params.floor_gamma + 4


# the datum symbol of each family, by branch shift s
_DATUM = ("f", "phi")


def make_scattering_jet(params: GammaParams, j: int, kind: str) -> Jet:
    """Formal jet of the renormalized Poisson-operator image with unit datum.

    The family kind of branch shift s (0 even, 1 odd) uses scattering order
    nu = gamma - 2s[g] - 2j for 0 <= j <= (floor(gamma) - s)//2, on the symbol
    f (even) or phi (odd): gamma - 2j resp. floor(gamma) - [gamma] - 2j.  The
    data branch (a for even, b for odd) leads with the bare symbol at order
    j; the other branch carries the hat symbol from order floor(gamma) - j
    with leading coefficient one.
    """
    fl, fr, g = params.floor_gamma, params.frac_gamma, params.gamma
    truncation = default_truncation(params)
    s = FAMILIES.index(kind)
    if not 0 <= j <= (fl - s) // 2:
        raise IndexError(f"scattering jet ({kind}) index {j} out of range for gamma={g}")
    gt = g - 2 * s * fr - 2 * j
    assert gt > 0 and gt.denominator != 1, f"resonant scattering order {gt}"
    co_idx = fl - j

    branches = ([BoundaryExpr.zero() for _ in range(truncation + 1)],
                [BoundaryExpr.zero() for _ in range(truncation + 1)])
    lead, co = branches[s], branches[1 - s]
    for ell in range(truncation + 1):   # one term per slot of each branch
        coeff = Fraction((-1) ** ell, 4 ** ell * math.factorial(ell))
        if j + ell <= truncation:
            lead[j + ell] = BoundaryExpr.symbol(
                _DATUM[s], lap=ell, hat=False, coeff=coeff / pochhammer_ratio(1 - gt, ell)
            )
        if co_idx + ell <= truncation:
            co[co_idx + ell] = BoundaryExpr.symbol(
                _DATUM[s], lap=ell, hat=True, coeff=coeff / pochhammer_ratio(1 + gt, ell)
            )
    return Jet(params, truncation, *map(tuple, branches))


def scattering_relation_constants(params: GammaParams, j: int, kind: str):
    """Expected boundary-operator outputs on the matching scattering jet.

    Returns ((family, index, coefficient, hat_flag), ...) for the two nonzero
    slots: the data slot (the jet's family, index j) and the scattering slot
    (the other family, index floor(gamma) - j).  A family of shift s reads
    (-1)^(tau+s) c_s(tau) at index tau (see _trace_chain).
    """
    fl = params.floor_gamma
    s = FAMILIES.index(kind)

    def kappa(shift, tau):
        return (-1) ** (tau + shift) * _trace_chain(params, shift, tau)

    return ((kind, j, kappa(s, j), False), (FAMILIES[1 - s], fl - j, kappa(1 - s, fl - j), True))


def verify_scattering_relations(params: GammaParams) -> VerificationReport:
    """Every boundary operator applied to every admissible scattering jet must
    return exactly the predicted constant times the (hat) symbol, and exactly
    zero on all other indices."""
    report = VerificationReport("scattering_relations", str(params), params.n)
    indices = boundary_indices(params)
    for kind, count in (("even", params.n_even_data), ("odd", params.n_odd_data)):
        for j in range(count):
            jet = make_scattering_jet(params, j, kind)
            expected = {}
            for family, idx, kappa, hat in scattering_relation_constants(params, j, kind):
                expected[(family, idx)] = BoundaryExpr.symbol(
                    _DATUM[FAMILIES.index(kind)], lap=0, hat=hat, coeff=kappa)
            ops = boundary_operators(params, jet)
            for family, idx, _ in indices:
                got = ops[(family, idx)]
                want = expected.get((family, idx), BoundaryExpr.zero())
                if got != want:
                    report.fail(
                        f"jet(kind={kind}, j={j}): B[{family},{idx}] = {got!r}, expected {want!r}"
                    )
    if report.passed:
        report.details.append(
            f"all {2 * len(indices) // 2} operators exact on "
            f"{params.n_even_data + params.n_odd_data} scattering jets"
        )
    return report


def make_generic_jet(params: GammaParams, truncation: int = None) -> Jet:
    """Jet whose coefficients are independent fresh symbols u0.., v0.. ."""
    if truncation is None:
        truncation = default_truncation(params)
    a = tuple(BoundaryExpr.symbol(f"u{j}") for j in range(truncation + 1))
    b = tuple(BoundaryExpr.symbol(f"v{j}") for j in range(truncation + 1))
    return Jet(params, truncation, a, b)


def verify_operators_via_laplacian(params: GammaParams) -> VerificationReport:
    """Check the expansion of the restricted powers of the weighted Laplacian in
    terms of boundary operators, on a fully generic jet, with exact equality."""
    report = VerificationReport("operators_via_laplacian", str(params), params.n)
    fl, fr = params.floor_gamma, params.frac_gamma
    jet = make_generic_jet(params)
    ops = boundary_operators(params, jet)
    powers = [jet]
    for _ in range(fl):
        powers.append(apply_weighted_laplacian(powers[-1]))

    for j in range(fl + 1):
        lhs_even = restrict(powers[j])
        rhs_even = BoundaryExpr.zero()
        lhs_odd = restrict_weighted_neumann(powers[j])
        rhs_odd = BoundaryExpr.zero()
        for ell in range(j + 1):
            shared = Fraction(math.comb(j, ell)) * Fraction(
                math.factorial(fl - ell), math.factorial(fl - j)
            )
            w_even = (
                Fraction(-1) ** ell
                * shared
                * pochhammer_ratio(fr, fl - j - ell)
                / pochhammer_ratio(fr, fl - 2 * ell)
            )
            rhs_even = rhs_even + ops[("even", ell)].laplacian(j - ell).scale(w_even)
            w_odd = (
                shared
                * pochhammer_ratio(fr, 1 + 2 * ell - fl)
                / pochhammer_ratio(fr, 1 + j + ell - fl)
            )
            rhs_odd = rhs_odd + ops[("odd", ell)].laplacian(j - ell).scale(w_odd)
        rhs_odd = rhs_odd.scale(Fraction(-1) ** (j + 1))
        if lhs_even != rhs_even:
            report.fail(f"even expansion fails at power {j}: {lhs_even!r} != {rhs_even!r}")
        if lhs_odd != rhs_odd:
            report.fail(f"odd expansion fails at power {j}: {lhs_odd!r} != {rhs_odd!r}")
    if report.passed:
        report.details.append(f"both expansions exact for powers 0..{fl}")
    return report


def verify_scattering_annihilation(params: GammaParams) -> VerificationReport:
    """Applying the weighted Laplacian k = floor(gamma)+1 times to any
    scattering jet must give the zero jet up to the surviving truncation."""
    report = VerificationReport("scattering_annihilation", str(params), params.n)
    for kind, count in (("even", params.n_even_data), ("odd", params.n_odd_data)):
        for j in range(count):
            jet = make_scattering_jet(params, j, kind)
            for _ in range(params.k):
                jet = apply_weighted_laplacian(jet)
            if not jet.is_zero():
                report.fail(f"jet(kind={kind}, j={j}) not annihilated: residual truncation {jet.truncation}")
    if report.passed:
        report.details.append("weighted poly-Laplacian annihilates all scattering jets exactly")
    return report

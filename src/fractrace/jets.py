"""Exact two-branch jet algebra near y = 0 and the recursive boundary operators.

A jet is a truncated expansion

    sum_j a_j(x) y^(2j)  +  y^(2[g]) sum_j b_j(x) y^(2j)

whose coefficients are formal boundary expressions: finite rational
combinations of tangential-Laplacian powers applied to named symbols, with a
separate flag marking the scattering image of a symbol.  Everything here is
exact Fraction arithmetic; the verification operations check operator
identities with zero tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .gammacore import GammaParams, pochhammer_ratio
from .report import VerificationReport


class TruncationError(ValueError):
    """An operation needed jet orders beyond the tracked truncation."""


class BoundaryExpr:
    """Finite map (symbol, laplacian_power, hat_flag) -> rational coefficient.

    Canonical form never stores zero coefficients, so equality is map equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    self.terms[key] = Fraction(coeff)

    @classmethod
    def symbol(cls, name: str, lap: int = 0, hat: bool = False, coeff=1) -> "BoundaryExpr":
        return cls({(name, lap, hat): Fraction(coeff)})

    @classmethod
    def zero(cls) -> "BoundaryExpr":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BoundaryExpr") -> "BoundaryExpr":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, Fraction(0)) + coeff
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        result = BoundaryExpr.__new__(BoundaryExpr)
        result.terms = out
        return result

    def __sub__(self, other: "BoundaryExpr") -> "BoundaryExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "BoundaryExpr":
        c = Fraction(c)
        if c == 0:
            return BoundaryExpr.zero()
        result = BoundaryExpr.__new__(BoundaryExpr)
        result.terms = {key: coeff * c for key, coeff in self.terms.items()}
        return result

    def laplacian(self, times: int = 1) -> "BoundaryExpr":
        """Apply the tangential Laplacian as a formal symbol shift."""
        result = BoundaryExpr.__new__(BoundaryExpr)
        result.terms = {
            (name, lap + times, hat): coeff for (name, lap, hat), coeff in self.terms.items()
        }
        return result

    def dilate(self, lam2) -> "BoundaryExpr":
        """Scale each term by lam2**laplacian_power (boundary dilation bookkeeping)."""
        lam2 = Fraction(lam2)
        result = BoundaryExpr.__new__(BoundaryExpr)
        result.terms = {key: coeff * lam2 ** key[1] for key, coeff in self.terms.items()}
        return result

    def hat_component(self) -> "BoundaryExpr":
        return BoundaryExpr({k: c for k, c in self.terms.items() if k[2]})

    def __eq__(self, other):
        return isinstance(other, BoundaryExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
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

    def dilate(self, lam2) -> "Jet":
        """Jet of U(lam x, lam y) in terms of the rescaled base symbols:
        the coefficient at branch order j carrying lap tangential powers picks
        up lam2^(j - lap) (y powers and x derivatives scale oppositely).  The
        common lam2^[g] factor of the b branch is left out and reappears in
        the homogeneity degree of the odd operator family."""
        lam2 = Fraction(lam2)
        return Jet(
            self.params,
            self.truncation,
            tuple(self.a[j].dilate(1 / lam2).scale(lam2 ** j) for j in range(self.truncation + 1)),
            tuple(self.b[j].dilate(1 / lam2).scale(lam2 ** j) for j in range(self.truncation + 1)),
        )


def apply_T(jet: Jet) -> Jet:
    """The normal operator on jets: y^(2j) -> 4j(j-[g]) y^(2j-2) on the a
    branch and y^(2[g]+2j) -> 4j(j+[g]) y^(2[g]+2j-2) on the b branch.
    Consumes one order of truncation."""
    if jet.truncation < 1:
        raise TruncationError("apply_T: truncation exhausted")
    fr = jet.params.frac_gamma
    trunc = jet.truncation - 1
    new_a = tuple(jet.a[j + 1].scale(4 * (j + 1) * (j + 1 - fr)) for j in range(trunc + 1))
    new_b = tuple(jet.b[j + 1].scale(4 * (j + 1) * (j + 1 + fr)) for j in range(trunc + 1))
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
    return jet.b[0].scale(2 * jet.params.frac_gamma)


def _rho_even(params: GammaParams, j: int, ell: int) -> Fraction:
    """Recursion weight of the tangential term in the even family."""
    fr, fl = params.frac_gamma, params.floor_gamma
    return (
        math.comb(j, ell)
        * pochhammer_ratio(1 - fr, j) / pochhammer_ratio(1 - fr, j - ell)
        * pochhammer_ratio(1 - fr, 2 * j - 2 * ell - fl)
        / pochhammer_ratio(1 - fr, 2 * j - ell - fl)
    )


def _rho_odd(params: GammaParams, j: int, ell: int) -> Fraction:
    """Recursion weight of the tangential term in the odd family."""
    fr, fl = params.frac_gamma, params.floor_gamma
    return (
        math.comb(j, ell)
        * pochhammer_ratio(fr, 1 + j) / pochhammer_ratio(fr, 1 + j - ell)
        * pochhammer_ratio(fr, 1 + 2 * j - 2 * ell - fl)
        / pochhammer_ratio(fr, 1 + 2 * j - ell - fl)
    )


def boundary_operator_family(params: GammaParams, family: str, j: int, jet: Jet) -> BoundaryExpr:
    """B at even index 2j (family='even') or odd index 2[g]+2j (family='odd'),
    evaluated from its symbol as sum c * Lap^l trace(T^t jet)."""
    if not 0 <= j <= params.floor_gamma:
        raise IndexError(f"boundary operator index {j} out of range for gamma={params.gamma}")
    if jet.truncation < j:
        raise TruncationError(f"jet truncation {jet.truncation} insufficient for index {j}")
    symbol = boundary_operator_symbol(params, family, j)
    trace = restrict if family == "even" else restrict_weighted_neumann
    traces = [trace(jet)]
    for _ in range(j):
        jet = apply_T(jet)
        traces.append(trace(jet))
    out = BoundaryExpr.zero()
    for (tp, lp), coeff in symbol.items():
        out = out + traces[tp].laplacian(lp).scale(coeff)
    return out


def boundary_indices(params: GammaParams):
    """All admissible operator indices 2*alpha, as (family, j, 2*alpha) triples."""
    fl, fr = params.floor_gamma, params.frac_gamma
    out = [("even", j, Fraction(2 * j)) for j in range(fl + 1)]
    out += [("odd", j, 2 * fr + 2 * j) for j in range(fl + 1)]
    return out


def boundary_operator(params: GammaParams, alpha2, jet: Jet) -> BoundaryExpr:
    """B at index 2*alpha given as a rational; dispatches to the right family."""
    alpha2 = Fraction(alpha2)
    for family, j, idx in boundary_indices(params):
        if idx == alpha2:
            return boundary_operator_family(params, family, j, jet)
    raise IndexError(f"2*alpha={alpha2} is not an admissible boundary index for gamma={params.gamma}")


def boundary_operator_symbol(params: GammaParams, family: str, j: int) -> dict:
    """The operator written in the (normal, tangential) algebra.

    Returns {(t_power, lap_power): coeff} meaning sum coeff * Lap^l o trace o T^t,
    where trace is the restriction (even family) or the weighted Neumann trace
    (odd family).  The coefficient of the pure T^j term is (-1)^j resp. (-1)^(j+1).
    """
    return dict(_symbol_items(params, family, j))


@functools.lru_cache(maxsize=None)
def _symbol_items(params: GammaParams, family: str, j: int) -> tuple:
    """Memoized symbol as sorted items, unrolling

    Even:  B_{2j}      = (-1)^j     restrict o T^j  - sum_l rho * Lap^l B_{2j-2l}
    Odd:   B_{2[g]+2j} = (-1)^(j+1) neumann o T^j   - sum_l rho * Lap^l B_{2[g]+2j-2l}
    """
    if family == "even":
        sign, rho = Fraction(-1) ** j, _rho_even
    elif family == "odd":
        sign, rho = Fraction(-1) ** (j + 1), _rho_odd
    else:
        raise ValueError(f"unknown boundary family {family!r}")
    out = {(j, 0): sign}
    for ell in range(1, j + 1):
        weight = rho(params, j, ell)
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


def make_scattering_jet(params: GammaParams, j: int, kind: str, truncation: int = None,
                        base: str = None) -> Jet:
    """Formal jet of the renormalized Poisson-operator image with unit datum.

    kind='even' uses scattering order gamma - 2j (0 <= j <= floor(gamma/2));
    kind='odd' uses floor(gamma) - [gamma] - 2j (0 <= j <= floor-floor/2-1).
    The leading coefficient of the data branch is the bare symbol; the other
    branch carries the hat symbol with leading coefficient one.
    """
    fl, fr, g = params.floor_gamma, params.frac_gamma, params.gamma
    if truncation is None:
        truncation = default_truncation(params)
    if kind == "even":
        if not 0 <= j <= fl // 2:
            raise IndexError(f"scattering jet (even) index {j} out of range for gamma={g}")
        gt = g - 2 * j
        lead_branch, lead_idx = "a", j
        if base is None:
            base = "f"
    elif kind == "odd":
        if not 0 <= j <= fl - fl // 2 - 1:
            raise IndexError(f"scattering jet (odd) index {j} out of range for gamma={g}")
        gt = fl - fr - 2 * j
        lead_branch, lead_idx = "b", j
        if base is None:
            base = "phi"
    else:
        raise ValueError(f"unknown scattering kind {kind!r}")
    assert gt > 0 and gt.denominator != 1, f"resonant scattering order {gt}"
    co_idx = fl - j

    a = [BoundaryExpr.zero() for _ in range(truncation + 1)]
    b = [BoundaryExpr.zero() for _ in range(truncation + 1)]
    lead, co = (a, b) if lead_branch == "a" else (b, a)
    for ell in range(truncation + 1):
        coeff = Fraction(-1) ** ell / (Fraction(4) ** ell * math.factorial(ell))
        if lead_idx + ell <= truncation:
            lead[lead_idx + ell] += BoundaryExpr.symbol(
                base, lap=ell, hat=False, coeff=coeff / pochhammer_ratio(1 - gt, ell)
            )
        if co_idx + ell <= truncation:
            co[co_idx + ell] += BoundaryExpr.symbol(
                base, lap=ell, hat=True, coeff=coeff / pochhammer_ratio(1 + gt, ell)
            )
    return Jet(params, truncation, tuple(a), tuple(b))


def scattering_relation_constants(params: GammaParams, j: int, kind: str):
    """Expected boundary-operator outputs on the matching scattering jet.

    Returns ((family, index, coefficient, hat_flag), ...) for the two nonzero
    slots: the data slot and the scattering slot.
    """
    fl, fr = params.floor_gamma, params.frac_gamma
    if kind == "even":
        kappa_data = Fraction(-1) ** j * Fraction(4) ** j * math.factorial(j) * pochhammer_ratio(1 - fr, j)
        kappa_hat = (
            Fraction(-1) ** (fl - j + 1)
            * 2 * Fraction(4) ** (fl - j)
            * math.factorial(fl - j)
            * pochhammer_ratio(fr, 1 + fl - j)
        )
        return (("even", j, kappa_data, False), ("odd", fl - j, kappa_hat, True))
    kappa_data = Fraction(-1) ** (j + 1) * 2 * Fraction(4) ** j * math.factorial(j) * pochhammer_ratio(fr, 1 + j)
    kappa_hat = (
        Fraction(-1) ** (fl - j)
        * Fraction(4) ** (fl - j)
        * math.factorial(fl - j)
        * pochhammer_ratio(1 - fr, fl - j)
    )
    return (("odd", j, kappa_data, False), ("even", fl - j, kappa_hat, True))


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
                base = "f" if kind == "even" else "phi"
                expected[(family, idx)] = BoundaryExpr.symbol(base, lap=0, hat=hat, coeff=kappa)
            for family, idx, _ in indices:
                got = boundary_operator_family(params, family, idx, jet)
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
            rhs_even = rhs_even + boundary_operator_family(params, "even", ell, jet).laplacian(
                j - ell
            ).scale(w_even)
            w_odd = (
                shared
                * pochhammer_ratio(fr, 1 + 2 * ell - fl)
                / pochhammer_ratio(fr, 1 + j + ell - fl)
            )
            rhs_odd = rhs_odd + boundary_operator_family(params, "odd", ell, jet).laplacian(
                j - ell
            ).scale(w_odd)
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

"""Command-line front end: verification sweeps, extension/DtN file runs, and
sharpness reports with a CI-friendly exit-code contract.

exit 0: all checks passed; exit 1: at least one check failed; exit 2: bad
configuration or input files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import energy as en
from . import gammacore as gc
from . import jets, modes, polys
from .report import VerificationReport, reports_to_csv, reports_to_json, write_atomic

DEFAULT_GAMMAS = ["1/3", "1/2", "4/5", "4/3", "3/2", "9/4", "5/2", "10/3", "7/2", "9/2"]
ENERGY_GAMMAS = ["1/2", "3/2", "5/2"]
# numeric checks that build 1-D boundary grids whatever --n says
GRID_CHECKS = ["extension_self_consistency", "yang_extension", "q_symmetry",
               "dirichlet_principle", "energy_trace"]

# module-documented defaults; loosenable only through --loosen-tol
TOL_DEFAULTS = {
    "dtn_bessel_extraction": 1e-8,
    "mode_ode_residual": 1e-7,
    "self_consistency": 1e-9,
    "yang_trace": 1e-8,
    "yang_cs": 1e-6,
    "q_symmetry": 1e-8,
    "dirichlet_principle": 1e-7,
    "energy_trace": 1e-6,
    "sharp_sobolev": 1e-2,
    "lebedev_milin": 1e-3,
}


class ConfigError(ValueError):
    pass


def _parse_tolerances(entries) -> dict:
    tols = dict(TOL_DEFAULTS)
    for entry in entries or []:
        if "=" not in entry:
            raise ConfigError(f"--loosen-tol expects NAME=VALUE, got {entry!r}")
        name, _, value = entry.partition("=")
        if name not in tols:
            raise ConfigError(f"unknown tolerance {name!r}; known: {sorted(tols)}")
        try:
            val = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value {value!r}") from exc
        if val < tols[name]:
            raise ConfigError(
                f"tolerance {name} may only be loosened (default {tols[name]:g}, got {val:g})")
        tols[name] = val
    return tols


def _pool_size() -> int:
    env = os.environ.get("FRACTRACE_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"FRACTRACE_THREADS={env!r} is not an integer") from exc
    return min(4, os.cpu_count() or 1)


def _rational_arg(flag: str, text: str, ok, requirement: str) -> Fraction:
    """Parse a rational command-line value and range-check it with ok."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(
            f"{flag} expects a finite rational number such as 3/2, got {text!r}") from None
    if not ok(value):
        raise ConfigError(f"{flag} must be {requirement}, got {text!r}")
    return value


def _parse_gammas(text: str):
    out = []
    for piece in text.split(","):
        g = gc.parse_gamma(piece)
        params = gc.GammaParams(g)  # validates positivity / non-integrality
        out.append(params.gamma)
    return out


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def _exact_checks(gamma: Fraction, n: int, seed: int):
    params = gc.GammaParams(gamma, n=n)
    checks = []

    rep = VerificationReport("gamma_constants", str(params), n)
    try:
        worst = 0.0
        for j in range(params.n_even_data):
            c = gc.dtn_constant_even(params, j)
            worst = max(worst, _float_gamma_defect_even(params, j, c))
        for j in range(params.n_odd_data):
            d = gc.dtn_constant_odd(params, j)
            worst = max(worst, _float_gamma_defect_odd(params, j, d))
        rep.record(worst <= 1e-12, worst, f"closed forms vs direct Gamma evaluation: {worst:.2e}")
        yc = gc.yang_constant(params)
        c0 = gc.dtn_constant_even(params, 0)
        rep.record(yc.equals_at(c0, params.frac_gamma), 0.0, "order-zero energy constant matches")
        if params.frac_gamma == Fraction(1, 2):
            kk = params.floor_gamma
            for j in range(params.n_even_data):
                ok = gc.dtn_constant_even(params, j).as_fraction(Fraction(1, 2)) == gc.halfint_dtn_even(kk, j)
                rep.record(ok, 0.0 if ok else 1.0, f"half-integer even constant j={j}")
            for j in range(params.n_odd_data):
                ok = gc.dtn_constant_odd(params, j).as_fraction(Fraction(1, 2)) == gc.halfint_dtn_odd(kk, j)
                rep.record(ok, 0.0 if ok else 1.0, f"half-integer odd constant j={j}")
    except Exception as exc:  # report, never crash the suite
        rep.fail(f"exception: {exc!r}")
    checks.append(rep)

    rep = VerificationReport("sum_identities", str(params), n)
    try:
        for j in range(5):
            for ell in range(5):
                if gc.brute_force_F(j, ell, params) != gc.closed_form_F(j, ell, params):
                    rep.fail(f"F({j},{ell}) mismatch")
        for nn in range(5):
            for d in range(5):
                g = params.gamma + Fraction(1, 7)
                if gc.brute_force_H(nn, d, g) != gc.closed_form_H(nn, d, g):
                    rep.fail(f"H({nn},{d}) mismatch")
        for j in range(6):
            a, b = params.gamma + Fraction(1, 5), Fraction(7, 3)
            if gc.brute_force_K(a, b, j) != gc.closed_form_K(a, b, j):
                rep.fail(f"K(j={j}) mismatch")
        if rep.passed:
            rep.details.append("alternating Gamma sums equal closed forms exactly")
    except Exception as exc:
        rep.fail(f"exception: {exc!r}")
    checks.append(rep)

    checks.append(jets.verify_scattering_relations(params))
    checks.append(jets.verify_operators_via_laplacian(params))
    checks.append(jets.verify_scattering_annihilation(params))

    samples = polys.default_samples(n, params.frac_gamma, seed=seed, extra=2)
    checks.append(polys.verify_commutator(params.m, 2, samples[:7], str(params), n))
    checks.append(polys.verify_product_factorization(params, samples[:7]))
    checks.append(polys.verify_r2s_commutation(params, 2, Fraction(-3, 2), samples[:5], n=n))
    checks.append(polys.verify_r2s_commutation(params, 1, Fraction(1, 2), samples[:5], n=n))
    checks.append(polys.verify_flat_hyperbolic_correspondence(params, n=n))
    checks.append(polys.verify_conformal_covariance(
        params, samples=polys.default_samples(n, params.frac_gamma, seed=seed, extra=1)[:5], n=n))
    return checks


def _float_gamma_defect_even(params, j, const) -> float:
    import math
    g = float(params.gamma)
    fl = params.floor_gamma
    fr = g - fl
    direct = ((-1.0) ** (1 + fl) * 2.0 ** (1 - 2 * fr) * math.factorial(fl - j)
              * math.gamma(1 - fr) * math.gamma(1 - j + g) * math.gamma(2 * j - g)
              / (math.factorial(j) * math.gamma(fr) * math.gamma(1 + j - fr) * math.gamma(-2 * j + g)))
    mine = const.value(params.frac_gamma)
    return abs(mine - direct) / abs(direct)


def _float_gamma_defect_odd(params, j, const) -> float:
    import math
    g = float(params.gamma)
    fl = params.floor_gamma
    fr = g - fl
    direct = ((-1.0) ** fl * 2.0 ** (2 * fr - 1) * math.factorial(fl - j)
              * math.gamma(fr) * math.gamma(1 + fl - j - fr) * math.gamma(2 * j - fl + fr)
              / (math.factorial(j) * math.gamma(1 - fr) * math.gamma(1 + j + fr)
                 * math.gamma(-2 * j + fl - fr)))
    mine = const.value(params.frac_gamma)
    return abs(mine - direct) / abs(direct)


def _numeric_checks(gamma: Fraction, n: int, grid: int, box: float, seed: int, full: bool,
                    tols: dict):
    params = gc.GammaParams(gamma, n=n)
    checks = []
    checks.append(modes.verify_dtn_constants(params, tol=tols["dtn_bessel_extraction"]))

    rep = VerificationReport("mode_ode_residual", str(params), n)
    worst = 0.0
    for prof in modes.all_profiles(params):
        res = prof.ode_residual()
        worst = max(worst, res)
        rep.record(res <= tols["mode_ode_residual"], res,
                   f"profile ({prof.kind},{prof.j}): residual {res:.2e}")
    checks.append(rep)

    if n != 1:
        for name in GRID_CHECKS:
            checks.append(_skipped(name, params, "runs on 1-D grids only"))
        return checks

    template = modes.GridField(1, (grid,), box, np.zeros(grid))
    widths = [2.0 + 0.4 * i for i in range(params.k)]
    data = [modes.gaussian_field(1, (grid,), box, width=w) for w in widths]
    sol = modes.solve_extension(params, data)
    checks.append(modes.verify_self_consistency(sol, tol=tols["self_consistency"]))
    checks.append(modes.yang_extension_check(params, data[0],
                                             tol_trace=tols["yang_trace"],
                                             tol_cs=tols["yang_cs"]))

    u = en.random_two_branch_field(params, template, seed=seed)
    v = en.random_two_branch_field(params, template, seed=seed + 1)
    checks.append(en.verify_q_symmetry(params, u, v, tol_sym=tols["q_symmetry"]))

    if full or str(gamma) in [str(gc.parse_gamma(s)) for s in ENERGY_GAMMAS]:
        checks.append(en.dirichlet_principle_check(params, data, seed=seed,
                                                   tol=tols["dirichlet_principle"]))
        checks.append(en.energy_trace_check(params, data, seed=seed + 1,
                                            tol=tols["energy_trace"]))
    else:
        checks.append(_skipped("dirichlet_principle", params, "run with --full to include this gamma"))
        checks.append(_skipped("energy_trace", params, "run with --full to include this gamma"))
    return checks


def _skipped(check: str, params, reason: str) -> VerificationReport:
    rep = VerificationReport(check, str(params), params.n, status="skip")
    rep.details.append(reason)
    return rep


def cmd_verify(args) -> int:
    gammas = _parse_gammas(args.gamma)
    tols = _parse_tolerances(args.loosen_tol)
    reports = []
    jobs = []

    def submit(fn, *a):
        jobs.append((fn, a))

    if args.only in (None, "identities"):
        for g in gammas:
            submit(_exact_checks, g, args.n, args.seed)
    if args.only in (None, "numeric"):
        for g in gammas:
            submit(_numeric_checks, g, args.n, args.grid, args.box, args.seed, args.full, tols)
        submit(lambda: [en.sharp_sobolev_check(2, gt=0.5, seed=args.seed,
                                               tol=tols["sharp_sobolev"])])
        submit(lambda: [en.lebedev_milin_check(extremal_eps=4.0,
                                               tol_equality=tols["lebedev_milin"]),
                        en.lebedev_milin_check(perturbation=0.5)])

    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        futures = [pool.submit(fn, *a) for fn, a in jobs]
        for fut in futures:
            reports.extend(fut.result())

    reports.sort(key=lambda r: (r.gamma, r.check))
    payload = reports_to_json(reports).encode()
    if args.out:
        write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload.decode())
    if args.csv:
        write_atomic(args.csv, reports_to_csv(reports).encode())
    for r in reports:
        line = f"[{r.status:4s}] gamma={r.gamma:6s} {r.check} (max_rel_err={r.max_rel_err:.2e})"
        print(line, file=sys.stderr)
    return 1 if any(r.status == "fail" for r in reports) else 0


# ---------------------------------------------------------------------------
# file-driven commands
# ---------------------------------------------------------------------------


def _load_fields(paths: str, box: float):
    fields = []
    for path in paths.split(","):
        path = path.strip()
        if path.endswith(".csv"):
            fields.append(modes.GridField.load_csv(path, box))
        else:
            fields.append(modes.GridField.load(path))
    return fields


def cmd_extend(args) -> int:
    if not (math.isfinite(args.height) and args.height >= 0):
        raise ConfigError(f"--height must be a finite number >= 0, got {args.height!r}")
    params = gc.GammaParams(gc.parse_gamma(args.gamma), n=args.n)
    data = _load_fields(args.infile, args.box)
    sol = modes.solve_extension(params, data)
    out = sol.evaluate(args.height)
    out.save(args.out)
    summary = {
        "command": "extend",
        "gamma": str(params),
        "height": args.height,
        "warnings": sol.warnings,
        "out": args.out,
    }
    write_atomic(args.out + ".summary.json", (json.dumps(summary, sort_keys=True) + "\n").encode())
    return 0


def cmd_dtn(args) -> int:
    params = gc.GammaParams(gc.parse_gamma(args.gamma), n=args.n)
    indices = modes.neumann_indices(params)
    alpha2 = 2 * params.gamma
    if args.alpha2:
        alpha2 = _rational_arg("--alpha2", args.alpha2, indices.__contains__,
                               "a Neumann-family index: " + ", ".join(map(str, sorted(indices))))
    data = _load_fields(args.infile, args.box)
    sol = modes.solve_extension(params, data)
    out = modes.dtn_apply(sol, alpha2)
    out.save(args.out)
    summary = {
        "command": "dtn",
        "gamma": str(params),
        "alpha2": str(alpha2),
        "warnings": sol.warnings,
        "out": args.out,
    }
    write_atomic(args.out + ".summary.json", (json.dumps(summary, sort_keys=True) + "\n").encode())
    return 0


def cmd_fraclap(args) -> int:
    power = float(_rational_arg("--power", args.power, lambda p: float(p) > 0, "positive"))
    fields = _load_fields(args.infile, args.box)
    try:
        out = modes.fractional_laplacian_fft(fields[0], power)
    except OverflowError as exc:
        raise ConfigError(f"--power {args.power} is too large for this grid: {exc}") from None
    out.save(args.out)
    return 0


def cmd_sharpness(args) -> int:
    gt = float(_rational_arg("--gamma-tilde", args.gamma_tilde,
                             lambda v: v == Fraction(1, 2) and args.n == 2,
                             "1/2 with --n 2, the only case the small-frequency repair covers"))
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise ConfigError(f"--eps must be a finite positive number, got {args.eps!r}")
    if args.grid < 1:
        raise ConfigError(f"--grid must be a positive power of two, got {args.grid}")
    report = en.sharp_sobolev_check(
        args.n, gt=gt, bubble=en.Bubble(args.n, gt, epsilon=args.eps),
        shape=(args.grid,) * args.n, box_length=args.box, seed=args.seed,
    )
    payload = reports_to_json([report]).encode()
    if args.out:
        write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload.decode())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractrace",
        description="Verification suite for fractional-Laplacian extension "
                    "problems and sharp weighted trace inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity and numeric suites")
    v.add_argument("--gamma", default=",".join(DEFAULT_GAMMAS),
                   help="comma-separated orders, 'p/q' or decimal")
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--only", choices=["identities", "numeric"], default=None)
    v.add_argument("--grid", type=int, default=128)
    v.add_argument("--box", type=float, default=60.0)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--full", action="store_true",
                   help="run the heavy energy checks for every gamma")
    v.add_argument("--loosen-tol", action="append", metavar="NAME=VALUE",
                   help="loosen a named tolerance (may repeat); defaults are "
                        "the documented values and can only be made larger")
    v.add_argument("--out", default=None, help="JSON report path")
    v.add_argument("--csv", default=None, help="CSV report path")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("extend", help="solve the extension and sample a height")
    e.add_argument("--gamma", required=True)
    e.add_argument("--n", type=int, default=1)
    e.add_argument("--in", dest="infile", required=True,
                   help="comma-separated Dirichlet data files (bin or csv)")
    e.add_argument("--box", type=float, default=60.0, help="box length for csv inputs")
    e.add_argument("--height", type=float, default=1.0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_extend)

    d = sub.add_parser("dtn", help="apply a Neumann-family boundary operator")
    d.add_argument("--gamma", required=True)
    d.add_argument("--n", type=int, default=1)
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--box", type=float, default=60.0)
    d.add_argument("--alpha2", default=None, help="operator index 2*alpha (default 2*gamma)")
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_dtn)

    f = sub.add_parser("fraclap", help="spectral fractional Laplacian of a field")
    f.add_argument("--power", required=True)
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--box", type=float, default=60.0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fraclap)

    s = sub.add_parser("sharpness", help="sharp Sobolev bubble quotient report")
    s.add_argument("--gamma-tilde", default="1/2")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--eps", type=float, default=1.0)
    s.add_argument("--grid", type=int, default=512)
    s.add_argument("--box", type=float, default=200.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sharpness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, gc.GammaDomainError, modes.GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

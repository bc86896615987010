"""Command-line front end: verification sweeps, extension/DtN file runs, and
sharpness reports with a CI-friendly exit-code contract.

exit 0: all checks passed; exit 1: at least one check failed, or verify's
helper process ended without sending its reports; exit 2: bad configuration
or input files.

verify's jobs and their runner live in module suite, which only verify
imports; each command loads only what it runs.
"""

from __future__ import annotations

import argparse
import gc as _gc
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import gammacore as gc
from . import modes
from .report import write_atomic, write_json

# What is loaded so far lives until the process exits.  Frozen, it is never
# traversed again: not by a collection in verify's forked helper, nor by the
# final collections at shutdown (see the gc module's docs).
_gc.freeze()

DEFAULT_GAMMAS = ["1/3", "1/2", "4/5", "4/3", "3/2", "9/4", "5/2", "10/3", "7/2", "9/2"]
# the most points a grid of --grid ** --n may hold: 128^3, whose numeric
# checks peak at about 0.58 GB
MAX_GRID_POINTS = 2 ** 21

# verify's fixed acceptance bounds, one per check that has one; each check
# function's own default bound is the same value
TOL_DEFAULTS = {
    "gamma_constants": 1e-12,
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


class HelperError(RuntimeError):
    """verify's helper process ended without sending its reports."""


def __getattr__(name):
    """cli.ThreadPoolExecutor, the executor verify runs its jobs on in this
    process, which bench/tracer.py replaces by a timed subclass; it loads
    concurrent.futures at first use (PEP 562)."""
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _check_grid(grid: int, n: int, least: int, requirement: str):
    """--grid must be a power of two >= least, and --grid ** --n hold at most
    MAX_GRID_POINTS points."""
    if grid < least or grid & (grid - 1):
        raise ConfigError(f"--grid must be {requirement}, got {grid}")
    # grid >= 2 past n = 21 is always too large; testing n first builds no huge integer
    if n >= MAX_GRID_POINTS.bit_length() or grid ** n > MAX_GRID_POINTS:
        raise ConfigError(f"--grid {grid} at --n {n} holds more than {MAX_GRID_POINTS} points")


def _check_box_and_seed(box: float, seed: int):
    """--box must be finite and positive, --seed non-negative."""
    if not (math.isfinite(box) and box > 0):
        raise ConfigError(f"--box must be a finite positive box length, got {box!r}")
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")


def _parse_gammas(text: str) -> list:
    """The distinct orders of a comma-separated --gamma list, in list order
    (1/2, 0.5 and 2/4 are one order, run once), each validated by GammaParams."""
    return list(dict.fromkeys(gc.GammaParams(gc.parse_gamma(g)).gamma for g in text.split(",")))


def cmd_verify(args) -> int:
    """Every argument is checked before suite, the jobs' module, loads."""
    gammas = _parse_gammas(args.gamma)
    _check_grid(args.grid, args.n, 2, "a power of two >= 2 (a 1-point grid has no mode to perturb)")
    _check_box_and_seed(args.box, args.seed)
    from . import suite

    return suite.verify(args, gammas)


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


def _load_data(args):
    """The Dirichlet data of extend and dtn, each field of dimension --n."""
    data = _load_fields(args.infile, args.box)
    for field in data:
        if field.n != args.n:
            raise ConfigError(f"--n {args.n} does not match a {field.n}-D input field")
    return data


def _save(field, sol, out: str, **summary) -> int:
    """Write the field to out and the run's summary beside it, as
    out.summary.json; exit code 0."""
    field.save(out)
    summary.update(gamma=str(sol.params), warnings=sol.warnings, out=out)
    write_atomic(out + ".summary.json", (json.dumps(summary, sort_keys=True) + "\n").encode())
    return 0


def cmd_extend(args) -> int:
    if not (math.isfinite(args.height) and args.height >= 0):
        raise ConfigError(f"--height must be a finite number >= 0, got {args.height!r}")
    params = gc.GammaParams(gc.parse_gamma(args.gamma), n=args.n)
    data = _load_data(args)
    sol = modes.solve_extension(params, data)
    return _save(sol.evaluate(args.height), sol, args.out, command="extend", height=args.height)


def cmd_dtn(args) -> int:
    params = gc.GammaParams(gc.parse_gamma(args.gamma), n=args.n)
    indices = modes.neumann_indices(params)
    alpha2 = 2 * params.gamma
    if args.alpha2:
        alpha2 = _rational_arg("--alpha2", args.alpha2, indices.__contains__,
                               "a Neumann-family index: " + ", ".join(map(str, sorted(indices))))
    data = _load_data(args)
    sol = modes.solve_extension(params, data)
    return _save(modes.dtn_apply(sol, alpha2), sol, args.out, command="dtn", alpha2=str(alpha2))


def cmd_fraclap(args) -> int:
    power = float(_rational_arg("--power", args.power, lambda p: float(p) > 0, "positive"))
    if "," in args.infile:
        raise ConfigError(f"--in must name one field for fraclap, got {args.infile!r}")
    (field,) = _load_fields(args.infile, args.box)
    try:
        out = modes.fractional_laplacian_fft(field, power)
    except OverflowError as exc:
        raise ConfigError(f"--power {args.power} is too large for this grid: {exc}") from None
    out.save(args.out)
    return 0


def cmd_sharpness(args) -> int:
    from . import energy as en

    gt = float(_rational_arg("--gamma-tilde", args.gamma_tilde,
                             lambda v: v == Fraction(1, 2) and args.n == 2,
                             "1/2 with --n 2, the only case the small-frequency repair covers"))
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise ConfigError(f"--eps must be a finite positive number, got {args.eps!r}")
    _check_grid(args.grid, args.n, 1, "a positive power of two")
    _check_box_and_seed(args.box, args.seed)
    if args.box < 200.0 * math.sqrt(args.eps):
        raise ConfigError(f"--box {args.box!r} is too small for --eps {args.eps!r}: the "
                          f"bubble needs at least 200 sqrt(eps) = {200.0 * math.sqrt(args.eps):g}")
    try:
        with np.errstate(over="raise"):
            report = en.sharp_sobolev_check(
                args.n, gt=gt, bubble=en.Bubble(args.n, gt, epsilon=args.eps),
                shape=(args.grid,) * args.n, box_length=args.box, seed=args.seed,
            )
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"--box {args.box!r} is too large: {exc}") from None
    write_json([report], args.out)
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
    except (ConfigError, gc.GammaDomainError, modes.GridError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HelperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # under python -m this module is __main__: suite's import of the cli
    # module must find it, not load a second copy with its own ConfigError
    sys.modules["fractrace.cli"] = sys.modules[__name__]
    sys.exit(main())

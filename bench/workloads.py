"""Seeded inputs, command plans and output oracles for the fractrace benchmark.

A workload is a list of commands.  One pass over the list is a *unit*: a
single ``verify`` invocation for the verify workloads, and the whole command
sequence for ``field-2d``.  Every input is generated here from the workload
seed; the program only ever sees the generated files and arguments.

The oracles use numpy and ``math.gamma`` only, never fractrace, so that a
defect in the program cannot hide in the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-default", "verify-high", "field-2d")

HIGH_GAMMAS = "11/2,13/2,15/2,31/4"

BOX = 60.0                                # box length of every generated field
FIELD_ORDERS = ("1/2", "4/3", "5/2", "10/3", "9/2")
FIELD_HEIGHTS = (0.1, 1.0, 4.0)
BESSEL_WINDOW = (2.0, 30.0)               # t = |xi| y range of the scalar Bessel kernel

ORACLE_TOL = 1e-10                        # max |out - oracle| / max |oracle|
REPORT_STATUSES = ("pass", "fail", "skip")


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy."""

    label: str                  # stable name within the plan, e.g. "extend-128-5/2-y1"
    args: list                  # fractrace arguments (after the program name)
    kind: str                   # "verify", "report" or "field"
    output: Path                # file whose bytes must repeat for one seed
    oracle: dict = field(default_factory=dict)
    in_window: float = None     # share of modes with |xi| y in the Bessel window


# ---------------------------------------------------------------------------
# Orders and Fourier grids (plain numpy, independent of fractrace)
# ---------------------------------------------------------------------------


def order_split(gamma: str):
    """(gamma, floor, fractional part) of an order written 'p/q'."""
    g = Fraction(gamma)
    fl = math.floor(g)
    return g, fl, g - fl


def n_dirichlet_fields(gamma: str) -> int:
    """Dirichlet data count, k = floor(gamma) + 1 (even plus odd slots)."""
    return order_split(gamma)[1] + 1


def dtn_c0(gamma: str) -> float:
    """Order-zero Dirichlet-to-Neumann constant by the direct Gamma formula:
    (-1)^(1+[g]) 2^(1-2{g}) [g]! Gamma(1+g) Gamma(-g) / (Gamma({g}) Gamma(g))."""
    g, fl, fr = order_split(gamma)
    g, fr = float(g), float(fr)
    return ((-1.0) ** (1 + fl) * 2.0 ** (1 - 2 * fr) * math.factorial(fl)
            * math.gamma(1 + g) * math.gamma(-g) / (math.gamma(fr) * math.gamma(g)))


def xi_abs(n: int, box: float) -> np.ndarray:
    """|xi| on an n x n periodic grid of side box, in numpy FFT order."""
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=box / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return np.sqrt(kx * kx + ky * ky)


def multiplier(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Real part of the inverse FFT of symbol * FFT(values)."""
    return np.real(np.fft.ifft2(symbol * np.fft.fft2(values)))


def window_share(n: int, box: float, height: float) -> float:
    lo, hi = BESSEL_WINDOW
    t = xi_abs(n, box) * height
    return float(np.mean((t >= lo) & (t <= hi)))


# ---------------------------------------------------------------------------
# Seeded field files
# ---------------------------------------------------------------------------


def random_field(rng: np.random.Generator, n: int, box: float = BOX) -> np.ndarray:
    """Sum of four Gaussian bumps, resolved on every grid used here."""
    x = -box / 2 + box * np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    out = np.zeros((n, n))
    for _ in range(4):
        cx, cy = rng.uniform(-box / 4, box / 4, size=2)
        width = rng.uniform(2.0, 4.0)
        out += rng.normal() * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * width ** 2))
    return out


def write_field(path: Path, values: np.ndarray, box: float = BOX):
    """The CLI's binary format: little-endian f64 values plus a JSON sidecar."""
    path.write_bytes(values.astype("<f8").tobytes())
    sidecar = {"n": 2, "shape": list(values.shape), "box_length": box, "dtype": "f64-le"}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_field(path: Path) -> np.ndarray:
    meta = json.loads(Path(str(path) + ".json").read_text())
    return np.fromfile(path, dtype="<f8").reshape(meta["shape"])


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _field_specs():
    """The field-2d command mix, fixed so every seed does the same work.

    128^2: extend at every order and height except the three slowest, 4/3 at
    y = 1 and 10/3 at y = 1 and 4; dtn at every order; fraclap at two orders.
    With 4/3 at y = 1 and 10/3 at y = 4 in the mix, the 11th slowest command
    (cmd_tail_s) fell in the gap between the ~0.8 s and ~1 s commands, and
    which side it landed on changed from run to run.
    256^2: extend at every order with mixed heights, dtn at three orders,
    one fraclap.
    512^2: extend at 1/2, dtn at 4/3, one fraclap.
    sharpness builds its own 512^2 bubble with epsilon 1 (smaller bubbles
    fail the check at this grid size).
    """
    specs = [("extend", 128, g, y) for g in FIELD_ORDERS for y in FIELD_HEIGHTS
             if (g, y) not in (("4/3", 1.0), ("10/3", 1.0), ("10/3", 4.0))]
    specs += [("dtn", 128, g, None) for g in FIELD_ORDERS]
    specs += [("fraclap", 128, "1/2", None), ("fraclap", 128, "10/3", None)]
    specs += [("extend", 256, g, y) for g, y in zip(FIELD_ORDERS, (0.1, 4.0, 4.0, 0.1, 1.0))]
    specs += [("dtn", 256, g, None) for g in ("1/2", "5/2", "9/2")]
    specs.append(("fraclap", 256, "4/3", None))
    specs += [("extend", 512, "1/2", 1.0), ("dtn", 512, "4/3", None),
              ("fraclap", 512, "10/3", None)]
    specs.append(("sharpness", 512, None, 1.0))
    return specs


def field_plan(seed: int, workdir: Path) -> list:
    """Write the seeded field-2d inputs under workdir and return the commands
    in seeded order."""
    rng = np.random.default_rng([seed, 2])
    indir = workdir / "in"
    outdir = workdir / "out"
    indir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    zeros = {}
    commands = []
    for i, (cmd, n, g, y) in enumerate(_field_specs()):
        out = outdir / f"{i:02d}.bin"
        if cmd == "sharpness":
            sub_seed = int(rng.integers(0, 2 ** 31))
            commands.append(Command(
                f"sharpness-{n}-eps{y:g}",
                ["sharpness", "--n", "2", "--gamma-tilde", "1/2", "--grid", str(n),
                 "--eps", repr(y), "--seed", str(sub_seed), "--out", str(out)],
                "report", out, {"path": str(out), "gammas": ["0.5"]}))
            continue
        label = f"{cmd}-{n}-{g}" + (f"-y{y:g}" if y is not None else "")
        k = n_dirichlet_fields(g) if cmd != "fraclap" else 1
        first = indir / f"{i:02d}-0.bin"
        write_field(first, random_field(rng, n))
        files = [first]
        for j in range(1, k):
            if cmd == "dtn":  # only f^(0) nonzero, so the c0 oracle applies
                if n not in zeros:
                    zeros[n] = indir / f"zero-{n}.bin"
                    write_field(zeros[n], np.zeros((n, n)))
                files.append(zeros[n])
            else:
                path = indir / f"{i:02d}-{j}.bin"
                write_field(path, random_field(rng, n))
                files.append(path)
        inputs = ",".join(str(p) for p in files)
        meta = {"path": str(out), "n": n, "input": str(first)}
        if cmd == "extend":
            args = ["extend", "--gamma", g, "--n", "2", "--in", inputs,
                    "--height", repr(y), "--out", str(out)]
            oracle = dict(meta, type="poisson", height=y) if g == "1/2" else dict(meta, type="field")
            commands.append(Command(label, args, "field", out, oracle,
                                    window_share(n, BOX, y)))
        elif cmd == "dtn":
            args = ["dtn", "--gamma", g, "--n", "2", "--in", inputs, "--out", str(out)]
            commands.append(Command(label, args, "field", out,
                                    dict(meta, type="dtn", gamma=g)))
        else:
            args = ["fraclap", "--power", g, "--in", inputs, "--out", str(out)]
            commands.append(Command(label, args, "field", out,
                                    dict(meta, type="fraclap", power=g)))
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


def verify_plan(workload: str, seed: int, workdir: Path, default_gammas) -> list:
    """One verify invocation; default_gammas is the program's own default list."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "report.json"
    args = ["verify", "--seed", str(seed), "--out", str(out)]
    gammas = list(default_gammas)
    if workload == "verify-high":
        args[1:1] = ["--gamma", HIGH_GAMMAS]
        gammas = HIGH_GAMMAS.split(",")
    return [Command(workload, args, "verify", out, {"path": str(out), "gammas": gammas})]


def build_plan(workload: str, seed: int, workdir: Path, default_gammas=()) -> list:
    if workload == "field-2d":
        return field_plan(seed, workdir)
    if workload in WORKLOADS:
        return verify_plan(workload, seed, workdir, default_gammas)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Oracles: each returns (ok, relative error or None, reason)
# ---------------------------------------------------------------------------


def _rel_err(out: np.ndarray, expect: np.ndarray) -> float:
    return float(np.max(np.abs(out - expect)) / (np.max(np.abs(expect)) + 1e-300))


def check_field_file(path: Path, n: int):
    """Sidecar shape, size and finiteness of a field the CLI wrote."""
    side = Path(str(path) + ".json")
    if not path.exists() or not side.exists():
        return False, None, "output or sidecar missing"
    meta = json.loads(side.read_text())
    want = {"n": 2, "shape": [n, n], "box_length": BOX, "dtype": "f64-le"}
    if meta != want:
        return False, None, f"sidecar {meta} != {want}"
    if path.stat().st_size != 8 * n * n:
        return False, None, f"{path.stat().st_size} bytes for a {n}x{n} grid"
    values = np.fromfile(path, dtype="<f8")
    if not np.all(np.isfinite(values)):
        return False, None, "non-finite values"
    return True, None, ""


def field_expectation(oracle: dict):
    """The exact output an oracle predicts, or None when only the format is checked."""
    kind = oracle["type"]
    if kind == "field":
        return None
    n = oracle["n"]
    f = read_field(Path(oracle["input"]))
    xi = xi_abs(n, BOX)
    if kind == "poisson":      # gamma = 1/2 extension is the Poisson semigroup
        return multiplier(f, np.exp(-xi * oracle["height"]))
    if kind == "dtn":          # c0 (-Lap)^gamma f^(0)
        g = float(Fraction(oracle["gamma"]))
        return dtn_c0(oracle["gamma"]) * multiplier(f, xi ** (2 * g))
    if kind == "fraclap":      # |xi|^(2s) multiplier
        return multiplier(f, xi ** (2 * float(Fraction(oracle["power"]))))
    raise ValueError(f"unknown oracle {kind!r}")


def check_field_command(oracle: dict):
    path = Path(oracle["path"])
    ok, _, reason = check_field_file(path, oracle["n"])
    if not ok:
        return ok, None, reason
    expect = field_expectation(oracle)
    if expect is None:
        return True, None, ""
    err = _rel_err(read_field(path), expect)
    if not err <= ORACLE_TOL:
        return False, err, f"{oracle['type']} oracle: rel err {err:.3e} > {ORACLE_TOL:g}"
    return True, err, ""


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def read_reports(path: Path):
    """Parse a report file strictly: NaN and Infinity are errors, as in JSON."""
    reports = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    if not isinstance(reports, list) or not reports:
        raise ValueError("report is not a non-empty list")
    for r in reports:
        if r.get("status") not in REPORT_STATUSES:
            raise ValueError(f"bad status in {r!r}")
        for key in ("check", "gamma", "n", "max_rel_err"):
            if key not in r:
                raise ValueError(f"report entry without {key!r}")
        if not isinstance(r["max_rel_err"], (int, float)):
            raise ValueError(f"max_rel_err {r['max_rel_err']!r} is not a number")
    return reports


def check_reports(path: Path, returncode: int, gammas=None):
    """Report well-formed, exit code equal to the verdict, every requested
    order present.  Returns (ok, reports or None, reason)."""
    try:
        reports = read_reports(path)
    except (OSError, ValueError) as exc:
        return False, None, f"report unreadable: {exc}"
    any_fail = any(r["status"] == "fail" for r in reports)
    if returncode != int(any_fail):
        return False, reports, f"exit {returncode} but {'a' if any_fail else 'no'} check failed"
    if gammas is not None:
        missing = set(gammas) - {r["gamma"] for r in reports}
        if missing:
            return False, reports, f"no report for gamma {sorted(missing)}"
    return True, reports, ""

#!/usr/bin/env python3
"""The fractrace benchmark: runs the CLI in fresh processes and measures it from outside.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload in turn

Load is a closed loop with one client: the next command starts when the
previous one has exited.  A run does one untimed warm-up invocation (it
compiles the .pyc files), times ``import fractrace.cli`` in fresh
interpreters for ``setup_s``, then repeats the workload's unit (see
workloads.py) while another unit still fits in ``--seconds``; at least one
unit always runs.  Every output is checked; a command fails when it exits 2
(or any code its command does not use for a verdict), prints a traceback,
times out, writes output that fails its oracle, or writes bytes that differ
from an earlier run of the same seed and source.

Every reported time is divided by the run's host factor (see probe.py), so
it reads in seconds at nominal host speed; the raw times stay in the record.

``--trace 1`` runs one untraced unit and one unit under bench/tracer.py and
reports the per-layer metrics instead of the end-to-end ones.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Records (environment, every command, every check with its tolerance, the
tail percentile) go to .bench_out/<workload>-s<seed>-t<trace>/record.json.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".bench_out")          # relative to ROOT, where every run works
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0            # a run stops issuing commands after this
THREAD_VARS = ("FRACTRACE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
TRACEBACK = b"Traceback (most recent call last)"

# name -> (unit, better); the failure fractions are reported as their
# complements so that no end-to-end metric is ever zero
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cmd_p50_s": ("s", "lower"),
    "cmd_tail_s": ("s", "lower"),
    "checks_ok_frac": ("ratio", "higher"),
    "cmd_ok_frac": ("ratio", "higher"),
}
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in tracer.SELF_LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in tracer.CALL_LAYERS},
    tracer.MODES_SOLVED: ("count", "lower"),
    "cli.jobs.busy_s": ("s", "lower"),
    "cli.jobs.span_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Outcome:
    """One finished command, with its verdict against the oracle."""

    label: str
    unit: int
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    ok: bool = True
    reason: str = ""
    oracle_err: float = None
    in_window: float = None
    sha256: str = None
    started_s: float = None     # since the run started, to set beside the probe samples


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment with src/ importable.  FRACTRACE_THREADS is
    dropped so the shipped pool size is what gets measured."""
    env = {k: v for k, v in os.environ.items() if k != "FRACTRACE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def launch(argv, log_path: Path, timeout: float):
    """Run argv to completion; returns (wall s, cpu s, peak RSS MB, exit code, timed out).

    The child's own rusage comes from wait4, so cpu and RSS are per child."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, timed_out)


def program(args, spans: Path = None) -> list:
    if spans is None:
        return [sys.executable, "-m", "fractrace.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *args]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def cli_constant(name: str):
    """A literal module constant of src/fractrace/cli.py, read without importing it."""
    tree = ast.parse(Path("src/fractrace/cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src/fractrace").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(latencies):
    """(value, percentile, count beyond): the highest percentile with at least
    ten commands slower than it.  Below eleven commands no percentile has ten
    beyond it, and the slowest command is reported (percentile 100, 0 beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = OUT / f"{workload}-s{seed}-t{int(trace)}"
        self.started = time.perf_counter()
        self.outcomes: list[Outcome] = []
        self.units = []               # (wall s, cpu s) per unit
        self.checks = []              # one record per report entry
        self.problems = []            # failures outside the timed commands
        self.tols = cli_constant("TOL_DEFAULTS")
        self.probe = probe.SpeedProbe()  # host speed over the run, see probe.py

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("log", "spans"):
            (self.dir / sub).mkdir(parents=True)
        self.plan = workloads.build_plan(self.workload, self.seed, self.dir,
                                         cli_constant("DEFAULT_GAMMAS"))
        warm = self.dir / "warmup.json"
        rc = launch(program(["verify", "--gamma", "1/2", "--only", "identities", "--out", str(warm)]),
                    self.dir / "log" / "warmup.txt", self.remaining())[3]
        if rc != 0:
            self.problems.append(f"warm-up exited {rc}")
        self.setup = []
        for i in range(SETUP_SAMPLES):
            wall, _, _, rc, _ = launch([sys.executable, "-c", "import fractrace.cli"],
                                       self.dir / "log" / f"setup-{i}.txt", self.remaining())
            if rc != 0:
                self.problems.append(f"import fractrace.cli exited {rc}")
            self.setup.append(wall)

    def run_unit(self, unit: int, traced: bool):
        wall = cpu = 0.0
        for i, cmd in enumerate(self.plan):
            spans = self.dir / "spans" / f"{unit}-{i:02d}.npz" if traced else None
            log = self.dir / "log" / f"{unit}-{i:02d}.txt"
            started = time.perf_counter() - self.started
            w, c, rss, rc, timed_out = launch(program(cmd.args, spans), log, self.remaining())
            outcome = Outcome(cmd.label, unit, traced, w, c, rss, rc, in_window=cmd.in_window,
                              started_s=started)
            self.judge(cmd, outcome, log, timed_out)
            self.outcomes.append(outcome)
            wall += w
            cpu += c
        self.units.append((wall, cpu))

    def judge(self, cmd, out: Outcome, log: Path, timed_out: bool):
        def fail(reason):
            out.ok, out.reason = False, out.reason or reason

        if timed_out:
            fail("timed out")
        if TRACEBACK in log.read_bytes():
            fail("traceback")
        if cmd.kind == "field":
            if out.returncode != 0:
                fail(f"exit {out.returncode}")
            elif out.ok:
                ok, out.oracle_err, reason = workloads.check_field_command(cmd.oracle)
                if not ok:
                    fail(reason)
        elif out.returncode not in (0, 1):
            fail(f"exit {out.returncode}")
        elif out.ok:
            ok, reports, reason = workloads.check_reports(
                Path(cmd.oracle["path"]), out.returncode, cmd.oracle["gammas"])
            if not ok:
                fail(reason)
            for r in reports or []:
                self.checks.append({
                    "label": cmd.label, "unit": out.unit, "check": r["check"],
                    "gamma": r["gamma"], "status": r["status"],
                    "max_rel_err": r["max_rel_err"], "tol": self.tols.get(r["check"]),
                    "cmd_wall_s": out.wall_s,
                })
        if cmd.output.exists():
            out.sha256 = hashlib.sha256(cmd.output.read_bytes()).hexdigest()

    def measure(self):
        if self.trace:
            self.run_unit(0, traced=False)
            self.run_unit(1, traced=True)
            return
        begin = time.perf_counter()
        while True:
            self.run_unit(len(self.units), traced=False)
            last = self.units[-1][0]
            spent = time.perf_counter() - begin
            if spent + last > self.seconds or last > self.remaining():
                break

    def check_repeats(self):
        """Bytes must repeat across the units of this run and across runs of
        the same workload, seed and source (kept in .bench_out/manifests)."""
        first = {o.label: o.sha256 for o in self.outcomes if o.unit == 0}
        manifest = OUT / "manifests" / f"{self.workload}-s{self.seed}-{source_digest()}.json"
        earlier = json.loads(manifest.read_text()) if manifest.exists() else None
        for o in self.outcomes:
            if o.ok and o.sha256 != first.get(o.label):
                o.ok, o.reason = False, "bytes differ between units of one run"
            elif o.ok and earlier is not None and o.sha256 != earlier.get(o.label):
                o.ok, o.reason = False, "bytes differ from an earlier run of this seed"
        if earlier is None and all(o.ok for o in self.outcomes):
            manifest.parent.mkdir(parents=True, exist_ok=True)
            manifest.write_text(json.dumps(first, sort_keys=True, indent=1) + "\n")

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        """name -> (value, sample count, note)"""
        per_unit = {}
        for o in self.outcomes:
            per_unit.setdefault(o.unit, []).append(o.wall_s)
        tails = [tail(lat) for lat in per_unit.values()]
        pct = statistics.median(t[1] for t in tails)
        # later units repeat the first unit's checks on the same inputs
        first_checks = [c for c in self.checks if c["unit"] == 0]
        failed_checks = sum(c["status"] == "fail" for c in first_checks)
        n_checks = len(first_checks)
        attempted = len(self.outcomes)
        failed_cmds = sum(not o.ok for o in self.outcomes)
        n_unit = len(self.units)
        f = self.probe.factor()       # times are in seconds at nominal host speed
        return {
            "wall_s": (statistics.median(u[0] for u in self.units) / f, n_unit, "per unit"),
            "cpu_s": (statistics.median(u[1] for u in self.units) / f, n_unit,
                      "children, per unit"),
            "setup_s": (statistics.median(self.setup) / f, len(self.setup),
                        "import fractrace.cli"),
            "peak_rss_mb": (max(o.rss_mb for o in self.outcomes), attempted, "largest child"),
            "cmd_p50_s": (statistics.median(statistics.median(v) for v in per_unit.values()) / f,
                          attempted, "median over units"),
            "cmd_tail_s": (statistics.median(t[0] for t in tails) / f, attempted,
                           f"p{pct:.1f}, {tails[0][2]} beyond, median over units"),
            "checks_ok_frac": (1.0 - failed_checks / max(n_checks, 1), n_checks,
                               f"checks_failed_frac = {failed_checks}/{n_checks}"),
            "cmd_ok_frac": (1.0 - failed_cmds / attempted, attempted,
                            f"cmd_failed_frac = {failed_cmds}/{attempted}"),
        }

    def per_layer(self) -> dict:
        traced = [o for o in self.outcomes if o.traced]
        spans = sorted((self.dir / "spans").glob("*.npz"))
        layers = tracer.layer_metrics(spans)
        traced_wall = sum(o.wall_s for o in traced)
        untraced_wall = sum(o.wall_s for o in self.outcomes if not o.traced)
        named = layers.pop("named_self_s")
        busy = layers["cli.jobs.busy_s"]
        self.coverage = {"of_traced_wall": named / traced_wall,
                         "of_jobs_busy": named / busy if busy else None}
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        f = self.probe.factor()       # times are in seconds at nominal host speed
        for k in layers:
            if PER_LAYER.get(k, ("",))[0] == "s":
                layers[k] /= f
        n = len(traced)
        return {k: (layers[k], n, "") for k in PER_LAYER}

    def report(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        attempted = len(self.outcomes)
        failed = sum(not o.ok for o in self.outcomes)
        correct = failed == 0 and not self.problems
        print(f"# {self.workload} seed={self.seed} trace={int(self.trace)} units={len(self.units)} "
              f"commands={attempted} failed={failed} correct={correct} "
              f"host_factor={self.probe.factor():.3f} (times below are raw / host_factor)")
        for name, (value, n, note) in metrics.items():
            unit = (PER_LAYER if self.trace else END_TO_END)[name][0]
            print(f"  {name:34s} {value:>14.6g} {unit:6s} n={n:<4d} {note}")
        for o in self.outcomes:
            if not o.ok:
                print(f"  FAILED {o.label} (unit {o.unit}): {o.reason}")
        for problem in self.problems:
            print(f"  PROBLEM {problem}")
        record = {
            "workload": self.workload,
            "environment": environment(self.seed),
            "seconds": self.seconds,
            "trace": self.trace,
            "metrics": {k: {"value": v, "samples": n, "note": note}
                        for k, (v, n, note) in metrics.items()},
            "host_probe": self.probe.summary(),
            "probe_samples": [[t - self.started, d]
                              for t, d in zip(self.probe.at, self.probe.samples)],
            "setup_samples_s": self.setup,
            "units": [{"wall_s": w, "cpu_s": c} for w, c in self.units],
            "commands": [asdict(o) for o in self.outcomes],
            "checks": self.checks,
            "problems": self.problems,
        }
        if self.trace:
            record["named_self_coverage"] = self.coverage
            print(f"  named self time / traced wall = {self.coverage['of_traced_wall']:.3f}")
        (self.dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
        table = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": table[k][0]} for k, (v, _, _) in metrics.items()},
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds, trace)
    with run.probe:
        run.prepare()
        run.measure()
    run.check_repeats()
    return run.report()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    os.chdir(ROOT)
    if not Path("src/fractrace/cli.py").is_file():
        print(f"error: no fractrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

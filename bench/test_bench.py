"""Tests of the benchmark itself: seeded inputs, oracles, metric names, spans.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import probe
import run
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

# The metric names the benchmark was specified with.  checks_failed_frac and
# cmd_failed_frac are emitted as their complements (checks_ok_frac,
# cmd_ok_frac), because an end-to-end metric may never be zero.
SPEC_END_TO_END = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "cmd_p50_s", "cmd_tail_s",
                   "checks_ok_frac", "cmd_ok_frac"}
SPEC_PER_LAYER = {
    "energy.q_form.self_s", "energy.q_form.calls", "energy.interior_energy.self_s",
    "energy.boundary_correction.self_s", "energy.extension_field_view.self_s",
    "gammacore.self_s", "jets.self_s", "jets.calls", "polys.self_s", "polys.calls",
    "besselk.calls", "besselk.self_s", "modes.solve_extension.self_s",
    "modes.solve_extension.modes", "modes.evaluate.self_s", "modes.dtn_apply.self_s",
    "modes.ode_residual.self_s", "modes.io.self_s", "modes.fraclap.self_s",
    "energy.sharp.self_s", "cli.jobs.busy_s", "cli.jobs.span_s", "trace.overhead_frac",
}


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _input_bytes(workdir: Path) -> dict:
    return {p.relative_to(workdir).as_posix(): p.read_bytes()
            for p in sorted((workdir / "in").iterdir())}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def test_same_seed_gives_identical_inputs(tmp_path):
    a = wl.field_plan(7, tmp_path / "a")
    b = wl.field_plan(7, tmp_path / "b")
    assert _input_bytes(tmp_path / "a") == _input_bytes(tmp_path / "b")
    strip = lambda plan, d: [[x.replace(str(d), "") for x in c.args] for c in plan]
    assert strip(a, tmp_path / "a") == strip(b, tmp_path / "b")


def test_different_seed_gives_different_inputs(tmp_path):
    a = wl.field_plan(7, tmp_path / "a")
    b = wl.field_plan(8, tmp_path / "b")
    files_a, files_b = _input_bytes(tmp_path / "a"), _input_bytes(tmp_path / "b")
    assert files_a.keys() == files_b.keys()
    assert any(files_a[k] != files_b[k] for k in files_a)
    assert [c.label for c in a] != [c.label for c in b]          # seeded order
    assert sorted(c.label for c in a) == sorted(c.label for c in b)  # same work


def test_verify_plan_passes_the_seed(tmp_path):
    (cmd,) = wl.build_plan("verify-high", 42, tmp_path, ["1/2"])
    assert cmd.args[cmd.args.index("--seed") + 1] == "42"
    assert cmd.oracle["gammas"] == wl.HIGH_GAMMAS.split(",")


# ---------------------------------------------------------------------------
# Oracles fail on corrupted outputs
# ---------------------------------------------------------------------------


def _oracle_case(tmp_path, kind, **extra):
    n = 128
    f = wl.random_field(np.random.default_rng(0), n)
    src = tmp_path / "in.bin"
    wl.write_field(src, f)
    oracle = dict({"type": kind, "n": n, "input": str(src), "path": str(tmp_path / "out.bin")},
                  **extra)
    return oracle, wl.field_expectation(oracle)


@pytest.mark.parametrize("kind, extra, corrupt", [
    ("dtn", {"gamma": "5/2"}, lambda e: -e),                    # flipped sign of c0
    ("dtn", {"gamma": "10/3"}, lambda e: e * (1 + 1e-6)),
    ("poisson", {"height": 1.0}, lambda e: np.roll(e, 1, axis=0)),
    ("fraclap", {"power": "4/3"}, lambda e: e + 1e-6 * np.abs(e).max()),
])
def test_oracle_rejects_corrupted_output(tmp_path, kind, extra, corrupt):
    oracle, expect = _oracle_case(tmp_path, kind, **extra)
    wl.write_field(Path(oracle["path"]), expect)
    assert wl.check_field_command(oracle)[0]
    wl.write_field(Path(oracle["path"]), corrupt(expect))
    ok, err, reason = wl.check_field_command(oracle)
    assert not ok and "oracle" in reason


def test_field_format_checks(tmp_path):
    oracle, expect = _oracle_case(tmp_path, "field")
    out = Path(oracle["path"])
    wl.write_field(out, expect if expect is not None else np.ones((128, 128)))
    assert wl.check_field_command(oracle)[0]
    bad = np.ones((128, 128))
    bad[3, 4] = np.nan
    wl.write_field(out, bad)
    assert not wl.check_field_command(oracle)[0]
    wl.write_field(out, np.ones((64, 64)))
    assert not wl.check_field_command(oracle)[0]
    wl.write_field(out, np.ones((128, 128)))
    out.write_bytes(out.read_bytes()[:-8])
    assert not wl.check_field_command(oracle)[0]


def _report(tmp_path, entries):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(entries))
    return path


def test_report_checks(tmp_path):
    entry = {"schema": 1, "check": "x", "gamma": "1/2", "n": 1, "details": []}
    good = [dict(entry, status="pass", max_rel_err=1e-12)]
    assert wl.check_reports(_report(tmp_path, good), 0, ["1/2"])[0]
    assert not wl.check_reports(_report(tmp_path, good), 1, ["1/2"])[0]      # verdict mismatch
    assert not wl.check_reports(_report(tmp_path, good), 0, ["1/2", "3/2"])[0]
    failing = [dict(entry, status="fail", max_rel_err=1.0)]
    assert wl.check_reports(_report(tmp_path, failing), 1)[0]
    assert not wl.check_reports(_report(tmp_path, failing), 0)[0]
    path = tmp_path / "nan.json"
    path.write_text('[{"check": "x", "gamma": "1/2", "n": 1, "status": "fail", "max_rel_err": NaN}]')
    assert not wl.check_reports(path, 1)[0]


def test_oracles_match_the_program(tmp_path, at_root):
    """At this commit the CLI's outputs satisfy every oracle (128^2 inputs)."""
    f = wl.random_field(np.random.default_rng(3), 128)
    src, zero = tmp_path / "f.bin", tmp_path / "z.bin"
    wl.write_field(src, f)
    wl.write_field(zero, np.zeros((128, 128)))
    cases = [
        (["extend", "--gamma", "1/2", "--n", "2", "--in", str(src), "--height", "1.0"],
         {"type": "poisson", "height": 1.0}),
        (["dtn", "--gamma", "5/2", "--n", "2", "--in", f"{src},{zero},{zero}"],
         {"type": "dtn", "gamma": "5/2"}),
        (["fraclap", "--power", "10/3", "--in", str(src)], {"type": "fraclap", "power": "10/3"}),
    ]
    for i, (args, oracle) in enumerate(cases):
        out = tmp_path / f"out{i}.bin"
        rc = run.launch(run.program(args + ["--out", str(out)]), tmp_path / "log.txt", 60)[3]
        assert rc == 0, (tmp_path / "log.txt").read_text()
        ok, err, reason = wl.check_field_command(
            dict(oracle, n=128, input=str(src), path=str(out)))
        assert ok and err < 1e-13, reason


# ---------------------------------------------------------------------------
# Metric names and statistics
# ---------------------------------------------------------------------------


def test_metric_names_match_spec_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.END_TO_END) == SPEC_END_TO_END
    assert set(run.PER_LAYER) == SPEC_PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        table = run.END_TO_END if m["name"] in run.END_TO_END else run.PER_LAYER
        assert (m["unit"], m["better"]) == table[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_end_to_end_result_shape(tmp_path, at_root):
    r = run.Run("field-2d", 0, 1.0, False)
    r.dir = tmp_path
    r.setup = [0.5, 0.4, 0.6]
    r.units = [(20.0, 22.0)]
    r.outcomes = [run.Outcome(f"c{i}", 0, False, 0.1 * (i + 1), 0.1, 50.0, 0) for i in range(30)]
    r.checks = [{"unit": 0, "status": "pass"}, {"unit": 0, "status": "fail"}]
    result = r.report()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["checks_ok_frac"]["value"] == 0.5
    assert result["metrics"]["cmd_tail_s"]["value"] == pytest.approx(2.0)   # 11th slowest of 30


def test_times_are_divided_by_the_host_factor(tmp_path, at_root):
    r = run.Run("verify-high", 0, 1.0, False)
    r.dir = tmp_path
    r.setup = [0.5]
    r.units = [(10.0, 9.0)]
    r.outcomes = [run.Outcome("v", 0, False, 10.0, 9.0, 90.0, 0)]
    r.probe.samples = [2 * probe.NOMINAL_S] * 3          # the host ran at half speed
    metrics = {k: v["value"] for k, v in r.report()["metrics"].items()}
    assert metrics["wall_s"] == pytest.approx(5.0) and metrics["cpu_s"] == pytest.approx(4.5)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["peak_rss_mb"] == 90.0


def test_probe_samples_while_running():
    with probe.SpeedProbe() as p:
        time.sleep(3 * probe.INTERVAL_S)
    assert p.samples and all(s > 0 for s in p.samples)
    p.samples = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]  # middle half: 2, 3, 4, 5
    assert p.factor() == pytest.approx(3.5 / probe.NOMINAL_S)


def test_output_bytes_must_repeat(tmp_path, at_root, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)

    def finished(hashes):
        r = run.Run("verify-high", 5, 1.0, False)
        r.outcomes = [run.Outcome("v", unit, False, 1.0, 1.0, 1.0, 0, sha256=h)
                      for unit, h in enumerate(hashes)]
        r.check_repeats()
        return [(o.ok, o.reason) for o in r.outcomes]

    assert finished(["a", "b"])[1] == (False, "bytes differ between units of one run")
    assert finished(["a", "a"]) == [(True, "")] * 2          # records the manifest
    assert finished(["c"]) == [(False, "bytes differ from an earlier run of this seed")]


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (value, beyond) == (30.0, 10) and pct == pytest.approx(75.0)


def test_self_times_subtract_children():
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 4.0, 1.0, 2.0])
    assert tracer.self_times(parent, duration).tolist() == [4.0, 3.0, 1.0, 2.0]


def test_traced_command_emits_every_layer_metric(tmp_path, at_root):
    spans = tmp_path / "spans.npz"
    args = ["verify", "--gamma", "1/2", "--only", "identities", "--out", str(tmp_path / "r.json")]
    rc = run.launch(run.program(args, spans), tmp_path / "log.txt", 120)[3]
    assert rc == 0, (tmp_path / "log.txt").read_text()
    metrics = tracer.layer_metrics([spans])
    assert set(metrics) == (SPEC_PER_LAYER - {"trace.overhead_frac"}) | {"named_self_s"}
    assert metrics["gammacore.self_s"] > 0 and metrics["jets.calls"] > 0
    assert metrics["polys.calls"] > 0 and metrics["cli.jobs.busy_s"] > 0
    with np.load(spans) as data:
        assert {"name", "start", "end", "parent", "tid"} <= set(data.files)
        assert np.all(data["end"] >= data["start"])


def test_exits_nonzero_without_the_program(tmp_path):
    """Given only BENCHMARK.json and bench/, the benchmark refuses to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-high",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Command-line contract: exit codes, determinism, file formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fractrace
from fractrace.cli import main
from fractrace.modes import GridField, gaussian_field


def run_cli(args):
    return main(args)


def test_verify_identities_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--gamma", "1/2,4/3", "--only", "identities",
                    "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["schema"] == 1 for r in reports)
    assert all(r["status"] == "pass" for r in reports)
    assert {r["gamma"] for r in reports} == {"1/2", "4/3"}


def test_verify_rejects_integer_gamma():
    assert run_cli(["verify", "--gamma", "2"]) == 2


def test_verify_rejects_bad_threads(monkeypatch, tmp_path):
    monkeypatch.setenv("FRACTRACE_THREADS", "zebra")
    assert run_cli(["verify", "--gamma", "1/2", "--only", "identities",
                    "--out", str(tmp_path / "r.json")]) == 2


def test_verify_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACTRACE_THREADS", "2")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "--gamma", "1/2,7/3", "--only", "identities",
             "--seed", "3", "--out", str(a), "--csv", str(tmp_path / "a.csv")])
    run_cli(["verify", "--gamma", "1/2,7/3", "--only", "identities",
             "--seed", "3", "--out", str(b), "--csv", str(tmp_path / "b.csv")])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_mirrors_json(tmp_path):
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    run_cli(["verify", "--gamma", "1/2", "--only", "identities",
             "--out", str(out), "--csv", str(csv)])
    reports = json.loads(out.read_text())
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "schema,check,gamma,n,status,max_rel_err"
    assert len(lines) == len(reports) + 1


def test_dtn_fraclap_agree(tmp_path):
    f = gaussian_field(1, (128,), 60.0, width=1.5)
    fp = str(tmp_path / "f.bin")
    f.save(fp)
    assert run_cli(["dtn", "--gamma", "1/2", "--in", fp,
                    "--out", str(tmp_path / "dtn.bin")]) == 0
    assert run_cli(["fraclap", "--power", "1/2", "--in", fp,
                    "--out", str(tmp_path / "frac.bin")]) == 0
    a = GridField.load(str(tmp_path / "dtn.bin"))
    b = GridField.load(str(tmp_path / "frac.bin"))
    assert np.abs(a.values - b.values).max() <= 1e-6 * np.abs(b.values).max()
    summary = json.loads((tmp_path / "dtn.bin.summary.json").read_text())
    assert summary["gamma"] == "1/2"


def test_extend_writes_field_and_summary(tmp_path):
    f = gaussian_field(1, (64,), 40.0, width=2.0)
    fp = str(tmp_path / "f.bin")
    f.save(fp)
    out = str(tmp_path / "u.bin")
    assert run_cli(["extend", "--gamma", "3/2", "--in", f"{fp},{fp}",
                    "--height", "1.0", "--out", out]) == 0
    u = GridField.load(out)
    assert u.same_grid(f)
    assert np.abs(u.values).max() > 0


def test_missing_input_exit_two(tmp_path):
    missing = str(tmp_path / "nope.bin")
    assert run_cli(["dtn", "--gamma", "1/2", "--in", missing,
                    "--out", str(tmp_path / "x.bin")]) == 2


def test_empty_input_exit_two(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert run_cli(["dtn", "--gamma", "1/2", "--in", str(empty),
                    "--out", str(tmp_path / "x.bin")]) == 2


def test_sharpness_command(tmp_path):
    out = tmp_path / "sharp.json"
    code = run_cli(["sharpness", "--gamma-tilde", "1/2", "--n", "2",
                    "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())[0]
    assert rep["check"] == "sharp_sobolev" and rep["status"] == "pass"


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "fractrace.cli", "verify", "--gamma", "2"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_loosen_tol_flag(tmp_path):
    # unknown name and tightening are rejected; loosening is accepted
    assert run_cli(["verify", "--gamma", "1/2", "--only", "numeric",
                    "--loosen-tol", "nope=1", "--out", str(tmp_path / "r.json")]) == 2
    assert run_cli(["verify", "--gamma", "1/2", "--only", "numeric",
                    "--loosen-tol", "q_symmetry=1e-12",
                    "--out", str(tmp_path / "r.json")]) == 2
    code = run_cli(["verify", "--gamma", "1/2", "--only", "numeric",
                    "--loosen-tol", "q_symmetry=1e-6",
                    "--out", str(tmp_path / "r.json")])
    assert code == 0


@pytest.fixture(scope="module")
def tiny_field(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "f.bin")
    gaussian_field(1, (16,), 40.0, width=2.0).save(path)
    return path


FLAG = {"dtn": "--alpha2", "fraclap": "--power", "sharpness": "--gamma-tilde",
        "sharpness-eps": "--eps", "sharpness-grid": "--grid", "extend-height": "--height"}


def _malformed_argv(command, value, n, field, out):
    if command == "dtn":
        return ["dtn", "--gamma", "3/2", "--in", f"{field},{field}", f"--alpha2={value}",
                "--out", out]
    if command == "fraclap":
        return ["fraclap", f"--power={value}", "--in", field, "--out", out]
    if command == "extend-height":
        return ["extend", "--gamma", "4/3", "--in", f"{field},{field}", f"--height={value}",
                "--out", out]
    if command == "sharpness-eps":
        return ["sharpness", f"--eps={value}", "--n", str(n), "--grid", "8", "--out", out]
    if command == "sharpness-grid":
        return ["sharpness", f"--grid={value}", "--n", str(n), "--out", out]
    return ["sharpness", f"--gamma-tilde={value}", "--n", str(n), "--grid", "8", "--out", out]


@pytest.mark.parametrize("command, value, n", [
    ("dtn", "7", 2), ("dtn", "abc", 2), ("fraclap", "-1", 2), ("fraclap", "x", 2),
    ("sharpness", "1", 2), ("sharpness-eps", "0", 2), ("sharpness-eps", "-1", 2),
    ("sharpness-grid", "0", 2), ("extend-height", "-1", 2), ("extend-height", "nan", 2),
    ("extend-height", "inf", 2), ("fraclap", "2000", 2),
])
def test_bad_rational_argument_exit_two(command, value, n, tiny_field, tmp_path, capsys):
    argv = _malformed_argv(command, value, n, tiny_field, str(tmp_path / "o.bin"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert FLAG[command] in err


@given(command=st.sampled_from(["dtn", "fraclap", "sharpness", "sharpness-eps",
                                "extend-height"]),
       value=st.one_of(
           st.sampled_from(["0", "-1", "1/0", "nan", "inf", "1e400", "1e-400", "", " ",
                            "1/2", "1", "2", "3", "7", "abc", "3/2/1"]),
           st.fractions(min_value=-10, max_value=10, max_denominator=8).map(str),
           st.floats().map(repr),
           st.text(max_size=6)),
       n=st.integers(-1, 3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_arguments_never_traceback(command, value, n, tiny_field, tmp_path):
    """Only the contract's exit codes, never a traceback, for any argument value."""
    argv = _malformed_argv(command, value, n, tiny_field, str(tmp_path / "o.bin"))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = run_cli(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


def test_verify_n2_skips_grid_checks(tmp_path):
    """The grid-based numeric checks build 1-D grids, so at n = 2 they say so
    and skip instead of reporting a pass they did not earn."""
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--gamma", "3/2", "--n", "2", "--only", "numeric",
                    "--out", str(out)]) == 0
    reports = {r["check"]: r for r in json.loads(out.read_text()) if r["gamma"] == "3/2"}
    for check in ("extension_self_consistency", "yang_extension", "q_symmetry",
                  "dirichlet_principle", "energy_trace"):
        assert reports[check]["status"] == "skip"
        assert reports[check]["details"] == ["runs on 1-D grids only"]
    for check in ("dtn_bessel_extraction", "mode_ode_residual"):
        assert reports[check]["status"] == "pass" and reports[check]["n"] == 2


# Run in a fresh interpreter: reports after the import and after each command
# whether scipy.special has been loaded.
_COLD_START = """
import json, sys
from fractrace import cli
loaded = ["scipy.special" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) in (0, 1), argv
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


def _scipy_loaded_after(argvs):
    src = os.path.dirname(os.path.dirname(fractrace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def field_2d(tmp_path_factory):
    """16^2 field on a box of 20: |xi| reaches 3.6, inside the Bessel window
    (t >= 2) at height 1 and below it at height 0.1."""
    path = str(tmp_path_factory.mktemp("cold") / "f2.bin")
    gaussian_field(2, (16, 16), 20.0, width=2.0).save(path)
    return path


def test_field_commands_do_not_import_scipy(field_2d, tmp_path):
    out = str(tmp_path / "o.bin")
    loaded = _scipy_loaded_after([
        ["fraclap", "--power", "3/4", "--in", field_2d, "--out", out],
        ["dtn", "--gamma", "1/2", "--n", "2", "--in", field_2d, "--out", out],
        ["sharpness", "--n", "2", "--grid", "16", "--out", str(tmp_path / "s.json")],
        ["extend", "--gamma", "1/2", "--n", "2", "--in", field_2d, "--height", "0.1",
         "--out", out],
    ])
    assert loaded == [False] * 5


@pytest.mark.parametrize("argv", [
    ["extend", "--gamma", "1/2", "--n", "2", "--in", "FIELD", "--height", "1", "--out", "OUT"],
    ["verify", "--gamma", "1/2", "--only", "numeric", "--out", "OUT"],
])
def test_scipy_is_imported_on_first_use(argv, field_2d, tmp_path):
    argv = [{"FIELD": field_2d, "OUT": str(tmp_path / "o")}.get(a, a) for a in argv]
    assert _scipy_loaded_after([argv]) == [False, True]

"""Command-line contract: exit codes, determinism, file formats."""

import ast
import contextlib
import inspect
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fractrace
from fractrace import besselk, cli, modes, suite
from fractrace import gammacore as gc
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


def test_verify_runs_each_order_once(tmp_path):
    """1/2, 0.5 and 2/4 are one exact order: the report is the one order's."""
    once, thrice = tmp_path / "once.json", tmp_path / "thrice.json"
    assert run_cli(["verify", "--gamma", "1/2", "--only", "identities", "--out", str(once)]) == 0
    assert run_cli(["verify", "--gamma", "1/2,0.5,2/4", "--only", "identities", "--out", str(thrice)]) == 0
    assert thrice.read_bytes() == once.read_bytes()


@pytest.mark.parametrize("name", ["TOL_DEFAULTS", "DEFAULT_GAMMAS"])
def test_benchmark_constants_stay_literals(name):
    """bench/run.py reads these with ast.literal_eval, without importing cli."""
    from fractrace import cli

    tree = ast.parse(inspect.getsource(cli))
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and any(getattr(t, "id", None) == name for t in n.targets)]
    assert ast.literal_eval(node.value) == getattr(cli, name)


def test_test_extra_brings_every_reference():
    """`pip install -e .[test]` installs each module a test skips without, so
    no reference test is skipped silently."""
    import re
    import tomllib
    from pathlib import Path

    root = Path(__file__).parent.parent
    extra = tomllib.loads((root / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    listed = {re.match(r"[\w-]+", req).group() for req in extra}
    skipped = {name for path in (root / "tests").glob("*.py")
               for name in re.findall(r'importorskip\("(\w+)"\)', path.read_text())}
    assert skipped and skipped <= listed


def test_verify_rejects_integer_gamma(capsys):
    """Integers, and orders whose fractional part is below float resolution."""
    for gamma in ("2", "1e-400", "2.00000000000000000001", "6.0000000000000001",
                  "7.9999999999999999", "1e-20", "3e-17"):
        _one_line_error(["verify", "--gamma", gamma], capsys, "gamma")


def test_verify_deterministic_bytes(tmp_path):
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


def test_fraclap_takes_one_field(tiny_field, tmp_path, capsys):
    """Naming more fields is an error, never a run on the first alone."""
    out = tmp_path / "o.bin"
    _one_line_error(["fraclap", "--power", "1/2", "--in", f"{tiny_field},{tiny_field}",
                     "--out", str(out)], capsys, "--in")
    assert not out.exists()


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


def test_module_entrypoint_reports_a_job_error_in_one_line():
    """Under python -m the CLI module is __main__, and the error a numeric job
    raises, in this process or the helper, is the one main catches."""
    proc = subprocess.run(
        [sys.executable, "-m", "fractrace.cli", "verify", "--only", "numeric", "--grid", "8",
         "--box", "1e300"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "--box" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_bounds_are_fixed(tmp_path):
    """verify has no option to loosen a bound: argparse exits 2 and no report
    is written."""
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--gamma", "1/2", "--loosen-tol", "q_symmetry=1e-6",
                 "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_check_defaults_are_verify_bounds():
    """Each check function's own default bound, which direct callers and
    sharpness use, is verify's bound for it; the two bounds verify applies
    itself complete the table."""
    from fractrace import energy as en

    pinned = {
        "dtn_bessel_extraction": (modes.verify_dtn_constants, "tol"),
        "self_consistency": (modes.verify_self_consistency, "tol"),
        "yang_trace": (modes.yang_extension_check, "tol_trace"),
        "yang_cs": (modes.yang_extension_check, "tol_cs"),
        "q_symmetry": (en.verify_q_symmetry, "tol_sym"),
        "dirichlet_principle": (en.dirichlet_principle_check, "tol"),
        "energy_trace": (en.energy_trace_check, "tol"),
        "sharp_sobolev": (en.sharp_sobolev_check, "tol"),
        "lebedev_milin": (en.lebedev_milin_check, "tol_equality"),
    }
    for name, (check, param) in pinned.items():
        assert inspect.signature(check).parameters[param].default == cli.TOL_DEFAULTS[name], name
    assert set(cli.TOL_DEFAULTS) == set(pinned) | {"gamma_constants", "mode_ode_residual"}


def _exact_report(gamma: str, check: str):
    (rep,) = [r for r in suite._exact_checks(gc.parse_gamma(gamma), 1, 0) if r.check == check]
    return rep


@pytest.mark.parametrize("gamma", ["0.99999999", "0.999999999999999", "1.000001", "2.999999",
                                   "5.0000001", "7.9999999", "1e-6", "1e-9", "3e-16"])
def test_gamma_constants_near_integers(gamma):
    """The reference reflects every Gamma argument below zero and takes both
    fractions from the exact order, so it stays accurate next to the poles."""
    rep = _exact_report(gamma, "gamma_constants")
    assert rep.status == "pass", rep.details


def test_gamma_constants_sees_a_float_complement(monkeypatch):
    """ExactConstant.value with 1 - [g] taken in floats is off by 5e-9 at
    0.99999999, and the check sees it."""
    def float_complement(self, frac_gamma):
        g = float(frac_gamma)
        ratio = math.gamma(1.0 - g) / math.gamma(g)
        return (float(self.rational_part) * ratio ** self.gamma_ratio_power
                * 2.0 ** float(self.two_power))

    monkeypatch.setattr(gc.ExactConstant, "value", float_complement)
    rep = _exact_report("0.99999999", "gamma_constants")
    assert rep.status == "fail"
    assert rep.max_rel_err > 1e-9


def test_gamma_constants_sees_a_wrong_constant(monkeypatch):
    value = gc.ExactConstant.value
    monkeypatch.setattr(gc.ExactConstant, "value",
                        lambda self, frac_gamma: value(self, frac_gamma) * (1.0 + 1e-9))
    rep = _exact_report("1/3", "gamma_constants")
    assert rep.status == "fail"
    assert rep.max_rel_err == pytest.approx(1e-9, rel=1e-3)


def test_sum_identities_sees_a_wrong_closed_form(monkeypatch):
    closed_form_F = gc.closed_form_F
    monkeypatch.setattr(gc, "closed_form_F", lambda j, ell, params: (
        closed_form_F(j, ell, params) + (1 if (j, ell) == (2, 3) else 0)))
    rep = _exact_report("4/3", "sum_identities")
    assert rep.status == "fail"
    assert rep.details == ["F(2,3) mismatch"]


def _suite_statuses(gamma: str) -> dict:
    """{check: status} of both suites at one order on verify's default grid,
    a check failing if any of its reports fails."""
    g = gc.parse_gamma(gamma)
    out = {}
    for rep in suite._exact_checks(g, 1, 0) + suite._numeric_checks(g, 1, 128, 60.0, 0, False):
        out[rep.check] = "fail" if "fail" in (rep.status, out.get(rep.check)) else rep.status
    return out


def _failing(statuses: dict) -> set:
    return {check for check, status in statuses.items() if status == "fail"}


@pytest.fixture
def symbol_caches():
    """Symbols memoized under a fault must not outlive it."""
    from fractrace import jets
    caches = (jets._symbol_items, modes.boundary_symbol_float, modes._t_chain)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# Each layer states the family rule on its own.  Each fault evaluates one
# layer's odd-family rule (s = 1) at s = 0, at 10/3, where both families have
# two slots and [g] = 1/3 keeps the two bases apart.
def test_gamma_constants_sees_the_odd_constant_at_s0(monkeypatch):
    """The exact odd DtN constants taken from the even rule fail
    gamma_constants, and dtn_bessel_extraction, which compares the Bessel
    route with them; the jets and polys checks never read them."""
    real = gc.dtn_constant
    monkeypatch.setattr(gc, "dtn_constant", lambda params, family, j: real(params, "even", j))
    assert _failing(_suite_statuses("10/3")) == {"gamma_constants", "dtn_bessel_extraction"}


def test_scattering_relations_sees_the_odd_recursion_at_s0(monkeypatch, symbol_caches):
    """The exact odd recursion weights taken from the even rule fail
    scattering_relations and the checks built on the same exact operators
    (polys reads jets' symbols); the constants and the Bessel route pass."""
    from fractrace import jets
    real = jets._rho
    monkeypatch.setattr(jets, "_rho", lambda params, s, j, ell: real(params, 0, j, ell))
    assert _failing(_suite_statuses("10/3")) == {
        "scattering_relations", "operators_via_laplacian", "conformal_covariance"}


@pytest.mark.parametrize("rule, failing", [
    ("_t_chain", {"dtn_bessel_extraction", "q_symmetry"}),
    ("_rho_f", {"dtn_bessel_extraction", "q_symmetry"}),
])
def test_dtn_bessel_extraction_sees_the_odd_trace_chain_at_s0(rule, failing, monkeypatch,
                                                              symbol_caches):
    """The float odd trace chain c_1 taken from the even rule fails
    dtn_bessel_extraction's values.  The float odd recursion weights at
    s = 0 remix each family's operators by a unit triangle, which leaves the
    diagonal of N1 M1^-1 as it is but not its decoupling: a row reads 3.14
    off the diagonal against 1e-8.  q_symmetry's boundary pairings see both.
    The exact layers pass both."""
    real = getattr(modes, rule)
    if rule == "_t_chain":
        monkeypatch.setattr(modes, rule, lambda fr, s, tau: real(fr, 0, tau))
    else:
        monkeypatch.setattr(modes, rule, lambda fl, fr, s, j, ell: real(fl, fr, 0, j, ell))
    assert _failing(_suite_statuses("10/3")) == failing


def test_mode_ode_residual_fails_for_a_wrong_bessel_norm(monkeypatch):
    """A 1e-3 error in the (even, 0) profile's bessel_norm, on every profile
    the numeric suite builds, fails mode_ode_residual at a non-energy order;
    the checks that read only the branch series pass."""
    real = modes.ModeProfile.__post_init__

    def broken(self):
        real(self)
        if (self.kind, self.j) == ("even", 0):
            self.bessel_norm *= 1.0 + 1e-3

    monkeypatch.setattr(modes.ModeProfile, "__post_init__", broken)
    statuses = _suite_statuses("10/3")
    assert statuses["mode_ode_residual"] == "fail"
    for check in ("dtn_bessel_extraction", "extension_self_consistency", "yang_extension"):
        assert statuses[check] == "pass", check


def _fault_after_the_solve(monkeypatch, fault):
    """Wrap modes.solve_extension so that fault(profile) changes the solve's
    (even, 0) profile once the solve is done: only a check that reads the
    solution's own profiles can see it."""
    real = modes.solve_extension

    def faulted(params, data_fields):
        sol = real(params, data_fields)
        fault(sol.profiles[0])
        return sol

    monkeypatch.setattr(modes, "solve_extension", faulted)


def _numeric_report(gamma: str, check: str):
    g = gc.parse_gamma(gamma)
    (rep,) = [r for r in suite._numeric_checks(g, 1, 128, 60.0, 0, False) if r.check == check]
    return rep


POST_SOLVE_ORDERS = ["1/3", "4/3", "5/2", "10/3", "9/2"]


@pytest.mark.parametrize("gamma", POST_SOLVE_ORDERS)
def test_mode_ode_residual_reads_the_solves_profiles(gamma, monkeypatch):
    """A 1e-3 error in the bessel_norm of the solve's (even, 0) profile, set
    after the solve, fails mode_ode_residual: the suite loops over the
    solution's profiles, and the seam reads 9.99e-4 against 1e-7.  A second
    profile set of the suite's own read at most 4.3e-14 here."""
    def scale(prof):
        prof.bessel_norm *= 1.0 + 1e-3

    _fault_after_the_solve(monkeypatch, scale)
    rep = _numeric_report(gamma, "mode_ode_residual")
    assert rep.status == "fail"
    assert rep.max_rel_err == pytest.approx(1e-3, rel=1e-2)


@pytest.mark.parametrize("gamma", POST_SOLVE_ORDERS)
def test_dtn_bessel_extraction_reads_the_solves_profiles(gamma, monkeypatch):
    """The co-branch series of the solve's (even, 0) profile x (1 + 1e-6),
    set after the solve, fails dtn_bessel_extraction, whose N1 is built from
    the solution's profiles: it reads 1.00e-6 against 1e-8.  A second profile
    set of the check's own read at most 2.1e-14 here."""
    def scale(prof):
        prof.co_series = prof.co_series * (1.0 + 1e-6)

    _fault_after_the_solve(monkeypatch, scale)
    rep = _numeric_report(gamma, "dtn_bessel_extraction")
    assert rep.status == "fail"
    assert rep.max_rel_err == pytest.approx(1e-6, rel=1e-2)


def test_a_numeric_job_builds_one_profile_set_and_one_m1(monkeypatch):
    """One numeric job at 5/2, both energy checks included, builds its k = 3
    profiles once and the Dirichlet matrix M1 once, in the solve; every check
    reads them from the solution (a profile set per check made 9 and 2)."""
    built, dirichlet = [], []
    real_init, real_unit = modes.ModeProfile.__post_init__, modes._unit_matrix

    def counting_init(self):
        built.append((self.kind, self.j))
        real_init(self)

    def counting_unit(params, conds, profiles):
        if conds == modes.dirichlet_condition_list(params):
            dirichlet.append(conds)
        return real_unit(params, conds, profiles)

    monkeypatch.setattr(modes.ModeProfile, "__post_init__", counting_init)
    monkeypatch.setattr(modes, "_unit_matrix", counting_unit)
    reports = suite._numeric_checks(Fraction(5, 2), 1, 128, 60.0, 0, False)
    assert {"dirichlet_principle", "energy_trace"} <= {r.check for r in reports}
    assert all(r.passed for r in reports)
    assert built == [("even", 0), ("even", 1), ("odd", 0)]
    assert len(dirichlet) == 1


def _drawn_order(draw):
    """An order from p/q < 8 with q <= 9, or k +- 10^-e for e in {4, 6, 9, 12}."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 9))
        p = draw(st.integers(1, 8 * q - 1).filter(lambda p: p % q))
        return Fraction(p, q)
    k, e = draw(st.integers(0, 8)), draw(st.sampled_from([4, 6, 9, 12]))
    order = k + draw(st.sampled_from([-1, 1])) * Fraction(1, 10 ** e)
    assume(0 < order < 8)
    return order


@given(st.composite(_drawn_order)())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_exact_suite_passes_at_drawn_orders(gamma):
    """Every exact check passes at drawn orders of every class (fl, [g]),
    near-integer ones included: the family rule holds in each layer."""
    failed = [(r.check, r.details) for r in suite._exact_checks(gamma, 1, 0) if r.status != "pass"]
    assert not failed, (gamma, failed)


@pytest.fixture(scope="module")
def tiny_field(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "f.bin")
    gaussian_field(1, (16,), 40.0, width=2.0).save(path)
    return path


FLAG = {"dtn": "--alpha2", "fraclap": "--power", "sharpness": "--gamma-tilde",
        "sharpness-eps": "--eps", "sharpness-grid": "--grid", "sharpness-box": "--box",
        "sharpness-seed": "--seed", "extend-height": "--height", "verify-box": "--box",
        "verify-grid": "--grid"}


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
    if command == "sharpness-seed":
        return ["sharpness", f"--seed={value}", "--n", str(n), "--grid", "8", "--out", out]
    if command == "sharpness-box":
        return ["sharpness", f"--box={value}", "--n", str(n), "--grid", "8", "--out", out]
    if command == "verify-grid":
        return ["verify", "--gamma", "1/2", "--only", "identities", f"--grid={value}", "--out", out]
    if command == "verify-box":
        return ["verify", "--gamma", "1/2", "--only", "numeric", "--grid", "8",
                f"--box={value}", "--out", out]
    return ["sharpness", f"--gamma-tilde={value}", "--n", str(n), "--grid", "8", "--out", out]


def _one_line_error(argv, capsys, flag):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


@pytest.mark.parametrize("command, value, n", [
    ("dtn", "7", 2), ("dtn", "abc", 2), ("fraclap", "-1", 2), ("fraclap", "x", 2),
    ("sharpness", "1", 2), ("sharpness-eps", "0", 2), ("sharpness-eps", "-1", 2),
    ("sharpness-grid", "0", 2), ("extend-height", "-1", 2), ("extend-height", "nan", 2),
    ("extend-height", "inf", 2), ("fraclap", "2000", 2), ("sharpness-box", "0", 2),
    ("sharpness-box", "-5", 2), ("sharpness-box", "nan", 2), ("sharpness-box", "inf", 2),
    ("sharpness-box", "1e300", 2), ("sharpness-box", "10", 2), ("sharpness-seed", "-1", 2),
    ("verify-box", "1e-300", 1), ("verify-box", "1e300", 1), ("verify-box", "5e-324", 1),
    ("verify-grid", "3", 1), ("verify-grid", "12", 1), ("sharpness-grid", "3", 2),
    ("sharpness-grid", "12", 2),
])
def test_bad_rational_argument_exit_two(command, value, n, tiny_field, tmp_path, capsys):
    argv = _malformed_argv(command, value, n, tiny_field, str(tmp_path / "o.bin"))
    _one_line_error(argv, capsys, FLAG[command])


@given(command=st.sampled_from(["dtn", "fraclap", "sharpness", "sharpness-eps",
                                "sharpness-box", "extend-height", "verify-box"]),
       value=st.one_of(
           st.sampled_from(["0", "-1", "1/0", "nan", "inf", "1e400", "1e-400", "", " ",
                            "1/2", "1", "2", "3", "7", "abc", "3/2/1", "1e300", "1e-300",
                            "5e-324"]),
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


GRID_CHECKS = ("extension_self_consistency", "yang_extension", "q_symmetry",
               "dirichlet_principle", "energy_trace")


def _verify_reports(tmp_path, *extra) -> dict:
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--gamma", "3/2", "--only", "numeric", *extra, "--out", str(out)])
    return code, {r["check"]: r for r in json.loads(out.read_text()) if r["gamma"] == "3/2"}


@pytest.mark.parametrize("n, grid", [(2, 32), (3, 16)], ids=["n2", "n3"])
def test_verify_runs_grid_checks(n, grid, tmp_path):
    """At n = 2 and 3 the grid-based numeric checks build n-D grids and pass."""
    code, reports = _verify_reports(tmp_path, "--n", str(n), "--grid", str(grid))
    assert code == 0
    for check in GRID_CHECKS + ("dtn_bessel_extraction", "mode_ode_residual"):
        assert reports[check]["status"] == "pass" and reports[check]["n"] == n, check


@pytest.mark.parametrize("argv", [["verify", "--n", "2", "--grid", "65536"], ["verify", "--n", "4"],
                                  ["sharpness", "--grid", "65536"]])
def test_grid_too_large_to_hold_exits_two(argv, tmp_path, capsys):
    """More than 2^21 grid points exit 2 before any job runs, never with a
    memory error."""
    out = tmp_path / "r.json"
    _one_line_error(argv + ["--out", str(out)], capsys, "--grid")
    assert not out.exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Run in a fresh interpreter: reports after the import and after each command
# which of the watched modules have been loaded.
_COLD_START = """
import json, sys
from fractrace import cli
watched = json.loads(sys.argv[2])
loaded = [[m for m in watched if m in sys.modules]]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) in (0, 1), argv
    loaded.append([m for m in watched if m in sys.modules])
print(json.dumps(loaded))
"""


def _child_env(**blas):
    """The caller's environment with src/ importable, without any BLAS thread
    setting (importing fractrace here has set one), plus the given ones."""
    src = os.path.dirname(os.path.dirname(fractrace.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **blas}


def _loaded_after(argvs, watched):
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs),
                           json.dumps(watched)],
                          capture_output=True, text=True, env=_child_env(), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def field_2d(tmp_path_factory):
    """16^2 field on a box of 20: |xi| reaches 3.6, inside the Bessel window
    (t >= 2) at heights 1 and 4 and below it at height 0.1."""
    path = str(tmp_path_factory.mktemp("cold") / "f2.bin")
    gaussian_field(2, (16, 16), 20.0, width=2.0).save(path)
    return path


def _field_commands(field, out):
    return [["fraclap", "--power", "3/4", "--in", field, "--out", out],
            ["dtn", "--gamma", "1/2", "--n", "2", "--in", field, "--out", out]] + [
        ["extend", "--gamma", "1/2", "--n", "2", "--in", field, "--height", height,
         "--out", out] for height in ("0.1", "1", "4")]


def test_field_commands_do_not_import_scipy(field_2d, tmp_path):
    """The Bessel kernel needs numpy only: deep extends load no scipy either."""
    argvs = _field_commands(field_2d, str(tmp_path / "o.bin"))
    argvs.append(["sharpness", "--n", "2", "--grid", "16", "--out", str(tmp_path / "s.json")])
    assert _loaded_after(argvs, ["scipy"]) == [[]] * 7


def _threads_after_import(**blas):
    probe = "import os, fractrace.cli; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env(**blas), check=True)
    return int(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_starts_no_blas_worker_thread():
    """Importing the CLI leaves one thread, unless the caller asks for more."""
    assert _threads_after_import() == 1
    if len(os.sched_getaffinity(0)) >= 2:
        assert _threads_after_import(OPENBLAS_NUM_THREADS="2") == 2


def _run_with_blas_threads(argv, threads):
    subprocess.run([sys.executable, "-m", "fractrace.cli", *argv], capture_output=True,
                   env=_child_env(OPENBLAS_NUM_THREADS=str(threads)), check=True)


def test_verify_report_does_not_depend_on_blas_threads(tmp_path):
    for threads in (1, 2):
        _run_with_blas_threads(["verify", "--gamma", "1/2,5/2", "--seed", "1",
                                "--out", str(tmp_path / f"{threads}.json"),
                                "--csv", str(tmp_path / f"{threads}.csv")], threads)
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"1{suffix}").read_bytes() == (tmp_path / f"2{suffix}").read_bytes()


def test_extend_does_not_depend_on_blas_threads(tmp_path):
    """128^2 on a box of 20 at height 1: most of the grid lies in the Bessel
    window, more t values than one besselk block holds."""
    field = gaussian_field(2, (128, 128), 20.0, width=2.0)
    field.save(str(tmp_path / "f.bin"))
    t = np.sqrt(field.xi_abs2()).ravel()
    _, nodes = besselk._nodes(0.5, modes.T_SERIES, float(t.max()))
    assert np.count_nonzero(t >= modes.T_SERIES) > besselk.BLOCK // nodes.size
    for threads in (1, 2):
        _run_with_blas_threads(["extend", "--gamma", "1/2", "--n", "2", "--in",
                                str(tmp_path / "f.bin"), "--height", "1",
                                "--out", str(tmp_path / f"{threads}.bin")], threads)
    assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()


def test_package_has_no_scipy_import():
    """scipy is a test dependency only: no module of the package imports it."""
    package = os.path.dirname(fractrace.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def test_field_commands_do_not_load_check_modules(field_2d, tmp_path):
    """extend, dtn and fraclap load no check module, nor verify's own module
    or concurrent.futures, which only verify's executor needs."""
    checks = ["fractrace.energy", "fractrace.jets", "fractrace.polys", "fractrace.ratmap",
              "fractrace.suite", "concurrent.futures"]
    argvs = _field_commands(field_2d, str(tmp_path / "o.bin"))
    assert _loaded_after(argvs, checks) == [[]] * 6


@pytest.mark.parametrize("argv", [
    ["extend", "--gamma", "1/2", "--n", "2", "--in", "FIELD", "--height", "1", "--out", "OUT"],
    ["verify", "--gamma", "1/2", "--only", "numeric", "--out", "OUT"],
])
def test_scipy_is_imported_on_first_use(argv, field_2d, tmp_path):
    """Neither importing the CLI nor running a command loads scipy: a deep 2-D
    extend runs on the numpy-only Bessel kernel, verify on numpy-only Gauss rules."""
    argv = [{"FIELD": field_2d, "OUT": str(tmp_path / "o")}.get(a, a) for a in argv]
    assert _loaded_after([argv], ["scipy"]) == [[], []]


def test_verify_passes_near_the_cap(tmp_path):
    """The profile ODE residual holds at 1e-7 up to 31/4."""
    assert run_cli(["verify", "--gamma", "11/2,13/2,15/2,31/4", "--only", "numeric",
                    "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("box", ["0", "-5", "nan", "inf"])
def test_verify_rejects_bad_box(box, tmp_path, capsys):
    _one_line_error(["verify", "--gamma", "1/2", "--only", "numeric", f"--box={box}",
                     "--out", str(tmp_path / "r.json")], capsys, "box length")


@pytest.mark.parametrize("extra", [["--n", "2", "--box", "0"],
                                   ["--only", "identities", "--box", "nan"]])
def test_verify_rejects_bad_box_before_any_job(extra, tmp_path, capsys):
    """--box is checked up front, also where no check would build a grid."""
    _one_line_error(["verify", "--gamma", "1/2", *extra, "--out", str(tmp_path / "r.json")],
                    capsys, "--box")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("only", ["numeric", "identities"])
def test_verify_rejects_negative_seed(only, tmp_path, capsys):
    """--seed is checked up front, whichever suite would draw from it."""
    _one_line_error(["verify", "--gamma", "1/2", "--only", only, "--seed", "-5",
                     "--out", str(tmp_path / "r.json")], capsys, "--seed")
    assert not (tmp_path / "r.json").exists()


# Run in a fresh interpreter: one command's exit code, and whether it loaded suite.
_LOADS_SUITE = """
import json, sys
from fractrace import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "fractrace.suite" in sys.modules]))
"""


@pytest.mark.parametrize("bad", [["--box", "0"], ["--seed", "-1"], ["--gamma", "0"]])
def test_verify_rejects_bad_arguments_before_suite_loads(bad, tmp_path):
    """cli.cmd_verify checks --gamma, --grid, --box and --seed itself: a bad
    one exits 2 with one error line, and the jobs' module never loads."""
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-c", _LOADS_SUITE,
                           json.dumps(["verify", *bad, "--out", str(out)])],
                          capture_output=True, text=True, env=_child_env(), check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [2, False]
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def _cpus(monkeypatch, cpus):
    """Make verify see this many CPUs: with two or more it forks a helper."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spy_on_jobs(monkeypatch, log, act=None):
    """Both kinds of per-order job log (pid, thread, name, gamma) to a file,
    which a forked helper appends to as well, then call act(name), if given,
    and return no report."""
    from fractrace import suite

    for name in ("_exact_checks", "_numeric_checks"):
        def spy(gamma, *args, name=name):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {threading.get_ident()} {name} {gamma}\n")
            if act is not None:
                act(name)
            return []

        monkeypatch.setattr(suite, name, spy)


SPY_GAMMAS = ["1/2", "4/3", "5/2"]


def _spied_jobs(log):
    return [(int(pid), int(tid), name, g)
            for pid, tid, name, g in map(str.split, log.read_text().splitlines())]


def test_verify_jobs_run_on_one_thread_in_order(monkeypatch, tmp_path):
    """On one CPU every job runs here on one thread, in list order: numeric,
    then exact from the highest order down."""
    log = tmp_path / "jobs.txt"
    _spy_on_jobs(monkeypatch, log)
    _cpus(monkeypatch, 1)
    assert run_cli(["verify", "--gamma", ",".join(SPY_GAMMAS),
                    "--out", str(tmp_path / "r.json")]) == 0
    rows = _spied_jobs(log)
    assert {(pid, tid) for pid, tid, _, _ in rows} == {(os.getpid(), rows[0][1])}
    assert [(name, g) for _, _, name, g in rows] == (
        [("_numeric_checks", g) for g in SPY_GAMMAS]
        + [("_exact_checks", g) for g in reversed(SPY_GAMMAS)])


def _by_process(rows):
    """{pid: [(name, gamma), ...]} in the order each process ran its jobs."""
    out = {}
    for pid, _, name, g in rows:
        out.setdefault(pid, []).append((name, g))
    return out


def test_verify_runs_every_job_once_in_two_processes(monkeypatch, tmp_path):
    """With two CPUs this process (on one thread) and one helper both take
    jobs, this one starting on the numeric queue and the helper on the exact
    one.  Every job runs exactly once, and each process takes each queue's
    jobs in list order."""
    log = tmp_path / "jobs.txt"
    _spy_on_jobs(monkeypatch, log, act=lambda name: time.sleep(0.05))
    _cpus(monkeypatch, 2)
    assert run_cli(["verify", "--gamma", ",".join(SPY_GAMMAS),
                    "--out", str(tmp_path / "r.json")]) == 0
    _no_child_left()
    rows = _spied_jobs(log)
    jobs = ([("_numeric_checks", g) for g in SPY_GAMMAS]
            + [("_exact_checks", g) for g in reversed(SPY_GAMMAS)])
    assert sorted((name, g) for _, _, name, g in rows) == sorted(jobs)
    assert len({tid for pid, tid, _, _ in rows if pid == os.getpid()}) == 1
    taken = _by_process(rows)
    assert len(taken) == 2 and os.getpid() in taken
    helper = [pid for pid in taken if pid != os.getpid()][0]
    assert taken[os.getpid()][0][0] == "_numeric_checks" and taken[helper][0][0] == "_exact_checks"
    for sequence in taken.values():
        for kind in ("_numeric_checks", "_exact_checks"):
            order = [jobs.index(job) for job in sequence if job[0] == kind]
            assert order == sorted(order)


def test_an_idle_process_takes_over_the_other_queue(monkeypatch, tmp_path):
    """Exact jobs return at once and numeric ones take 0.1 s: the helper,
    done with its own queue, takes numeric jobs too."""
    log = tmp_path / "jobs.txt"
    _spy_on_jobs(monkeypatch, log, act=lambda name: time.sleep(0.1 if "numeric" in name else 0))
    _cpus(monkeypatch, 2)
    gammas = ["1/3", "1/2", "4/5", "4/3", "3/2", "9/4"]
    assert run_cli(["verify", "--gamma", ",".join(gammas), "--out", str(tmp_path / "r.json")]) == 0
    _no_child_left()
    taken = _by_process(_spied_jobs(log))
    helper = [pid for pid in taken if pid != os.getpid()][0]
    assert [name for name, _ in taken[os.getpid()]] == ["_numeric_checks"] * len(taken[os.getpid()])
    assert ("_numeric_checks" in {name for name, _ in taken[helper]}
            and len(taken[os.getpid()]) + len(taken[helper]) == 2 * len(gammas))


@pytest.mark.parametrize("cpus", [1, 2])
def test_every_job_run_here_goes_through_the_executor_hook(cpus, monkeypatch, tmp_path):
    """bench/tracer.py times verify's jobs by assigning a subclass to
    cli.ThreadPoolExecutor; every job this process runs must reach it."""
    here, log, submitted = os.getpid(), tmp_path / "jobs.txt", []
    for name in ("_exact_checks", "_numeric_checks", "_sharp_sobolev_job", "_lebedev_milin_job"):
        def spy(*args, name=name):
            if os.getpid() == here:   # the helper runs its jobs inline
                with open(log, "a") as f:
                    f.write(f"{threading.current_thread().name} {name}\n")
            return []

        monkeypatch.setattr(suite, name, spy)

    class Hook(cli.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers, thread_name_prefix="hook")

        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Hook)
    _cpus(monkeypatch, cpus)
    assert run_cli(["verify", "--gamma", "1/2", "--out", str(tmp_path / "r.json")]) == 0
    _no_child_left()
    rows = [line.split() for line in log.read_text().splitlines()]
    assert rows and len(rows) == len(submitted)
    assert all(thread.startswith("hook") for thread, _ in rows)
    if cpus == 1:
        assert sorted(name for _, name in rows) == [
            "_exact_checks", "_lebedev_milin_job", "_numeric_checks", "_sharp_sobolev_job"]


def test_job_queue_counts_what_is_left():
    from fractrace import suite

    queue = suite._job_queue([4, 0, 7])
    try:
        assert suite._pending(queue) == 3
        assert suite._claim(queue) == 4 and suite._pending(queue) == 2
        suite._end_queues([queue])
        assert suite._pending(queue) == 0 and suite._claim(queue) is None
    finally:
        os.close(queue)


def test_forked_and_inline_reports_are_the_same_bytes(monkeypatch, tmp_path, capsys):
    outputs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out, csv = tmp_path / f"{cpus}.json", tmp_path / f"{cpus}.csv"
        code = run_cli(["verify", "--gamma", ",".join(SPY_GAMMAS), "--grid", "32",
                        "--out", str(out), "--csv", str(csv)])
        outputs.append((code, out.read_bytes(), csv.read_bytes(), capsys.readouterr().err))
    _no_child_left()
    assert outputs[0] == outputs[1]


def test_an_error_in_the_exact_suite_reaches_the_parent(monkeypatch, tmp_path, capsys):
    """Every exact job raises, in whichever process takes it."""
    from fractrace import cli

    def boom(*args):
        raise cli.ConfigError("boom")

    monkeypatch.setattr(suite, "_exact_checks", boom)
    _cpus(monkeypatch, 2)
    out = tmp_path / "r.json"
    _one_line_error(["verify", "--gamma", "1/2", "--grid", "8", "--out", str(out)], capsys,
                    "error: boom")
    assert not out.exists()
    _no_child_left()


@pytest.mark.parametrize("where", ["parent", "helper"])
def test_a_raising_job_stops_both_processes(where, monkeypatch, tmp_path, capsys):
    """Every job raises in one process and takes 0.05 s in the other.  The
    first raise ends the queue: of the 22 jobs, each process starts at most
    one after it, and the error is the one line of the raise."""
    from fractrace import cli

    here = os.getpid()

    def act(name):
        if (os.getpid() == here) == (where == "parent"):
            raise cli.ConfigError("boom")
        time.sleep(0.05)

    log = tmp_path / "jobs.txt"
    _spy_on_jobs(monkeypatch, log, act)
    _cpus(monkeypatch, 2)
    out = tmp_path / "r.json"
    _one_line_error(["verify", "--out", str(out)], capsys, "error: boom")
    assert not out.exists()
    _no_child_left()
    rows = _spied_jobs(log)
    assert len([pid for pid, *_ in rows if (pid == here) == (where == "parent")]) == 1
    assert len(rows) <= 3


def _helper_dies(monkeypatch, tmp_path, capsys, *, job=None, claim=None) -> str:
    """Run verify with two CPUs where the helper dies inside its first job
    (job) or right after it claims one (claim); every job here takes 0.02 s.
    Returns the one line of stderr, after checking exit 1, no report and no
    child left."""
    from fractrace import suite

    here = os.getpid()

    def act(name):
        if os.getpid() != here:
            job()
        time.sleep(0.02)

    _spy_on_jobs(monkeypatch, tmp_path / "jobs.txt", act if job else None)
    if claim:
        real = suite._claim

        def claiming(queue):
            index = real(queue)
            if os.getpid() != here:
                claim()
            return index

        monkeypatch.setattr(suite, "_claim", claiming)
    _cpus(monkeypatch, 2)
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--gamma", "1/2,4/3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    _no_child_left()
    return err


def test_a_lost_helper_writes_no_report(monkeypatch, tmp_path, capsys):
    assert "status 3" in _helper_dies(monkeypatch, tmp_path, capsys, job=lambda: os._exit(3))


def test_a_helper_killed_while_it_claims_writes_no_report(monkeypatch, tmp_path, capsys):
    """SIGKILL right after the helper read a job index from the queue."""
    err = _helper_dies(monkeypatch, tmp_path, capsys,
                       claim=lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert f"signal {int(signal.SIGKILL)}" in err


def test_a_failed_numeric_job_stops_the_exact_suite(monkeypatch, tmp_path, capsys):
    """Every numeric job raises on this box, whichever process takes it,
    while ten exact jobs wait in the queue."""
    _cpus(monkeypatch, 2)
    out = tmp_path / "r.json"
    _one_line_error(["verify", "--grid", "8", "--box", "1e300", "--out", str(out)], capsys, "--box")
    assert not out.exists()
    _no_child_left()


def test_a_failed_numeric_job_stops_the_jobs_after_it(monkeypatch, tmp_path, capsys):
    """--box 1e300 overflows every numeric job: each process starts at most
    one of the ten orders, and the sharp-inequality jobs never start."""
    from fractrace import energy as en, suite

    real, log = suite._numeric_checks, tmp_path / "jobs.txt"

    def spy(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {args[0]}\n")
        return real(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a sharp-inequality job ran")

    monkeypatch.setattr(suite, "_numeric_checks", spy)
    monkeypatch.setattr(en, "sharp_sobolev_check", refuse)
    monkeypatch.setattr(en, "lebedev_milin_check", refuse)
    _one_line_error(["verify", "--only", "numeric", "--box", "1e300"], capsys, "--box")
    pids = [line.split()[0] for line in log.read_text().splitlines()]
    assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)
    _no_child_left()


def test_verify_builds_each_gauss_rule_once(monkeypatch, tmp_path):
    """Each rule build calls _gatteschi_pittaluga twice, once per end."""
    from fractrace import energy as en

    monkeypatch.setattr(en, "_gj_cache", {})
    real, calls = en._gatteschi_pittaluga, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(en, "_gatteschi_pittaluga", spy)
    assert run_cli(["verify", "--only", "numeric", "--seed", "1",
                    "--out", str(tmp_path / "r.json")]) == 0
    assert en._gj_cache and len(calls) == 2 * len(en._gj_cache)


@pytest.mark.parametrize("command", ["extend", "dtn"])
@pytest.mark.parametrize("n", ["1", "2"])
def test_field_dimension_must_match_n(command, n, tiny_field, field_2d, tmp_path, capsys):
    field = field_2d if n == "1" else tiny_field
    out = tmp_path / "o.bin"
    _one_line_error([command, "--gamma", "1/2", "--n", n, "--in", field, "--out", str(out)],
                    capsys, "--n")
    assert not out.exists()


def test_csv_box_must_be_positive(tmp_path, capsys):
    csv = tmp_path / "f.csv"
    csv.write_text("value\n" + "\n".join(str(v) for v in np.linspace(0, 1, 16)))
    _one_line_error(["extend", "--gamma", "1/2", "--in", str(csv), "--box", "0",
                     "--out", str(tmp_path / "o.bin")], capsys, "box length")


@pytest.mark.parametrize("box", [0, -60, "abc", None])
def test_sidecar_box_must_be_positive(box, tiny_field, tmp_path, capsys):
    path = str(tmp_path / "f.bin")
    with open(tiny_field, "rb") as src, open(path, "wb") as dst:
        dst.write(src.read())
    with open(tiny_field + ".json") as handle:
        meta = json.load(handle)
    meta["box_length"] = box
    with open(path + ".json", "w") as handle:
        json.dump(meta, handle)
    _one_line_error(["fraclap", "--power", "1/2", "--in", path,
                     "--out", str(tmp_path / "o.bin")], capsys, "box length")


@pytest.mark.parametrize("grid", [0, 1])
def test_verify_rejects_grid_without_modes(grid, tmp_path, capsys):
    _one_line_error(["verify", "--gamma", "1/2", "--only", "numeric", f"--grid={grid}",
                     "--out", str(tmp_path / "r.json")], capsys, "--grid")


@pytest.mark.parametrize("grid", [2, 4])
def test_verify_small_grids_run(grid, tmp_path):
    """Grids with fewer than five nonzero modes still draw the random fields."""
    assert run_cli(["verify", "--gamma", "1/3,5/2", "--only", "numeric", f"--grid={grid}",
                    "--out", str(tmp_path / "r.json")]) in (0, 1)


SAMPLE_CHECKS = ("verify_commutator", "verify_product_factorization", "verify_r2s_commutation")


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 3), (2, 5)])
def test_seeded_samples_reach_every_sample_driven_exact_check(monkeypatch, n, seed):
    """verify --seed draws two monomials (default_samples indices 9 and 10);
    each of the four sample-driven polynomial checks must run on both."""
    from fractrace import polys, suite

    seen = []
    for name in SAMPLE_CHECKS:
        real = getattr(polys, name)

        def spy(*args, real=real, name=name, **kwargs):
            samples = inspect.signature(real).bind(*args, **kwargs).arguments["samples"]
            seen.append((name, [dict(u.terms) for u in samples]))
            return real(*args, **kwargs)

        monkeypatch.setattr(polys, name, spy)
    gamma, frac = Fraction(5, 2), Fraction(1, 2)
    reports = suite._exact_checks(gamma, n, seed)
    seeded = [dict(u.terms) for u in polys.default_samples(n, frac, seed=seed, extra=2)[9:]]
    assert len(seeded) == 2 and seeded[0] != seeded[1]
    assert sorted(name for name, _ in seen) == sorted(SAMPLE_CHECKS + ("verify_r2s_commutation",))
    for name, terms in seen:
        assert all(u in terms for u in seeded), name
    assert all(r.passed for r in reports)


FRACTIONAL_PARTS = sorted({Fraction(p, q) for q in range(2, 10) for p in range(1, q)})


def test_exact_checks_pass_at_every_small_denominator():
    """One order for each of the 27 fractional parts p/q with q <= 9; at
    {gamma} = 6/7 the H identity's gamma + 1/7 would be an integer, a pole of
    its closed form, so sum_identities must step past it."""
    from fractrace import suite

    assert len(FRACTIONAL_PARTS) == 27
    for frac in FRACTIONAL_PARTS:
        failed = [(r.check, r.details) for r in suite._exact_checks(2 + frac, 1, 0) if not r.passed]
        assert not failed, (frac, failed)

"""verify's job list and the runner that drains it; only cli.cmd_verify
imports this module.  Each layer is called through its module attribute
(gc., jets., polys., modes., en.), where bench/tracer.py wraps it.

With two or more CPUs, verify forks one helper process, and the two drain
its job list together: two job queues carried by pipes, one of the numeric
and sharp-inequality jobs and one of the exact jobs (see _run_jobs).  The
reports are the same bytes as on one CPU, where every job runs in turn.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import sys
from fractions import Fraction

import numpy as np

from . import cli
from . import gammacore as gc
from . import modes
from .cli import TOL_DEFAULTS, ConfigError, HelperError
from .report import VerificationReport, reports_to_csv, write_atomic, write_json

ENERGY_GAMMAS = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]


def _exact_checks(gamma: Fraction, n: int, seed: int):
    from . import jets, polys

    params = gc.GammaParams(gamma, n=n)
    checks = []

    rep = VerificationReport("gamma_constants", str(params), n)
    try:
        worst = 0.0
        slots = [("even", params.n_even_data, gc.halfint_dtn_even),
                 ("odd", params.n_odd_data, gc.halfint_dtn_odd)]
        for family, count, _ in slots:
            for j in range(count):
                direct = _dtn_constant_reference(params, j, family == "even")
                mine = gc.dtn_constant(params, family, j).value(params.frac_gamma)
                worst = max(worst, abs(mine - direct) / abs(direct))
        rep.record(worst <= TOL_DEFAULTS["gamma_constants"], worst,
                   f"closed forms vs direct Gamma evaluation: {worst:.2e}")
        yc = gc.yang_constant(params)
        c0 = gc.dtn_constant(params, "even", 0)
        rep.record(yc.equals_at(c0, params.frac_gamma), 0.0, "order-zero energy constant matches")
        if params.frac_gamma == Fraction(1, 2):
            kk = params.floor_gamma
            for family, count, halfint in slots:
                for j in range(count):
                    ok = gc.dtn_constant(params, family, j).as_fraction(Fraction(1, 2)) == halfint(kk, j)
                    rep.record(ok, 0.0 if ok else 1.0, f"half-integer {family} constant j={j}")
    except Exception as exc:  # report, never crash the suite
        rep.fail(f"exception: {exc!r}")
    checks.append(rep)

    rep = VerificationReport("sum_identities", str(params), n)
    try:
        for j in range(5):
            for ell in range(5):
                if gc.brute_force_F(j, ell, params) != gc.closed_form_F(j, ell, params):
                    rep.fail(f"F({j},{ell}) mismatch")
        # H has a pole at integer g == d, so g steps to 2/7 past gamma where
        # 1/7 would land on an integer ({gamma} = 6/7)
        g = params.gamma + Fraction(1, 7)
        if g.denominator == 1:
            g = params.gamma + Fraction(2, 7)
        for nn in range(5):
            for d in range(5):
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

    # the nine fixed samples, then the two monomials drawn from --seed
    samples = polys.default_samples(n, params.frac_gamma, seed=seed, extra=2)
    wide, narrow = samples[:7] + samples[9:], samples[:5] + samples[9:]
    # r^4 y^(2[g]) reaches every boundary weight of the r^2s formula, which
    # the fixed samples never do and the drawn ones only at some seeds
    narrow.append(polys.HalfSpacePoly.monomial(n, params.frac_gamma, s=2, b=1))
    checks.append(polys.verify_commutator(params, 2, wide))
    checks.append(polys.verify_product_factorization(params, wide))
    checks.append(polys.verify_r2s_commutation(params, 2, Fraction(-3, 2), narrow))
    checks.append(polys.verify_r2s_commutation(params, 1, Fraction(1, 2), narrow))
    checks.append(polys.verify_flat_hyperbolic_correspondence(params))
    checks.append(polys.verify_conformal_covariance(params))
    return checks


def _gamma_at(m: int, f: Fraction) -> float:
    """Gamma(m + f) for an integer m and an exact f in (0, 1).  Below zero it
    reflects, Gamma(m + f) = (-1)^m pi / (sin(pi f) Gamma(1 - m - f)), so no
    float argument sits near a pole, and takes the sine at the nearer end."""
    if m >= 0:
        return math.gamma(float(m + f))
    sin = math.sin(math.pi * float(min(f, 1 - f)))
    return (-1) ** m * math.pi / (sin * math.gamma(float(1 - m - f)))


def _dtn_constant_reference(params, j: int, even: bool) -> float:
    """The even or odd DtN constant from its Gamma closed form (see the
    gammacore docstrings), each argument m + [g] or m + (1 - [g]) with both
    fractions from the exact order; independent of the Pochhammer reduction."""
    fl, fr = params.floor_gamma, params.frac_gamma
    co = 1 - fr
    if even:
        sign, two = (-1) ** (1 + fl), 1 - 2 * fr
        num = [(0, co), (1 - j + fl, fr), (2 * j - fl - 1, co)]
        den = [(0, fr), (j, co), (fl - 2 * j, fr)]
    else:
        sign, two = (-1) ** fl, 2 * fr - 1
        num = [(0, fr), (fl - j, co), (2 * j - fl, fr)]
        den = [(0, co), (1 + j, fr), (fl - 2 * j - 1, co)]
    value = sign * 2.0 ** float(two) * math.factorial(fl - j) / math.factorial(j)
    for m, f in num:
        value *= _gamma_at(m, f)
    for m, f in den:
        value /= _gamma_at(m, f)
    return value


def _numeric_checks(gamma: Fraction, n: int, grid: int, box: float, seed: int, full: bool):
    from . import energy as en

    params = gc.GammaParams(gamma, n=n)
    shape = (grid,) * n
    widths = [2.0 + 0.4 * i for i in range(params.k)]
    data = [modes.gaussian_field(n, shape, box, width=w) for w in widths]
    # every check reads this one solve: its profiles, its M1, its boundary values
    sol = modes.solve_extension(params, data)
    checks = [modes.verify_dtn_constants(sol, tol=TOL_DEFAULTS["dtn_bessel_extraction"])]

    rep = VerificationReport("mode_ode_residual", str(params), n)
    for prof in sol.profiles:
        res = prof.ode_residual()
        rep.record(res <= TOL_DEFAULTS["mode_ode_residual"], res,
                   f"profile ({prof.kind},{prof.j}): residual {res:.2e}")
    checks.append(rep)

    checks.append(modes.verify_self_consistency(sol, tol=TOL_DEFAULTS["self_consistency"]))
    checks.append(modes.yang_extension_check(sol, tol_trace=TOL_DEFAULTS["yang_trace"],
                                             tol_cs=TOL_DEFAULTS["yang_cs"]))

    u = en.random_two_branch_field(params, sol.template, seed=seed)
    v = en.random_two_branch_field(params, sol.template, seed=seed + 1)
    checks.append(en.verify_q_symmetry(u, v, tol_sym=TOL_DEFAULTS["q_symmetry"]))

    if full or gamma in ENERGY_GAMMAS:
        view = en.extension_field_view(sol)
        checks.append(en.dirichlet_principle_check(view, seed=seed,
                                                   tol=TOL_DEFAULTS["dirichlet_principle"]))
        checks.append(en.energy_trace_check(view, seed=seed + 1, tol=TOL_DEFAULTS["energy_trace"]))
    else:
        checks.append(_skipped("dirichlet_principle", params, "run with --full to include this gamma"))
        checks.append(_skipped("energy_trace", params, "run with --full to include this gamma"))
    return checks


def _skipped(check: str, params, reason: str) -> VerificationReport:
    rep = VerificationReport(check, str(params), params.n, status="skip")
    rep.details.append(reason)
    return rep


RECORD = 2   # bytes per job index in a job queue


def _job_queue(indexes: list) -> int:
    """The read end of a pipe that holds these job indexes in order, its
    write end closed.  Each read of one record claims the next job (a pipe
    read is atomic), and end of file means the queue is empty; nothing is
    held between claims, so a process that dies takes no job with it but
    the one it runs."""
    read_fd, write_fd = os.pipe()
    os.write(write_fd, b"".join(i.to_bytes(RECORD, "little") for i in indexes))
    os.close(write_fd)
    return read_fd


def _claim(queue: int):
    """The next unclaimed job index of the queue, or None once it is empty."""
    record = os.read(queue, RECORD)
    return int.from_bytes(record, "little") if record else None


def _pending(queue: int) -> int:
    """How many jobs are left in the queue."""
    import fcntl
    import termios

    left = fcntl.ioctl(queue, termios.FIONREAD, bytes(4))
    return int.from_bytes(left, sys.byteorder) // RECORD


def _end_queues(queues: list):
    """Claim every job left, so neither process starts another."""
    for queue in queues:
        while os.read(queue, select.PIPE_BUF):
            pass


def _drain(jobs: list, queues: list, run) -> dict:
    """{job index: run(fn, args)} for every job this process claims: from
    its own queue, queues[0], while it has jobs, else from another while two
    or more are left there (the other process takes the last one after its
    current job, without loading another job kind's modules)."""
    done = {}
    while True:
        for queue in queues:
            i = _claim(queue) if queue == queues[0] or _pending(queue) >= 2 else None
            if i is not None:
                break
        else:
            return done
        fn, a = jobs[i]
        done[i] = run(fn, a)


def _fork_helper(jobs: list, queues: list):
    """Fork a helper that drains the queues, its own first, running each job
    inline.  It sends {job index: reports}, or the exception a job raised
    (after ending the queues), pickled through a pipe and ends with
    os._exit.  Returns (pid, read end of the pipe) for _helper_reports."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:   # the helper never returns into the caller's code
        os.close(read_fd)
        try:
            result = True, _drain(jobs, queues, lambda fn, a: fn(*a))
        except Exception as exc:
            _end_queues(queues)
            result = False, exc
        payload = pickle.dumps(result)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _helper_reports(pid: int, read_fd: int) -> dict:
    """Read the helper's result to EOF, reap the helper, and return its
    {job index: reports} or raise the exception its job raised."""
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not payload:
        ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise HelperError(f"verify's helper process {ended} before sending its reports; "
                          "no report written")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def _kill_helper(pid: int, read_fd: int):
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    os.close(read_fd)


def _run_jobs(jobs: list, groups: list) -> list:
    """Every job's reports, concatenated in job order.  groups splits the
    job indexes by kind, each group in list order.

    With one CPU, or one job, every job runs here in list order.  With two
    or more CPUs each group becomes one job queue (_job_queue), and this
    process and one forked helper drain them together: this process starts
    on the first group's queue and the helper on the last one's (the same
    queue when there is one group), and either takes from the other queue
    once its own is empty (_drain).  A job kind loads its modules at its
    first job in a process: energy with numpy's fft and random for the
    numeric jobs, jets and polys for the exact ones, which compile on every
    run where no bytecode cache is written.  Starting each process on its
    own kind keeps those loads in parallel, and a process loads the other
    kind's only to take over two or more of its jobs.  The helper is forked
    before any thread starts.  Here each job runs on a one-worker
    cli.ThreadPoolExecutor, read at this call, which stays only as the hook
    bench/tracer.py replaces to time each job (the helper's jobs go
    untimed); concurrent.futures loads at that read, in verify alone, and
    the helper forks before it.  The first job that raises ends
    the queues for both processes: an error here wins and kills the helper;
    else the helper's error is raised once this process has finished its
    current job."""
    helper, queues = None, []
    if (len(jobs) >= 2 and max(map(len, groups)) * RECORD <= select.PIPE_BUF
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
        queues = [_job_queue(group) for group in groups]
        helper = _fork_helper(jobs, queues[::-1])
    try:
        with cli.ThreadPoolExecutor(max_workers=1) as pool:
            def run(fn, a):
                return pool.submit(fn, *a).result()

            if helper is None:
                done = {i: run(*jobs[i]) for i in range(len(jobs))}
            else:
                done = _drain(jobs, queues, run)
    except BaseException:
        if helper is not None:
            _kill_helper(*helper)
        raise
    finally:
        for queue in queues:
            os.close(queue)
    if helper is not None:
        done.update(_helper_reports(*helper))
    return [rep for i in sorted(done) for rep in done[i]]


def _sharp_sobolev_job(seed: int) -> list:
    from . import energy as en

    return [en.sharp_sobolev_check(2, gt=0.5, seed=seed, tol=TOL_DEFAULTS["sharp_sobolev"])]


def _lebedev_milin_job() -> list:
    from . import energy as en

    return [en.lebedev_milin_check(extremal_eps=4.0, tol_equality=TOL_DEFAULTS["lebedev_milin"]),
            en.lebedev_milin_check(perturbation=0.5)]


def verify(args, gammas: list) -> int:
    """Run verify's jobs at the orders gammas, with args checked by
    cli.cmd_verify."""
    def numeric_checks(*a):   # errstate set in the job's thread, which does not inherit it
        try:
            with np.errstate(over="raise"):
                return _numeric_checks(*a)
        except (OverflowError, FloatingPointError) as exc:
            raise ConfigError(f"--box {args.box!r} overflows the numeric checks: {exc}") from None

    # The job list: the numeric jobs per order, then the two sharp-inequality
    # jobs, then the exact jobs from the highest order down, since their cost
    # grows with the order: a process takes the small ones last.
    numeric, exact = [], []
    if args.only in (None, "numeric"):
        numeric = [(numeric_checks, (g, args.n, args.grid, args.box, args.seed, args.full))
                   for g in gammas]
        numeric += [(_sharp_sobolev_job, (args.seed,)), (_lebedev_milin_job, ())]
    if args.only in (None, "identities"):
        exact = [(_exact_checks, (g, args.n, args.seed)) for g in sorted(gammas, reverse=True)]
    jobs = numeric + exact
    kinds = [range(len(numeric)), range(len(numeric), len(jobs))]
    reports = _run_jobs(jobs, [list(kind) for kind in kinds if kind])
    reports.sort(key=lambda r: (r.gamma, r.check))
    write_json(reports, args.out)
    if args.csv:
        write_atomic(args.csv, reports_to_csv(reports).encode())
    for r in reports:
        line = f"[{r.status:4s}] gamma={r.gamma:6s} {r.check} (max_rel_err={r.max_rel_err:.2e})"
        print(line, file=sys.stderr)
    return 1 if any(r.status == "fail" for r in reports) else 0

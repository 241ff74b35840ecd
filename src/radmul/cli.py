"""Batch driver: symbol tables, verification suites, the certified norm envelope.

``verify`` spreads its suites over the usable cores (``os.sched_getaffinity``)
when the space is large enough to repay a fork (``FORK_MIN_SIZE``): the
suites share only the Fock space, so after building it the process forks
one worker per further core, at most one per job after the first.  It runs
the first job itself, and each worker a fixed share of the others
(``_run_jobs``).  The calling process goes through the jobs in list order,
running its own and reading the workers' outcomes, and stops at the first
failure with the error one process raises.  The report is the same, byte
for byte, as from one process.  A smaller space, like ``taskset -c 0
radmul verify ...``, runs them all in one process.  Peak memory at a large
``fock_len`` is the sum of the peaks of the suites that run at the same time.

A command runs with numpy's overflow and invalid-value warnings silenced
(``main``), here and in the forked workers, which inherit the setting: an
overflowing symbol leaves inf or nan, and each check that reads one fails.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or configuration error, a lost worker process or a lack of memory.
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import signal
import sys
import traceback
from contextlib import suppress

# before numpy loads: OpenBLAS's idle pool threads then sleep at once instead
# of spinning for 2**28 cycles each (about 0.1 s of CPU per thread)
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from .algebra import verify_pp_basis
from .config import ConfigError, RunConfig, load_config
from .report import VerificationReport
from .symbols import hankel_trace_norm, norm_C, ricard_xu_bound, write_symbol_csv
from .verify import (embedding_suite, fock_suite, lemma_suite, main_theorem_suite,
                     norm_bound_suite, operator_suite, spanning_check)

SUITES = ("all", "pp", "fock", "operators", "cases", "theorem", "spanning", "bound")

# ``verify`` forks its workers only for a word graph of at least this many
# scalar entries, len(space.letters) * space.dim.  Measured on a 2-core
# machine, forked against one process (medians of 8-12 alternating runs):
# up to cy3 fock_len 5 (500 entries) one process wins, with about 7% less
# CPU and half the minor page faults; from noncommuting fock_len 6 and cy3
# fock_len 8 (4048 and 4084 entries) on, the fork wins, 0.59 against 0.84 s
# and 0.42 against 0.69 s of wall time.  In between (976 to 2036 entries)
# the winner turned on whether the second core was free, and one process
# always took less CPU, so the constant sits above that band.
FORK_MIN_SIZE = 3072


def _tagged(report: VerificationReport, tag: str) -> VerificationReport:
    for check in report.checks:
        check.name = "%s[%s]" % (check.name, tag)
    return report


def _fmt(value: float) -> str:
    return "%.12g" % value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def cmd_symbol(args) -> int:
    cfg = load_config(args.config)
    phi = cfg.symbol
    print("h_trace_norm =", _fmt(hankel_trace_norm(phi, 0)))
    print("k_trace_norm =", _fmt(hankel_trace_norm(phi, 1)))
    print("abs_limit =", _fmt(abs(phi.limit)))
    print("class_C_norm =", _fmt(norm_C(phi)))
    print("linear_growth_bound =", _fmt(ricard_xu_bound(phi)))
    if args.csv:
        write_symbol_csv(args.csv, phi, cfg.hankel_dim)
        print("csv written to", args.csv)
    return 0


def _pp_suite(space) -> VerificationReport:
    report = VerificationReport()
    for i, fac in enumerate(space.amalgam.factors):
        report.extend(_tagged(verify_pp_basis(fac), "f%d" % i))
    return report


def _run_suites(cfg: RunConfig, suite: str) -> VerificationReport:
    seed = cfg.seed
    space = cfg.space()
    symbols = [cfg.symbol]
    # (job, the --suite value that selects it, the job) in list order, the
    # longest first, so that the calling process, which keeps job 0
    # (``_run_jobs``), and each worker's share start with their longest job.
    # Forked, one at a time, at cy3 fock_len 10 with a 0.5**n tail the jobs
    # took 0.76, 0.63, 0.075, 0.069, 0.043, 0.034, 0.020 and 0.005 s (medians
    # of 5), and at fock_len 12 the cases suite is still the longest (2.75
    # against 2.47 s for the theorem suite, medians of 3).  The embedding
    # suite is a job of its own.  A report sorts its checks by name, so this
    # order never shows.
    jobs = [
        ("cases", "cases", lambda: lemma_suite(space, symbols, seed=seed)),
        ("theorem", "theorem", lambda: main_theorem_suite(space, symbols, seed=seed)),
        ("bound", "bound", lambda: norm_bound_suite(space, symbols)),
        ("embedding", "operators", lambda: embedding_suite(space, seed=seed)),
        ("operators", "operators", lambda: operator_suite(space, seed=seed)),
        ("fock", "fock", lambda: fock_suite(space, seed=seed)),
        ("spanning", "spanning", lambda: spanning_check(space)),
        ("pp", "pp", lambda: _pp_suite(space)),
    ]
    results = _run_jobs([(name, job) for name, selector, job in jobs
                         if suite in ("all", selector)],
                        len(space.letters) * space.dim >= FORK_MIN_SIZE)
    report = VerificationReport(context={"config_digest": cfg.digest(), "seed": seed})
    for result in results.values():
        report.extend(result)
    return report


def _run_jobs(jobs: list, fork: bool) -> dict:
    """Run ``jobs``, a list of (name, callable), on the usable cores, or in
    the calling process alone when not ``fork``; their results by name.

    With ``fork``, n = min(cores, jobs) - 1 workers are forked, none for one
    job or one usable core; without it none, as on one core (``_run_suites``
    forks only for a space of ``FORK_MIN_SIZE`` entries or more).  The
    shares are fixed: worker w runs jobs 1 + w, 1 + w + n, ..., and the
    calling process owns job 0 and the share of any worker whose pipe or
    fork failed (then no further worker is forked): every job when there is
    no worker.  So the caller's share does not change from
    run to run, and a tracer in it sees the same jobs on every run.  A
    worker sends the pickled outcome of each job through a pipe of its own
    and ends with ``os._exit``, so no atexit handler or buffered output of
    the caller runs twice; it exits with code 1 when an outcome cannot be
    pickled.  Fork is used, not spawn, so that workers start with the space
    already built; the only other threads are the BLAS pool's, which resets
    itself across fork and whose idle threads sleep at once instead of
    spinning (``OPENBLAS_THREAD_TIMEOUT``, set when this module loads).  The
    heap is frozen first (``gc.freeze``), with or without a fork: no
    collection walks it again, neither a worker's, which would copy its
    pages, nor the caller's at exit.  So nothing alive at the
    call, garbage cycles included, is ever freed: a long-lived caller such
    as pytest keeps that memory.

    The caller goes through the jobs in list order: it runs each job it
    owns and reads the outcome of each other from its worker's pipe.  It
    stops at the first failure, as one process does, and the workers still
    running are killed: a job's exception is raised (a worker's with its
    traceback as the cause), and a worker that died raises a
    ChildProcessError naming the job and its exit code.  A worker whose job
    fails runs no further job of its share.  No worker outlives the call.
    """
    # one process without fork, or where the usable cores cannot be read (not Linux)
    cores = len(os.sched_getaffinity(0)) if fork and hasattr(os, "sched_getaffinity") else 1
    n_workers = min(cores, len(jobs)) - 1
    owners = [None] * len(jobs)  # the (pid, pipe) of each job's worker
    workers = []
    results = {}
    gc.freeze()
    try:
        for w in range(n_workers):
            share = range(1 + w, len(jobs), n_workers)
            fds = ()
            try:
                fds = r, out = os.pipe()
                pid = os.fork()
            except OSError:  # fewer workers: the caller runs the shares left
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                code = 1
                try:
                    with os.fdopen(out, "wb") as pipe:
                        for index in share:
                            try:
                                outcome = True, jobs[index][1](), None
                            except Exception as exc:  # raised again by the caller
                                outcome = False, exc, traceback.format_exc()
                            pipe.write(pickle.dumps(outcome))
                            pipe.flush()
                            if not outcome[0]:
                                break
                    code = 0
                finally:
                    os._exit(code)
            os.close(out)
            workers.append((pid, os.fdopen(r, "rb")))
            for index in share:
                owners[index] = workers[-1]
        for (name, job), owner in zip(jobs, owners):
            if owner is None:
                results[name] = job()
                continue
            pid, pipe = owner
            try:
                ok, value, text = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the worker died in this job
                # WNOWAIT reads its exit status and leaves the reaping to the finally
                info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                code = info.si_status if info.si_code == os.CLD_EXITED else -info.si_status
                raise ChildProcessError("verify job %r was lost: its worker process ended "
                                        "with exit code %d" % (name, code)) from None
            if not ok:
                raise value from RuntimeError("raised in a worker process:\n" + text)
            results[name] = value
    finally:
        for pid, pipe in workers:
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw = dict(cfg.raw, seed=args.seed)
    report = _run_suites(cfg, args.suite)
    for line in report.summary_lines():
        print(line)
    if args.report:
        report.write(args.report)
        print("report written to", args.report)
    return 0 if report.passed else 1


def cmd_bound(args) -> int:
    cfg = load_config(args.config)
    report = norm_bound_suite(cfg.space(), [cfg.symbol])
    certified = next(c.details["certified"] for c in report.checks if "certified" in c.details)
    print("class_C_norm =", _fmt(norm_C(cfg.symbol)))
    print("certified_bound =", _fmt(certified))
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radmul",
        description="Radial multipliers on amalgamated free products: "
                    "symbol calculus, construction, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symbol", help="Hankel norms and the phi/psi1/psi2 table")
    p.add_argument("--config", required=True, help="configuration JSON path")
    p.add_argument("--csv", default=None, help="where to write the symbol table")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.add_argument("--report", default=None, help="where to write the report JSON")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="certified completely bounded norm envelope")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print("configuration error:", exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error:", exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("out of memory:", exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

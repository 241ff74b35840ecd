"""Batch driver: symbol tables, verification suites, norm-bound sampling.

``verify`` spreads its suites over the usable cores (``os.sched_getaffinity``):
the suites share only the Fock space, so after building it the process forks
one worker per further core, at most one per job after the first.  It runs
the first job itself, and each worker a fixed share of the others
(``_run_jobs``).  The calling process goes through the jobs in list order,
running its own and reading the workers' outcomes, and stops at the first
failure with the error one process raises.  The report is the same, byte
for byte, as from one process.  ``taskset -c 0 radmul verify ...`` runs
them all in one process.  Peak memory at a large ``fock_len`` is the sum
of the peaks of the suites that run at the same time.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or configuration error, a lost worker process or a lack of memory.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import traceback
from contextlib import suppress

from .algebra import verify_pp_basis
from .config import ConfigError, RunConfig, load_config
from .report import VerificationReport
from .symbols import hankel_trace_norm, norm_C, ricard_xu_bound, write_symbol_csv
from .verify import (embedding_suite, fock_suite, lemma_suite, main_theorem_suite,
                     norm_bound_suite, operator_suite, spanning_check)

SUITES = ("all", "pp", "fock", "operators", "cases", "theorem", "spanning", "bound")


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


def _samples(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("need at least one sample")
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


def _pp_suite(space, tol: float) -> VerificationReport:
    report = VerificationReport()
    for i, fac in enumerate(space.amalgam.factors):
        report.extend(_tagged(verify_pp_basis(fac, tol=tol), "f%d" % i))
    return report


def _run_suites(cfg: RunConfig, suite: str) -> VerificationReport:
    seed = cfg.seed
    tols = cfg.tolerances
    eigen = tols["eigen"]
    space = cfg.space()
    symbols = [cfg.symbol]
    # (job, the --suite value that selects it, the job) in list order: bound
    # first, which the calling process keeps (``_run_jobs``), then the others
    # largest first, so that each share starts with its longest job.  The
    # embedding suite is a job of its own.  A report sorts its checks by
    # name, so this order never shows.
    jobs = [
        ("bound", "bound", lambda: norm_bound_suite(space, symbols, seed=seed, samples=25,
                                                    tol=tols["spectral"])),
        ("theorem", "theorem", lambda: main_theorem_suite(space, symbols, seed=seed, tol=eigen)),
        ("cases", "cases", lambda: lemma_suite(space, symbols, seed=seed, tol=eigen)),
        ("operators", "operators", lambda: operator_suite(space, seed=seed)),
        ("embedding", "operators", lambda: embedding_suite(space, seed=seed)),
        ("fock", "fock", lambda: fock_suite(space, seed=seed, tol=tols["algebraic"])),
        ("pp", "pp", lambda: _pp_suite(space, tols["algebraic"])),
        ("spanning", "spanning", lambda: spanning_check(space)),
    ]
    results = _run_jobs([(name, job) for name, selector, job in jobs
                         if suite in ("all", selector)])
    report = VerificationReport(context={"config_digest": cfg.digest(), "seed": seed})
    for result in results.values():
        report.extend(result)
    return report


def _run_jobs(jobs: list) -> dict:
    """Run ``jobs``, a list of (name, callable), on the usable cores; their
    results by name.

    n = min(cores, jobs) - 1 workers are forked, none for one job or one
    usable core.  The shares are fixed: worker w runs jobs 1 + w, 1 + w + n,
    ..., and the calling process owns job 0 and the share of any worker
    whose pipe or fork failed (then no further worker is forked): every job
    when there is no worker.  So the caller's share does not change from
    run to run, and a tracer in it sees the same jobs on every run.  A
    worker sends the pickled outcome of each job through a pipe of its own
    and ends with ``os._exit``, so no atexit handler or buffered output of
    the caller runs twice; it exits with code 1 when an outcome cannot be
    pickled.  Fork is used, not spawn, so that workers start with the space
    already built; the only other threads are the BLAS pool's, which resets
    itself across fork.

    The caller goes through the jobs in list order: it runs each job it
    owns and reads the outcome of each other from its worker's pipe.  It
    stops at the first failure, as one process does, and the workers still
    running are killed: a job's exception is raised (a worker's with its
    traceback as the cause), and a worker that died raises a
    ChildProcessError naming the job and its exit code.  A worker whose job
    fails runs no further job of its share.  No worker outlives the call.
    """
    # one process where the usable cores cannot be read (not Linux)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(cores, len(jobs)) - 1
    owners = [None] * len(jobs)  # the (pid, pipe) of each job's worker
    workers = []
    results = {}
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
    if args.seed is not None:
        cfg.seed = args.seed
    space = cfg.space()
    report = norm_bound_suite(space, [cfg.symbol], seed=cfg.seed,
                              samples=args.samples, tol=cfg.tolerances["spectral"])
    value = norm_C(cfg.symbol)
    observed = max((c.details.get("observed", 0.0) for c in report.checks
                    if "observed" in c.details), default=0.0)
    print("class_C_norm =", _fmt(value))
    print("sampled_sup_ratio =", _fmt(observed))
    print("margin =", _fmt(value - observed))
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

    p = sub.add_parser("bound", help="sampled completely bounded norm envelope")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--samples", type=_samples, default=50)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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

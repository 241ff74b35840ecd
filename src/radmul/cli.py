"""Batch driver: symbol tables, verification suites, norm-bound sampling.

``verify`` spreads its suites over the usable cores (``os.sched_getaffinity``):
the suites share only the Fock space, so after building it the process forks
one worker per further core, up to one per suite, and the report is the same,
byte for byte, as from one process.  ``taskset -c 0 radmul verify ...`` runs
them all in one process.  Peak memory at a large ``fock_len`` is the sum of
the peaks of the suites that run at the same time.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import io
import math
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


def _tol(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError("tolerance must be finite and positive")
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


# The jobs of ``verify --suite all``, largest first: the order they are taken
# in, so that the last one to finish starts early.  The embedding suite is a
# job of its own, selected by --suite operators.
TAKE_ORDER = ("bound", "theorem", "cases", "operators", "embedding", "fock", "pp", "spanning")


def _pp_suite(space, tol: float) -> VerificationReport:
    report = VerificationReport()
    for i, fac in enumerate(space.amalgam.factors):
        report.extend(_tagged(verify_pp_basis(fac, tol=tol), "f%d" % i))
    return report


def _run_suites(cfg: RunConfig, suite: str, eigen_tol=None) -> VerificationReport:
    seed = cfg.seed
    tols = cfg.tolerances
    eigen = float(eigen_tol if eigen_tol is not None else tols["eigen"])
    space = cfg.space()
    symbols = [cfg.symbol]
    # job -> (the --suite value that selects it, the job), in report order
    jobs = {
        "pp": ("pp", lambda: _pp_suite(space, tols["algebraic"])),
        "fock": ("fock", lambda: fock_suite(space, seed=seed, tol=tols["algebraic"])),
        "operators": ("operators", lambda: operator_suite(space, seed=seed)),
        "embedding": ("operators", lambda: embedding_suite(space, seed=seed)),
        "cases": ("cases", lambda: lemma_suite(space, symbols, seed=seed, tol=eigen)),
        "theorem": ("theorem", lambda: main_theorem_suite(space, symbols, seed=seed, tol=eigen)),
        "spanning": ("spanning", lambda: spanning_check(space)),
        "bound": ("bound", lambda: norm_bound_suite(space, symbols, seed=seed, samples=25,
                                                    tol=tols["spectral"])),
    }
    results = _run_jobs([(name, jobs[name][1]) for name in TAKE_ORDER
                         if suite in ("all", jobs[name][0])])
    report = VerificationReport(context={"config_digest": cfg.digest(), "seed": seed})
    for name in jobs:
        if name in results:
            report.extend(results[name])
    return report


def _outcome(job) -> tuple:
    """(True, result, None) or (False, exception, formatted traceback) of ``job()``."""
    try:
        return True, job(), None
    except Exception as exc:  # handed to the caller of _run_jobs, who raises it
        return False, exc, traceback.format_exc()


def _taken(queue: int):
    """The job indices this process takes off the queue pipe until it is empty."""
    while index := os.read(queue, 1):
        yield index[0]


def _serve(queue: int, jobs: list, out: int) -> None:
    """A worker's loop: for each job taken, send its index, run it, send the
    pickled outcome; then end the process, never returning to the caller."""
    code = 1
    try:
        with os.fdopen(out, "wb") as pipe:
            for index in _taken(queue):
                pipe.write(bytes([index]))
                pipe.flush()
                outcome = _outcome(jobs[index][1])
                pipe.write(pickle.dumps(outcome))
                pipe.flush()
                if not outcome[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def _received(data: bytes, outcomes: dict):
    """Add the outcomes in a worker's pipe data to ``outcomes``; the index of
    the job the worker died in, if any."""
    stream = io.BytesIO(data)
    while index := stream.read(1):
        try:
            outcomes[index[0]] = pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            return index[0]
    return None


def _run_jobs(jobs: list) -> dict:
    """Run ``jobs``, a list of (name, callable), on the usable cores; their
    results by name.

    min(cores, jobs) - 1 workers are forked; none for one job or one usable
    core.  The calling process runs the first job.  The workers take the
    others, each the next job index off one shared pipe (a one-byte read is
    atomic) until it is empty, and the calling process then runs whatever
    they left: every job when there is no worker.  So the caller's share is
    fixed, and a tracer in it sees the same jobs on every run.  A worker
    sends each index it takes and then the pickled outcome through a pipe of
    its own, and ends with ``os._exit``, so no atexit handler or buffered
    output of the caller runs twice.  Fork is used, not spawn, so that
    workers start with the space already built; the only other threads are
    the BLAS pool's, which resets itself across fork.

    A process whose job fails takes no further job.  As in one process, the
    exception of the first failing job in list order is raised; a job whose
    worker died raises a RuntimeError naming it.  No worker outlives the
    call.
    """
    # one process where the usable cores cannot be read (not Linux)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_workers = min(cores, len(jobs)) - 1
    queue, queue_in = os.pipe()
    os.write(queue_in, bytes(range(1, len(jobs))))
    os.close(queue_in)
    pipes, statuses, outcomes, lost = {}, {}, {}, {}
    try:
        for _ in range(n_workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # fewer workers: the jobs left stay on the queue
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _serve(queue, jobs, w)
            os.close(w)
            pipes[pid] = os.fdopen(r, "rb")
        outcomes[0] = _outcome(jobs[0][1])
        for pid, pipe in pipes.items():
            died_in = _received(pipe.read(), outcomes)
            statuses[pid] = os.waitpid(pid, 0)[1]
            if died_in is not None:
                lost[died_in] = os.waitstatus_to_exitcode(statuses[pid])
        # what the workers left (every other job when there is none), unless
        # a job already failed
        failed = lost or not all(ok for ok, _, _ in outcomes.values())
        for index in () if failed else _taken(queue):
            outcomes[index] = _outcome(jobs[index][1])
            if not outcomes[index][0]:
                break
    finally:
        os.close(queue)
        for pid, pipe in pipes.items():
            pipe.close()
            if pid not in statuses:
                with suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    results = {}
    for index, (name, _) in enumerate(jobs):
        if index not in outcomes:
            raise RuntimeError("verify job %r was lost: its worker process ended%s"
                               % (name, " with exit code %d" % lost[index]
                                  if index in lost else ""))
        ok, value, text = outcomes[index]
        if not ok and value.__traceback__ is None:  # raised in a worker
            raise value from RuntimeError("raised in a worker process:\n" + text)
        if not ok:
            raise value
        results[name] = value
    return results


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw = dict(cfg.raw, seed=args.seed)
    report = _run_suites(cfg, args.suite, eigen_tol=args.tol)
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
    p.add_argument("--tol", type=_tol, default=None, help="override the eigen tolerance")
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


if __name__ == "__main__":
    sys.exit(main())

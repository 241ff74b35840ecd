"""Batch driver: symbol tables, verification suites, norm-bound sampling.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def _run_suites(cfg: RunConfig, suite: str, eigen_tol=None) -> VerificationReport:
    seed = cfg.seed
    tols = cfg.tolerances
    eigen = float(eigen_tol if eigen_tol is not None else tols["eigen"])
    space = cfg.space()
    symbols = [cfg.symbol]
    report = VerificationReport(context={"config_digest": cfg.digest(), "seed": seed})

    if suite in ("all", "pp"):
        for i, fac in enumerate(space.amalgam.factors):
            report.extend(_tagged(verify_pp_basis(fac, tol=tols["algebraic"]), "f%d" % i))
    if suite in ("all", "fock"):
        report.extend(fock_suite(space, seed=seed, tol=tols["algebraic"]))
    if suite in ("all", "operators"):
        report.extend(operator_suite(space, seed=seed))
        report.extend(embedding_suite(space, seed=seed))
    if suite in ("all", "cases"):
        report.extend(lemma_suite(space, symbols, seed=seed, tol=eigen))
    if suite in ("all", "theorem"):
        report.extend(main_theorem_suite(space, symbols, seed=seed, tol=eigen))
    if suite in ("all", "spanning"):
        report.extend(spanning_check(space))
    if suite in ("all", "bound"):
        report.extend(norm_bound_suite(space, symbols, seed=seed, samples=25,
                                       tol=tols["spectral"]))
    return report


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

"""Command-line experiment harness.

Subcommands mirror the experiment runners, and each takes only the options its
runner reads; ``verify`` runs the acceptance suite and exits nonzero on any
failure.  Identical config + seed yields byte-identical CSV/JSON output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .domains import epsilon_falsifier, parse_domain
from .experiments import (
    ExperimentConfig,
    load_config,
    run_apconst_table,
    run_bbm_experiment,
    run_bsvy_experiment,
    run_maximal_table,
    run_morrey_duality_check,
    run_norm_table,
    run_weak_holder_suite,
)
from .grid import check_params, make_grid, parse_function, split_params
from .reports import RatioTable, emit_report
from .spaces import parse_space


def _parse_grid(text: str):
    kv = split_params(text, text)
    check_params("grid", kv, optional=("n", "L", "lo", "hi", "N", "points"))
    n = int(kv.get("n", "1"))
    if "L" in kv:
        L = float(kv["L"])
        lo, hi = -L, L
    else:
        lo, hi = float(kv.get("lo", "-1")), float(kv.get("hi", "1"))
    npts = int(kv.get("N", kv.get("points", "64")))
    return make_grid(n, lo, hi, npts)


def _base_config(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
        cfg.kind = args.command  # the provenance names the subcommand that ran
    else:
        grid = _parse_grid(args.grid) if args.grid else make_grid(1, -2.0, 2.0, 64)
        cfg = ExperimentConfig(kind=args.command, grid=grid)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.outdir = args.out
    if getattr(args, "fn", None):
        cfg.functions = [parse_function(t) for t in args.fn]
    if getattr(args, "space", None):
        cfg.spaces = [parse_space(t) for t in args.space]
    if getattr(args, "domain", None):
        cfg.domain = parse_domain(args.domain, box=(cfg.grid.lo, cfg.grid.hi))
    if getattr(args, "p", None) is not None:
        cfg.p = args.p
    if getattr(args, "gamma", None):
        cfg.gammas = tuple(args.gamma)
    if getattr(args, "no_refine", False):
        cfg.refine = False
    return cfg


def _emit(table: RatioTable, cfg: ExperimentConfig, name: str) -> int:
    for p in emit_report(table, cfg.outdir, name):
        print(f"wrote {p}")
    return 0


# the options that follow a subcommand; per subcommand, its help and the options
# its runner reads, and no others
_OPTIONS = {
    "--fn": dict(action="append", help="test function spec (repeatable)"),
    "--space": dict(action="append", help="space spec (repeatable)"),
    "--domain": dict(help="domain spec"),
    "--p": dict(type=float),
    "--gamma": dict(type=float, action="append"),
    "--no-refine": dict(action="store_true"),
    "--weight": dict(action="append", help="weight spec power:a=...,center=..."),
    "--theta": dict(type=float),
    "--instances": dict(type=int, default=100),
    "--eps": dict(type=float, default=0.5),
    "--samples": dict(type=int, default=1000),
    "--criteria": dict(nargs="*", help="subset of criterion numbers"),
}
_SUBCOMMANDS = {
    "norm": ("evaluate norms for functions x spaces", ("--fn", "--space", "--domain")),
    "bbm": ("scaled fractional seminorm limit vs gradient norm",
            ("--fn", "--space", "--domain", "--p", "--no-refine")),
    "bsvy": ("level-set functional sup vs gradient norm",
             ("--fn", "--space", "--domain", "--p", "--gamma", "--no-refine")),
    "maximal": ("maximal-function table for test functions", ("--fn",)),
    "apconst": ("Muckenhoupt constants", ("--weight",)),
    "morrey-duality": ("Morrey norm vs maximal-weighted cube suprema",
                       ("--fn", "--space", "--domain", "--theta")),
    "weak-holder": ("random weak-Hoelder property suite", ("--domain", "--gamma", "--instances")),
    "epsilon-check": ("uniform-domain curve-condition falsifier", ("--domain", "--eps", "--samples")),
    "verify": ("run the acceptance suite", ("--criteria",)),
}


class _Parser(argparse.ArgumentParser):
    """Raises its errors as ValueErrors, and so do its subcommand parsers
    (argparse builds them of the parent's class): they end like every other
    bad input, in one line."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process (parsing leaves it as it is)."""
    ap = _Parser(prog="normlab", description="function-space norm and functional laboratory")
    ap.add_argument("--config", help="INI experiment config")
    ap.add_argument("--out", help="output directory", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--grid", help="grid spec, e.g. n=1,L=8,N=4096")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
    return ap


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe fails here, inside the try, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    """Bad input, or arithmetic that extreme input overflows, ends in one line on
    stderr and exit code 2; the acceptance suite runs outside that net."""
    try:
        args = _parser().parse_args(argv)
        if args.command != "verify":
            return _run(args, _base_config(args))
        from .acceptance import CRITERIA, run_acceptance

        unknown = [k for k in args.criteria or () if k not in CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria {unknown}; known: {sorted(CRITERIA)}")
        # the criteria fix their own grids, seeds and outputs
        if any(v is not None for v in (args.config, args.out, args.seed, args.grid)):
            raise ValueError("verify takes none of --config, --out, --seed, --grid")
    except (ValueError, ArithmeticError) as exc:
        print(f"normlab: error: {exc}", file=sys.stderr)
        return 2
    results = run_acceptance(args.criteria or None)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _run(args, cfg: ExperimentConfig) -> int:
    if args.command == "norm":
        return _emit(run_norm_table(cfg), cfg, "norms")
    if args.command == "bbm":
        return _emit(run_bbm_experiment(cfg), cfg, "bbm")
    if args.command == "bsvy":
        table, summary = run_bsvy_experiment(cfg)
        for key, agg in summary.items():
            print(f"{key}: bracket [{agg['c1']:.4g}, {agg['c2']:.4g}] width {agg['width']:.3g}")
        return _emit(table, cfg, "bsvy")
    if args.command == "maximal":
        return _emit(run_maximal_table(cfg), cfg, "maximal")
    if args.command == "apconst":
        weights = args.weight or ["power:a=-0.5,center=0.0"]
        return _emit(run_apconst_table(cfg, weights), cfg, "apconst")
    if args.command == "morrey-duality":
        return _emit(run_morrey_duality_check(cfg, theta=args.theta), cfg, "morrey_duality")
    if args.command == "weak-holder":
        if len(args.gamma or ()) > 1:
            raise ValueError("weak-holder takes one --gamma")
        summary, table = run_weak_holder_suite(cfg, instances=args.instances, gamma=(args.gamma or [1.0])[0])
        print(f"passes {summary['passes']}/{summary['instances']}"
              f" (trivial {summary['trivial']}, min margin {summary['min_margin']})")
        _emit(table, cfg, "weak_holder")
        return 0 if summary["passes"] == summary["instances"] else 1
    if args.command == "epsilon-check":
        if cfg.domain is None:
            raise ValueError("epsilon-check needs --domain")
        cert = epsilon_falsifier(cfg.domain, args.eps, args.samples, seed=cfg.seed)
        print(cert.to_json())
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())

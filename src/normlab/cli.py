"""Command-line experiment harness.

Subcommands mirror the experiment runners; ``verify`` runs the acceptance
suite and exits nonzero on any failure.  Identical config + seed yields
byte-identical CSV/JSON output.
"""

from __future__ import annotations

import argparse
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


def _emit(table: RatioTable, cfg: ExperimentConfig, name: str, plot: bool) -> int:
    paths = emit_report(table, cfg.outdir, name, cfg.formats, plot_script=plot)
    for p in paths:
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="normlab",
                                 description="function-space norm and functional laboratory")
    ap.add_argument("--config", help="INI experiment config")
    ap.add_argument("--out", help="output directory", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--grid", help="grid spec, e.g. n=1,L=8,N=4096")
    ap.add_argument("--plot-script", action="store_true", help="emit a plot helper script")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--fn", action="append", help="test function spec (repeatable)")
        sp.add_argument("--space", action="append", help="space spec (repeatable)")
        sp.add_argument("--domain", help="domain spec")
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--gamma", type=float, action="append")
        sp.add_argument("--no-refine", action="store_true")
        return sp

    add("norm", help="evaluate norms for functions x spaces")
    add("bbm", help="scaled fractional seminorm limit vs gradient norm")
    add("bsvy", help="level-set functional sup vs gradient norm")
    sp = add("maximal", help="maximal-function table for test functions")
    sp = add("apconst", help="Muckenhoupt constants")
    sp.add_argument("--weight", action="append", required=False,
                    help="weight spec power:a=...,center=...")
    sp = add("morrey-duality", help="Morrey norm vs maximal-weighted cube suprema")
    sp.add_argument("--theta", type=float, default=None)
    sp = add("weak-holder", help="random weak-Hoelder property suite")
    sp.add_argument("--instances", type=int, default=100)
    sp = add("epsilon-check", help="uniform-domain curve-condition falsifier")
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--samples", type=int, default=1000)
    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--criteria", nargs="*", help="subset of criterion numbers")

    args = ap.parse_args(argv)
    try:
        code = _verify(args.criteria) if args.command == "verify" else _run_reporting_errors(args)
        sys.stdout.flush()  # a closed pipe fails here, inside the try, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _verify(criteria) -> int:
    from .acceptance import CRITERIA, run_acceptance

    unknown = [k for k in criteria or () if k not in CRITERIA]
    if unknown:
        print(f"unknown criteria {unknown}; known: {sorted(CRITERIA)}", file=sys.stderr)
        return 2
    results = run_acceptance(criteria or None)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def _run_reporting_errors(args) -> int:
    """Run a subcommand; bad input, or arithmetic that extreme input overflows, ends in one
    line on stderr and exit code 2."""
    try:
        return _run(args, _base_config(args))
    except (ValueError, ArithmeticError) as exc:
        print(f"normlab: error: {exc}", file=sys.stderr)
        return 2


def _run(args, cfg: ExperimentConfig) -> int:
    if args.command == "norm":
        return _emit(run_norm_table(cfg), cfg, "norms", args.plot_script)
    if args.command == "bbm":
        return _emit(run_bbm_experiment(cfg), cfg, "bbm", args.plot_script)
    if args.command == "bsvy":
        table, summary = run_bsvy_experiment(cfg)
        for key, agg in summary.items():
            print(f"{key}: bracket [{agg['c1']:.4g}, {agg['c2']:.4g}] width {agg['width']:.3g}")
        return _emit(table, cfg, "bsvy", args.plot_script)
    if args.command == "maximal":
        return _emit(run_maximal_table(cfg), cfg, "maximal", args.plot_script)
    if args.command == "apconst":
        weights = args.weight or ["power:a=-0.5,center=0.0"]
        return _emit(run_apconst_table(cfg, weights), cfg, "apconst", args.plot_script)
    if args.command == "morrey-duality":
        return _emit(run_morrey_duality_check(cfg, theta=args.theta), cfg,
                     "morrey_duality", args.plot_script)
    if args.command == "weak-holder":
        if len(args.gamma or ()) > 1:
            raise ValueError("weak-holder takes one --gamma")
        summary, table = run_weak_holder_suite(cfg, instances=args.instances, gamma=(args.gamma or [1.0])[0])
        print(f"passes {summary['passes']}/{summary['instances']}"
              f" (trivial {summary['trivial']}, min margin {summary['min_margin']})")
        _emit(table, cfg, "weak_holder", args.plot_script)
        return 0 if summary["passes"] == summary["instances"] else 1
    if args.command == "epsilon-check":
        if cfg.domain is None:
            print("epsilon-check needs --domain", file=sys.stderr)
            return 2
        cert = epsilon_falsifier(cfg.domain, args.eps, args.samples, seed=cfg.seed)
        print(cert.to_json())
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: dataset generation, interval estimation, simulation."""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .dgp import DgpConfig, SETTINGS, generate, load_dataset, make_beta, save_dataset
from .harness import (METHODS, ExperimentConfig, bounds, check_options,
                      default_alpha, observe, run_experiment)
from .inference import SIDE_ONE, SIDE_TWO, StatConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martingale-ci",
        description=("Variable selection and post-selection confidence "
                     "intervals for high-dimensional time-series regression."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The interval options that ``ci`` and ``simulate`` share.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", type=float, default=None,
                        help="tail mass; default 0.2 one-sided, 0.1 two-sided "
                             "(80%% nominal either way)")
    shared.add_argument("--side", choices=(SIDE_ONE, SIDE_TWO), default=StatConfig.side)
    shared.add_argument("--q", type=int, default=StatConfig.q, help="HAC lag truncation")
    shared.add_argument("--B", type=int, default=ExperimentConfig.B,
                        help="number of resamples")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--kmax", type=int, default=StatConfig.kmax,
                        help="maximum number of factors scored")

    p_dgp = sub.add_parser("dgp", help="generate a synthetic dataset as CSV")
    p_dgp.add_argument("--setting", required=True, choices=SETTINGS)
    p_dgp.add_argument("--n", type=int, required=True)
    p_dgp.add_argument("--p", type=int, required=True)
    p_dgp.add_argument("--seed", type=int, required=True)
    p_dgp.add_argument("--out", type=Path, required=True)

    p_ci = sub.add_parser("ci", parents=[shared],
                          help="confidence bounds for selected coefficients")
    p_ci.add_argument("--in", dest="input", type=Path, required=True,
                      help="dataset CSV with header y,x1,...,xp")
    p_ci.add_argument("--method", required=True, choices=METHODS)
    p_ci.add_argument("--sigma", type=float, default=None,
                      help="noise sd for the ps method (estimated if omitted)")
    p_ci.add_argument("--out", type=Path, required=True)

    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="Monte-Carlo coverage experiment")
    p_sim.add_argument("--setting", required=True, choices=SETTINGS)
    p_sim.add_argument("--n", type=int, required=True, action="append",
                       help="sample size (repeat with --p for several cells)")
    p_sim.add_argument("--p", type=int, required=True, action="append")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--methods", default=",".join(METHODS))
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes")
    p_sim.add_argument("--out", type=Path, required=True)
    return parser


def _check_out_dir(out: Path) -> None:
    if not out.parent.is_dir():
        raise ValueError(f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise ValueError(f"--out {out} is a directory, not a file")


def _cmd_dgp(args: argparse.Namespace) -> int:
    try:
        cfg = DgpConfig(setting=args.setting, n=args.n, p=args.p, seed=args.seed)
        beta = make_beta(args.p)
        _check_out_dir(args.out)
    except ValueError as exc:
        print(f"dgp: {exc}", file=sys.stderr)
        return 2
    ds = generate(cfg, beta)
    sidecar = save_dataset(ds, args.out)
    print(f"wrote {args.out} and {sidecar}")
    return 0


def _cmd_ci(args: argparse.Namespace) -> int:
    if args.alpha is None:
        args.alpha = default_alpha(args.side)
    methods = (args.method,)
    cfg = StatConfig(kmax=args.kmax, q=args.q, side=args.side)
    try:
        check_options(methods, args.side, args.alpha, args.B, args.kmax,
                      args.q, args.seed, args.sigma)
        _check_out_dir(args.out)
        ds = load_dataset(args.input)
        _, rows = bounds(ds, observe(ds, methods, cfg), methods, cfg, args.alpha,
                         args.B, args.seed, args.sigma)
    except (OSError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"ci: {exc}", file=sys.stderr)
        return 2

    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "method", "lower", "upper", "selected_order",
                         "flags"])
        writer.writerows([j + 1, method, lower, upper, order, flags]
                         for order, (j, method, lower, upper, flags)
                         in enumerate(rows, start=1))
    print(f"wrote {args.out} ({len(rows)} selected coefficients)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if len(args.n) != len(args.p):
        print("simulate: need as many --n as --p", file=sys.stderr)
        return 2
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        cfg = ExperimentConfig(
            setting=args.setting,
            sizes=tuple(zip(args.n, args.p)),
            reps=args.reps,
            B=args.B,
            alpha=args.alpha,
            kmax=args.kmax,
            q=args.q,
            methods=methods,
            side=args.side,
            seed=args.seed,
            out_dir=args.out,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    reports = run_experiment(cfg)
    for rep in reports:
        line = (f"{rep.setting} (n={rep.n}, p={rep.p}): reps={rep.reps} "
                f"failed={rep.failed} amse={rep.amse:.4f}")
        if rep.methods:
            line += " overall CR=" + ", ".join(
                f"{m}={rep.overall_cr[m]:.3f}" for m in rep.methods
                if not math.isnan(rep.overall_cr[m]))
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "dgp":
        return _cmd_dgp(args)
    if args.command == "ci":
        return _cmd_ci(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())

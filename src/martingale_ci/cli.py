"""Command-line interface: dataset generation, interval estimation, simulation."""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .dgp import DgpConfig, SETTINGS, generate, load_dataset, make_beta, save_dataset
from .harness import (METHODS, ExperimentConfig, check_options, interval,
                      run_experiment)
from .hybrid import StatisticEngine
from .inference import SIDE_ONE, SIDE_TWO, StatConfig
from .resampler import generate_w


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martingale-ci",
        description=("Variable selection and post-selection confidence "
                     "intervals for high-dimensional time-series regression."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dgp = sub.add_parser("dgp", help="generate a synthetic dataset as CSV")
    p_dgp.add_argument("--setting", required=True, choices=SETTINGS)
    p_dgp.add_argument("--n", type=int, required=True)
    p_dgp.add_argument("--p", type=int, required=True)
    p_dgp.add_argument("--seed", type=int, required=True)
    p_dgp.add_argument("--out", type=Path, required=True)

    p_ci = sub.add_parser("ci", help="confidence bounds for selected coefficients")
    p_ci.add_argument("--in", dest="input", type=Path, required=True,
                      help="dataset CSV with header y,x1,...,xp")
    p_ci.add_argument("--alpha", type=float, default=None,
                      help="tail mass; default 0.2 one-sided, 0.1 two-sided "
                           "(80%% nominal either way)")
    p_ci.add_argument("--method", required=True, choices=METHODS)
    p_ci.add_argument("--side", choices=(SIDE_ONE, SIDE_TWO), default=SIDE_ONE)
    p_ci.add_argument("--q", type=int, default=1, help="HAC lag truncation")
    p_ci.add_argument("--B", type=int, default=50, help="number of resamples")
    p_ci.add_argument("--seed", type=int, default=0)
    p_ci.add_argument("--kmax", type=int, default=5,
                      help="maximum number of factors scored")
    p_ci.add_argument("--sigma", type=float, default=None,
                      help="noise sd for the ps method (estimated if omitted)")
    p_ci.add_argument("--out", type=Path, required=True)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo coverage experiment")
    p_sim.add_argument("--setting", required=True, choices=SETTINGS)
    p_sim.add_argument("--n", type=int, required=True, action="append",
                       help="sample size (repeat with --p for several cells)")
    p_sim.add_argument("--p", type=int, required=True, action="append")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--B", type=int, default=50)
    p_sim.add_argument("--alpha", type=float, default=None,
                       help="tail mass; default 0.2 one-sided, 0.1 two-sided")
    p_sim.add_argument("--methods", default="t,iv,ps,hr")
    p_sim.add_argument("--side", choices=(SIDE_ONE, SIDE_TWO), default=SIDE_ONE)
    p_sim.add_argument("--q", type=int, default=1)
    p_sim.add_argument("--kmax", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1,
                       help=f"worker processes (env MARTINGALE_CI_WORKERS overrides)")
    p_sim.add_argument("--out", type=Path, required=True)
    return parser


def _cmd_dgp(args: argparse.Namespace) -> int:
    cfg = DgpConfig(setting=args.setting, n=args.n, p=args.p, seed=args.seed)
    ds = generate(cfg, make_beta(args.p))
    sidecar = save_dataset(ds, args.out)
    print(f"wrote {args.out} and {sidecar}")
    return 0


def _estimate_sigma(X: np.ndarray, Y: np.ndarray, j_hat: np.ndarray) -> float:
    X_J = X[:, j_hat]
    beta, *_ = np.linalg.lstsq(X_J, Y, rcond=None)
    dof = max(1, X.shape[0] - len(j_hat))
    return float(np.sqrt(np.sum((Y - X_J @ beta) ** 2) / dof))


def _default_alpha(args: argparse.Namespace) -> float:
    if args.alpha is not None:
        return args.alpha
    return 0.2 if args.side == SIDE_ONE else 0.1


def _cmd_ci(args: argparse.Namespace) -> int:
    args.alpha = _default_alpha(args)
    try:
        check_options((args.method,), args.side, args.alpha, args.B, args.kmax,
                      args.q, args.sigma)
    except ValueError as exc:
        print(f"ci: {exc}", file=sys.stderr)
        return 2
    ds = load_dataset(args.input)
    try:
        engine = StatisticEngine(ds.X, StatConfig(kmax=args.kmax, q=args.q,
                                                  side=args.side))
        fit = engine.fit(ds.Y)
        j_hat = fit.selection.j_hat
        rs = None
        if args.method == "hr" and len(j_hat):
            rs = generate_w(ds, j_hat, engine.factors.F_hat, args.B,
                            np.random.SeedSequence(args.seed), kmax=args.kmax)
    except np.linalg.LinAlgError as exc:
        print(f"ci: {exc}", file=sys.stderr)
        return 2
    sigma_ps = args.sigma
    if args.method == "ps" and sigma_ps is None and len(j_hat):
        sigma_ps = _estimate_sigma(ds.X, ds.Y, j_hat)

    rows = []
    for order, j in enumerate(j_hat, start=1):
        lower, upper, flags = interval(args.method, int(j), ds, engine, fit,
                                       args.alpha, rs, sigma_ps)
        rows.append([int(j) + 1, args.method, lower, upper, order, flags])
    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "method", "lower", "upper", "selected_order",
                         "flags"])
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} selected coefficients)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if len(args.n) != len(args.p):
        print("simulate: need as many --n as --p", file=sys.stderr)
        return 2
    args.alpha = _default_alpha(args)
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
        print(f"{rep.setting} (n={rep.n}, p={rep.p}): reps={rep.reps} "
              f"failed={rep.failed} amse={rep.amse:.4f} overall CR="
              + ", ".join(f"{m}={rep.overall_cr[m]:.3f}" for m in rep.methods
                          if not math.isnan(rep.overall_cr[m])))
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

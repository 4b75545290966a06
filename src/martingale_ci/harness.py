"""Monte-Carlo experiment driver, metrics, and table emission.

Replications are independent tasks keyed by (master seed, replication
index); their per-interval results land in a line-per-record CSV store so
interrupted experiments resume by computing only the missing indices.
Aggregation is a pure second pass over the store, producing coverage
tables (per signal-strength group) and an estimation-error table across
problem sizes.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .dgp import Dataset, DgpConfig, generate, make_beta
from .hybrid import (MIN_RESAMPLES, StatisticEngine, hybrid_ci_one_sided,
                     hybrid_ci_two_sided)
from .inference import SIDE_ONE, PipelineFit, StatConfig, iv_interval, t_interval
from .ps import InfeasibleTruncationError, ps_interval
from .resampler import ResampleSet, combined_estimate, generate_w

WORKERS_ENV_VAR = "MARTINGALE_CI_WORKERS"
SIGNAL_GROUPS = (0.6, 0.4, 0.2, 0.1)
# Nonzero-count per signal strength in the canonical coefficient vector.
GROUP_SIZES = {0.6: 2, 0.4: 1, 0.2: 3, 0.1: 4}
# Known error scale for the post-selection baseline: unit-variance noise
# everywhere except the GARCH setting, whose stationary sd is 0.5.
PS_SIGMA = {"LAI": 1.0, "GARCH": 0.5, "AR": 1.0, "IID": 1.0, "MVN": 1.0}

METHODS = ("t", "iv", "ps", "hr")
RECORD_COLUMNS = ("kind", "rep", "j", "beta_true", "method", "lb", "ub", "m",
                  "amse", "flags")


def check_options(methods: tuple[str, ...], side: str, alpha: float, B: int,
                  kmax: int, q: int, ps_sigma: float | None = None) -> None:
    """Raise ``ValueError`` naming the first option the methods cannot run with.

    The rules ``ci`` and ``simulate`` share, in the command-line flags'
    names; ``ps_sigma`` is a given noise scale for ``ps`` (None when it is
    estimated or fixed per setting).
    """
    bad = set(methods) - set(METHODS)
    if bad:
        raise ValueError(f"unknown methods: {sorted(bad)}")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"--alpha must be in (0, 0.5), got {alpha}")
    if kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {kmax}")
    if q < 0:
        raise ValueError(f"--q must be >= 0, got {q}")
    if side != SIDE_ONE and "ps" in methods:
        raise ValueError("the ps method provides one-sided bounds only")
    if "hr" in methods and B < MIN_RESAMPLES:
        raise ValueError(f"the hr method needs --B >= {MIN_RESAMPLES}, got {B}")
    if ps_sigma is not None and not ps_sigma > 0.0:
        raise ValueError(f"--sigma must be positive, got {ps_sigma}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation experiment: a setting crossed with problem sizes."""

    setting: str
    sizes: tuple[tuple[int, int], ...]
    reps: int
    B: int = 50
    alpha: float = 0.2
    kmax: int = 5
    q: int = 1
    methods: tuple[str, ...] = METHODS
    side: str = SIDE_ONE
    seed: int = 0
    out_dir: Path | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        check_options(self.methods, self.side, self.alpha, self.B, self.kmax,
                      self.q)


@dataclass
class MetricsReport:
    """Aggregated per-group metrics for one (setting, n, p) cell."""

    setting: str
    n: int
    p: int
    reps: int
    methods: tuple[str, ...]
    ns: dict[float, float]
    cr: dict[str, dict[float, float]]
    mlb: dict[str, dict[float, float]]
    slb: dict[str, dict[float, float]]
    overall_cr: dict[str, float]
    amse: float
    degenerate: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    failed: int = 0  # replications flagged failed:<Exception>, in reps too


def derive_dataset_seed(master: int, rep: int) -> int:
    """64-bit dataset seed for one replication of one experiment."""
    return int(np.random.SeedSequence([master, rep]).generate_state(1, np.uint64)[0])


def interval(method: str, j: int, ds: Dataset, engine: StatisticEngine,
             fit: PipelineFit, alpha: float, rs: ResampleSet | None = None,
             ps_sigma: float | None = None) -> tuple[float, float, str]:
    """``(lower, upper, flags)`` of one method's bound on selected column j.

    The side is the engine's and ``fit`` is ``engine.fit(ds.Y)``; ``hr``
    needs the resample set ``rs`` and ``ps`` the noise scale ``ps_sigma``.
    Flags: ``failed:<Exception>`` (bounds nan, inf), ``nonconverged``,
    ``fallback`` (normal quantiles somewhere on the grid), or ``ok``.
    """
    side = engine.cfg.side
    try:
        if method == "t":
            rep = t_interval(ds.X, ds.Y, fit.j_hat, j, alpha, side)
        elif method == "iv":
            rep = iv_interval(fit.estimate, fit.cov, j, alpha, side)
        elif method == "ps":
            rep = ps_interval(ds.X, ds.Y, fit.selection, j, alpha, ps_sigma)
        elif method != "hr":
            raise ValueError(f"unknown method {method!r}")
        else:
            bound = hybrid_ci_one_sided if side == SIDE_ONE else hybrid_ci_two_sided
            rep = bound(engine, fit, j, rs, alpha)
    except (InfeasibleTruncationError, np.linalg.LinAlgError) as exc:
        return math.nan, math.inf, f"failed:{type(exc).__name__}"
    flags = "ok"
    if not rep.diagnostics.get("converged", True):
        flags = "nonconverged"
    elif rep.diagnostics.get("fallbacks", 0):
        flags = "fallback"
    return rep.lower, rep.upper, flags


def run_replication(
    setting: str,
    n: int,
    p: int,
    master_seed: int,
    rep: int,
    B: int,
    alpha: float,
    kmax: int,
    q: int,
    methods: tuple[str, ...],
    side: str = SIDE_ONE,
) -> dict:
    """One full replication: dataset, selection, estimates, all intervals.

    Failures of a single method for a single coefficient are recorded in
    that row's flags; they never abort the replication. A ``LinAlgError``
    in the observed fit or the resampling gives a replication with no
    intervals, flagged ``failed:<Exception>``.
    """
    beta = make_beta(p)
    cfg = DgpConfig(setting=setting, n=n, p=p,
                    seed=derive_dataset_seed(master_seed, rep))
    ds = generate(cfg, beta)

    out = {"rep": rep, "m": "", "amse": math.nan, "flags": "ok", "intervals": []}
    try:
        engine = StatisticEngine(ds.X, StatConfig(kmax=kmax, q=q, side=side))
        fit = engine.fit(ds.Y)
        j_hat = fit.selection.j_hat
        out["m"] = int(len(j_hat))
        if len(j_hat) == 0:
            out["flags"] = "degenerate"
            return out
        # hr's resample set carries the combined estimate the amse needs.
        rs = (generate_w(ds, j_hat, engine.factors.F_hat, B,
                         np.random.SeedSequence([master_seed, rep, 1]), kmax=kmax)
              if "hr" in methods else None)
        beta_comb = (combined_estimate(ds, j_hat, kmax=kmax)[0] if rs is None
                     else rs.beta_tilde)
    except np.linalg.LinAlgError as exc:
        out["flags"] = f"failed:{type(exc).__name__}"
        return out
    err = beta_comb - beta.values[j_hat]
    out["amse"] = float(np.sqrt(np.mean(err**2)))
    if not np.any(beta_comb != 0.0):
        out["flags"] = "degenerate"

    for j in j_hat:
        j = int(j)
        for method in methods:
            lb, ub, flags = interval(method, j, ds, engine, fit, alpha, rs,
                                     PS_SIGMA[setting])
            out["intervals"].append((j, float(beta.values[j]), method, lb, ub,
                                     flags))
    return out


def _run_task(payload: tuple) -> dict:
    return run_replication(*payload)


def _format_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def _records_from_result(result: dict) -> list[dict]:
    rows = []
    for (j, bt, method, lb, ub, flags) in result["intervals"]:
        rows.append({"kind": "interval", "rep": result["rep"], "j": j + 1,
                     "beta_true": bt, "method": method, "lb": lb, "ub": ub,
                     "m": "", "amse": "", "flags": flags})
    rows.append({"kind": "rep", "rep": result["rep"], "j": "", "beta_true": "",
                 "method": "", "lb": "", "ub": "", "m": result["m"],
                 "amse": result["amse"], "flags": result["flags"]})
    return rows


def load_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def completed_reps(records: list[dict]) -> set[int]:
    return {int(r["rep"]) for r in records if r["kind"] == "rep"}


def _append_records(path: Path, rows: list[dict], write_header: bool) -> None:
    mode = "w" if write_header else "a"
    with path.open(mode, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_COLUMNS)
        if write_header:
            writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("beta_true", "lb", "ub", "amse"):
                if isinstance(out[key], float):
                    out[key] = _format_float(out[key])
            writer.writerow(out)


def _worker_count(cfg: ExperimentConfig) -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return max(1, cfg.workers)


def _pin_blas_threads() -> None:
    # Children inherit these and read them at their own numpy import, which
    # keeps every replication single-BLAS-threaded regardless of pool size.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def ensure_records(cfg: ExperimentConfig, n: int, p: int, path: Path) -> list[dict]:
    """Compute any replications missing from the record store at ``path``.

    Returns the rows of replications ``0 .. cfg.reps - 1`` only. A store
    shared with a larger experiment keeps its higher replications on disk,
    but they are not handed on, so the aggregate covers exactly the
    replications this configuration asks for.
    """
    existing = load_records(path)
    done = completed_reps(existing)
    missing = [r for r in range(cfg.reps) if r not in done]
    if missing:
        payloads = [(cfg.setting, n, p, cfg.seed, r, cfg.B, cfg.alpha,
                     cfg.kmax, cfg.q, tuple(cfg.methods), cfg.side)
                    for r in missing]
        workers = _worker_count(cfg)
        _pin_blas_threads()
        results: dict[int, dict] = {}
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=get_context("spawn")) as pool:
            for res in pool.map(_run_task, payloads):
                results[res["rep"]] = res

        new_rows: list[dict] = []
        for r in sorted(results):
            new_rows.extend(_records_from_result(results[r]))
        # The header depends on what the file holds, not on which of its
        # rows this configuration reads back.
        _append_records(path, new_rows, write_header=not existing)
        existing = existing + new_rows
    return [row for row in existing if int(row["rep"]) < cfg.reps]


def aggregate(records: list[dict], setting: str, n: int, p: int,
              methods: tuple[str, ...]) -> MetricsReport:
    """Coverage, bound moments, selection counts, and estimation error."""
    if not records:
        raise ValueError("no records to aggregate")
    interval_rows = [r for r in records if r["kind"] == "interval"]
    rep_rows = [r for r in records if r["kind"] == "rep"]

    seen_pairs: set[tuple[int, int]] = set()
    group_pairs: dict[float, set[tuple[int, int]]] = {g: set() for g in SIGNAL_GROUPS}
    by_method_group: dict[str, dict[float, list[tuple[float, float]]]] = {
        m: {g: [] for g in SIGNAL_GROUPS} for m in methods
    }
    failures = {m: 0 for m in methods}

    for row in interval_rows:
        rep, j = int(row["rep"]), int(row["j"])
        bt = float(row["beta_true"])
        method = row["method"]
        if method not in by_method_group:
            continue
        group = next((g for g in SIGNAL_GROUPS if math.isclose(bt, g)), None)
        seen_pairs.add((rep, j))
        if group is None:
            continue
        group_pairs[group].add((rep, j))
        if row["flags"].startswith("failed") or row["lb"] == "":
            failures[method] += 1
            continue
        by_method_group[method][group].append((float(row["lb"]), bt))

    ns = {g: len(group_pairs[g]) / GROUP_SIZES[g] for g in SIGNAL_GROUPS}
    cr: dict[str, dict[float, float]] = {}
    mlb: dict[str, dict[float, float]] = {}
    slb: dict[str, dict[float, float]] = {}
    overall: dict[str, float] = {}
    for m in methods:
        cr[m], mlb[m], slb[m] = {}, {}, {}
        covered_total = 0
        count_total = 0
        for g in SIGNAL_GROUPS:
            vals = by_method_group[m][g]
            if not vals:
                cr[m][g] = math.nan
                mlb[m][g] = math.nan
                slb[m][g] = math.nan
                continue
            lbs = np.array([v[0] for v in vals])
            covered = int(np.sum(lbs <= g + 1e-12))
            cr[m][g] = covered / len(vals)
            with np.errstate(invalid="ignore"):
                mlb[m][g] = float(np.mean(lbs))
                slb[m][g] = float(np.std(lbs, ddof=1)) if len(lbs) > 1 else 0.0
            covered_total += covered
            count_total += len(vals)
        overall[m] = covered_total / count_total if count_total else math.nan

    amse_vals = [float(r["amse"]) for r in rep_rows if r["amse"] != ""]
    amse = float(np.mean(amse_vals)) if amse_vals else math.nan
    degenerate = sum(1 for r in rep_rows if r["flags"] == "degenerate")
    failed = sum(1 for r in rep_rows if r["flags"].startswith("failed"))
    return MetricsReport(setting=setting, n=n, p=p, reps=len(rep_rows),
                         methods=tuple(methods), ns=ns, cr=cr, mlb=mlb,
                         slb=slb, overall_cr=overall, amse=amse,
                         degenerate=degenerate, failures=failures,
                         failed=failed)


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return f"{x:.4f}"


def coverage_table_rows(report: MetricsReport) -> list[list[str]]:
    header = ["metric", "method"] + [f"{g}" for g in SIGNAL_GROUPS] + ["overall"]
    rows = [header]
    rows.append(["NS", ""] + [_fmt(report.ns[g]) for g in SIGNAL_GROUPS] + [""])
    for metric, table in (("CR", report.cr), ("mLB", report.mlb),
                          ("sLB", report.slb)):
        for m in report.methods:
            vals = [_fmt(table[m][g]) for g in SIGNAL_GROUPS]
            extra = _fmt(report.overall_cr[m]) if metric == "CR" else ""
            rows.append([metric, m] + vals + [extra])
    return rows


def _write_table(rows: list[list], stem: Path) -> list[Path]:
    """Write ``rows`` (header first) as ``<stem>.csv`` and ``<stem>.md``."""
    csv_path, md_path = stem.with_suffix(".csv"), stem.with_suffix(".md")
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with md_path.open("w") as fh:
        fh.write("| " + " | ".join(map(str, rows[0])) + " |\n")
        fh.write("|" + "---|" * len(rows[0]) + "\n")
        for row in rows[1:]:
            fh.write("| " + " | ".join(map(str, row)) + " |\n")
    return [csv_path, md_path]


def emit_tables(reports: list[MetricsReport], out_dir: Path) -> list[Path]:
    """Write per-cell coverage tables and one estimation-error table.

    Inputs are sorted internally, so the emitted bytes depend only on the
    aggregated values, never on worker scheduling.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    reports = sorted(reports, key=lambda r: (r.setting, r.n, r.p))
    for rep in reports:
        written += _write_table(coverage_table_rows(rep),
                                out_dir / f"coverage_{rep.setting}_n{rep.n}_p{rep.p}")
    if reports:
        rows = [["setting", "n", "p", "reps", "failed", "amse"]]
        rows += [[rep.setting, rep.n, rep.p, rep.reps, rep.failed, _fmt(rep.amse)]
                 for rep in reports]
        written += _write_table(rows, out_dir / f"amse_{reports[0].setting}")
    return written


def run_experiment(cfg: ExperimentConfig) -> list[MetricsReport]:
    """Run (or resume) every cell of an experiment and emit its tables."""
    out_dir = Path(cfg.out_dir) if cfg.out_dir else Path("martingale_ci_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for (n, p) in cfg.sizes:
        store = out_dir / f"records_{cfg.setting}_n{n}_p{p}.csv"
        records = ensure_records(cfg, n, p, store)
        reports.append(aggregate(records, cfg.setting, n, p, cfg.methods))
    emit_tables(reports, out_dir)
    return reports

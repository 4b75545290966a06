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
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .dgp import Dataset, DgpConfig, generate, make_beta
from .hybrid import (MIN_RESAMPLES, StatisticEngine, hybrid_ci_one_sided,
                     hybrid_ci_two_sided)
from .inference import (SIDE_ONE, SIDE_TWO, PipelineFit, StatConfig, iv_interval,
                        selected_ols, t_interval)
from .oga import SelectionResult, oga_hdbic
from .ps import InfeasibleTruncationError, ps_interval
from .resampler import ResampleSet, combined_estimate, generate_w, halves

log = logging.getLogger(__name__)

SIGNAL_GROUPS = (0.6, 0.4, 0.2, 0.1)
# Nonzero-count per signal strength in the canonical coefficient vector.
GROUP_SIZES = {g: int(np.count_nonzero(make_beta(10) == g)) for g in SIGNAL_GROUPS}
# Known error scale for the post-selection baseline: unit-variance noise
# everywhere except the GARCH setting, whose stationary sd is 0.5.
PS_SIGMA = {"LAI": 1.0, "GARCH": 0.5, "AR": 1.0, "IID": 1.0, "MVN": 1.0}

METHODS = ("t", "iv", "ps", "hr")
RECORD_COLUMNS = ("kind", "rep", "j", "beta_true", "method", "lb", "ub", "m",
                  "amse", "flags")


def check_options(methods: tuple[str, ...], side: str, alpha: float, B: int,
                  kmax: int, q: int, seed: int,
                  ps_sigma: float | None = None) -> None:
    """Raise ``ValueError`` naming the first option the methods cannot run with.

    The rules ``ci`` and ``simulate`` share, in the command-line flags'
    names; ``ps_sigma`` is a given noise scale, which only ``ps`` reads
    (None when it is estimated or fixed per setting).
    """
    bad = set(methods) - set(METHODS)
    if bad:
        raise ValueError(f"unknown methods: {sorted(bad)}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"repeated methods: {repeated}")
    if side not in (SIDE_ONE, SIDE_TWO):
        raise ValueError(f"--side must be {SIDE_ONE!r} or {SIDE_TWO!r}, got {side!r}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
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
    if ps_sigma is not None and "ps" not in methods:
        raise ValueError("--sigma is read by the ps method only")
    if ps_sigma is not None and not ps_sigma > 0.0:
        raise ValueError(f"--sigma must be positive, got {ps_sigma}")


def default_alpha(side: str) -> float:
    """Tail mass when none is given: 80% nominal coverage on either side."""
    return 0.2 if side == SIDE_ONE else 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation experiment: a setting crossed with problem sizes.

    Tables and record stores go to ``out_dir``, which is made if missing
    but must not be, or lie under, a file; ``alpha`` None means
    :func:`default_alpha` of the side.
    """

    setting: str
    sizes: tuple[tuple[int, int], ...]
    reps: int
    out_dir: Path
    B: int = 50
    alpha: float | None = None
    kmax: int = StatConfig.kmax
    q: int = StatConfig.q
    methods: tuple[str, ...] = METHODS
    side: str = StatConfig.side
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.alpha is None:
            object.__setattr__(self, "alpha", default_alpha(self.side))
        check_options(self.methods, self.side, self.alpha, self.B, self.kmax,
                      self.q, self.seed)
        repeated = sorted({size for size in self.sizes if self.sizes.count(size) > 1})
        if repeated:
            raise ValueError(f"repeated sizes (n, p): {repeated}")
        for n, p in self.sizes:
            DgpConfig(setting=self.setting, n=n, p=p, seed=self.seed)
            make_beta(p)
            halves(n)  # every replication splits the sample for its amse (and hr)
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(
                f"--workers must be a positive integer, got {self.workers!r}")
        out = Path(self.out_dir)
        taken = next(d for d in (out, *out.parents) if d.exists())
        if not taken.is_dir():
            raise ValueError(f"--out {out} is not a directory" if taken == out
                             else f"--out {out}: {taken} is not a directory")


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
    failed: int = 0  # replications flagged failed:<Exception>, in reps too


def derive_dataset_seed(master: int, rep: int) -> int:
    """64-bit dataset seed for one replication of one experiment."""
    return int(np.random.SeedSequence([master, rep]).generate_state(1, np.uint64)[0])


def observe(ds: Dataset, methods: tuple[str, ...], cfg: StatConfig) -> tuple:
    """``(selection, engine, fit)`` of ``ds``: the engine and its observed fit
    only when ``iv`` or ``hr`` reads them, else None and ``oga_hdbic``'s
    selection, the one ``engine.fit`` makes."""
    if not {"iv", "hr"} & set(methods):
        return oga_hdbic(ds.X, ds.Y), None, None
    engine = StatisticEngine(ds.X, cfg)
    fit = engine.fit(ds.Y)
    return fit.selection, engine, fit


def bounds(ds: Dataset, observed: tuple, methods: tuple[str, ...], cfg: StatConfig,
           alpha: float, B: int, seed, ps_sigma: float | None = None) -> tuple:
    """The resample set and ``(j, method, lower, upper, flags)`` of every
    selected column and method, for ``observed`` as :func:`observe` gives it.
    ``hr`` resamples B disturbances from ``seed``; ``ps`` without a given
    ``ps_sigma`` takes the residual scale of the fit on the selected columns.
    """
    selection, engine, _ = observed
    j_hat, rs = selection.j_hat, None
    if "hr" in methods and len(j_hat):
        rs = generate_w(ds, j_hat, engine.factors.F_hat, B, seed, kmax=cfg.kmax)
    if "ps" in methods and ps_sigma is None and len(j_hat):
        ps_sigma = selected_ols(ds.X, ds.Y, j_hat)[1]
    return rs, [(j, m, *interval(m, j, ds, *observed, cfg.side, alpha, rs, ps_sigma))
                for j in map(int, j_hat) for m in methods]


def interval(method: str, j: int, ds: Dataset, selection: SelectionResult,
             engine: StatisticEngine | None, fit: PipelineFit | None, side: str,
             alpha: float, rs: ResampleSet | None = None,
             ps_sigma: float | None = None) -> tuple[float, float, str]:
    """``(lower, upper, flags)`` of one method's bound on selected column j.

    ``iv`` reads the observed ``fit``, ``hr`` also its engine and the
    resample set ``rs``, ``ps`` the noise scale ``ps_sigma``.
    Flags: ``failed:<Exception>`` (bounds nan, inf), ``nonconverged``,
    ``empty`` (no grid point accepted), ``clipped`` (a grid end accepted),
    ``fallback`` (normal quantiles at some grid point or refinement
    midpoint), or ``ok``.
    """
    try:
        if method == "t":
            rep = t_interval(ds.X, ds.Y, selection.j_hat, j, alpha, side)
        elif method == "iv":
            rep = iv_interval(fit, j, alpha, side)
        elif method == "ps":
            rep = ps_interval(ds.X, ds.Y, selection, j, alpha, ps_sigma)
        elif method != "hr":
            raise ValueError(f"unknown method {method!r}")
        else:
            bound = hybrid_ci_one_sided if side == SIDE_ONE else hybrid_ci_two_sided
            rep = bound(engine, fit, j, rs, alpha)
    except (InfeasibleTruncationError, np.linalg.LinAlgError) as exc:
        return math.nan, math.inf, f"failed:{type(exc).__name__}"
    diag = rep.diagnostics
    flags = "ok"
    if not diag.get("converged", True):
        flags = "nonconverged"
    elif diag.get("empty_region"):
        flags = "empty"
    elif diag.get("clipped_low") or diag.get("clipped_high"):
        flags = "clipped"
    elif diag.get("fallbacks", 0):
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

    :func:`observe` and :func:`bounds`, as in ``ci``, with the setting's
    ``ps`` scale; no ``methods`` leaves the selection and the cross-fit
    behind ``amse``. A failure of one method on one coefficient flags its
    row. Any other exception gives a replication with no intervals and no
    ``amse``, flagged ``failed:<Exception>`` (``m`` empty when the selection
    did not finish); an invalid dataset configuration still raises.
    """
    beta = make_beta(p)
    cfg = DgpConfig(setting=setting, n=n, p=p,
                    seed=derive_dataset_seed(master_seed, rep))
    stat_cfg = StatConfig(kmax=kmax, q=q, side=side)

    out = {"rep": rep, "m": "", "amse": math.nan, "flags": "ok", "intervals": []}
    try:
        ds = generate(cfg, beta)
        observed = observe(ds, methods, stat_cfg)
        j_hat = observed[0].j_hat
        out["m"] = int(len(j_hat))
        if len(j_hat) == 0:
            out["flags"] = "degenerate"
            return out
        rs, rows = bounds(ds, observed, methods, stat_cfg, alpha, B,
                          np.random.SeedSequence([master_seed, rep, 1]),
                          PS_SIGMA[setting])
        # hr's resample set carries the combined estimate the amse needs.
        beta_comb = (combined_estimate(ds, j_hat, kmax=kmax)[0] if rs is None
                     else rs.beta_tilde)
        err = beta_comb - beta[j_hat]
        out["amse"] = float(np.sqrt(np.mean(err**2)))
        if not np.any(beta_comb != 0.0):
            out["flags"] = "degenerate"
        out["intervals"] = [(j, float(beta[j]), method, lb, ub, flags)
                            for j, method, lb, ub, flags in rows]
    except Exception as exc:
        # One replication is the unit of failure: the cell keeps running.
        log.exception("%s n=%d p=%d replication %d failed", setting, n, p, rep)
        out.update(amse=math.nan, flags=f"failed:{type(exc).__name__}",
                   intervals=[])
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
    """Rows of the replications the store at ``path`` holds in full.

    A run stopped mid-append can leave a last line without its line end,
    and interval rows after the last ``rep`` row (each replication's rows
    end with it). Both are dropped, and the store is cut back to the rows
    kept, so a rerun appends that replication once.
    """
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        lines = fh.readlines()
    whole = lines if lines and lines[-1].endswith("\n") else lines[:-1]
    rows = list(csv.DictReader(whole))
    done = max((i + 1 for i, row in enumerate(rows) if row["kind"] == "rep"),
               default=0)
    kept = whole[:done + 1]  # the header and the rows up to the last rep row
    if len(kept) < len(lines):
        with path.open("w", newline="") as fh:
            fh.writelines(kept)
    return rows[:done]


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


def _pin_blas_threads() -> None:
    # Children inherit these and read them at their own numpy import, which
    # keeps every replication single-BLAS-threaded regardless of pool size.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def ensure_records(cfg: ExperimentConfig, n: int, p: int, path: Path) -> list[dict]:
    """Compute any replications missing from the record store at ``path``.

    Each replication's rows are appended as soon as it finishes, in index
    order, so an interrupted run keeps every replication it completed and
    a rerun computes only the rest (:func:`load_records` drops one it cut
    off mid-append). Returns the rows of replications
    ``0 .. cfg.reps - 1`` as the store holds them. A store shared with a
    larger experiment keeps its higher replications on disk, but they are
    not handed on, so the aggregate covers exactly the replications this
    configuration asks for.
    """
    existing = load_records(path)
    done = completed_reps(existing)
    missing = [r for r in range(cfg.reps) if r not in done]
    if missing:
        payloads = [(cfg.setting, n, p, cfg.seed, r, cfg.B, cfg.alpha,
                     cfg.kmax, cfg.q, tuple(cfg.methods), cfg.side)
                    for r in missing]
        _pin_blas_threads()
        write_header = not existing
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 mp_context=get_context("spawn")) as pool:
            for res in pool.map(_run_task, payloads):
                _append_records(path, _records_from_result(res), write_header)
                write_header = False
        existing = load_records(path)
    return [row for row in existing if int(row["rep"]) < cfg.reps]


def aggregate(records: list[dict], setting: str, n: int, p: int,
              methods: tuple[str, ...]) -> MetricsReport:
    """Coverage, bound moments, selection counts, and estimation error.

    An interval covers when lb <= beta <= ub (one-sided rows have ub inf);
    ``amse`` averages the finite per-replication values.
    """
    if not records:
        raise ValueError("no records to aggregate")
    interval_rows = [r for r in records if r["kind"] == "interval"]
    rep_rows = [r for r in records if r["kind"] == "rep"]

    group_pairs: dict[float, set[tuple[int, int]]] = {g: set() for g in SIGNAL_GROUPS}
    by_method_group: dict[str, dict[float, list[tuple[float, float]]]] = {
        m: {g: [] for g in SIGNAL_GROUPS} for m in methods
    }

    for row in interval_rows:
        rep, j = int(row["rep"]), int(row["j"])
        bt = float(row["beta_true"])
        method = row["method"]
        if method not in by_method_group:
            continue
        group = next((g for g in SIGNAL_GROUPS if math.isclose(bt, g)), None)
        if group is None:
            continue
        group_pairs[group].add((rep, j))
        if row["flags"].startswith("failed") or "" in (row["lb"], row["ub"]):
            continue
        by_method_group[method][group].append((float(row["lb"]), float(row["ub"])))

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
            ubs = np.array([v[1] for v in vals])
            covered = int(np.sum((lbs <= g + 1e-12) & (g - 1e-12 <= ubs)))
            cr[m][g] = covered / len(vals)
            with np.errstate(invalid="ignore"):
                mlb[m][g] = float(np.mean(lbs))
                slb[m][g] = float(np.std(lbs, ddof=1)) if len(lbs) > 1 else 0.0
            covered_total += covered
            count_total += len(vals)
        overall[m] = covered_total / count_total if count_total else math.nan

    amse_vals = [float(r["amse"]) for r in rep_rows
                 if r["amse"] != "" and math.isfinite(float(r["amse"]))]
    amse = float(np.mean(amse_vals)) if amse_vals else math.nan
    failed = sum(1 for r in rep_rows if r["flags"].startswith("failed"))
    return MetricsReport(setting=setting, n=n, p=p, reps=len(rep_rows),
                         methods=tuple(methods), ns=ns, cr=cr, mlb=mlb,
                         slb=slb, overall_cr=overall, amse=amse,
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
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for (n, p) in cfg.sizes:
        store = out_dir / f"records_{cfg.setting}_n{n}_p{p}.csv"
        records = ensure_records(cfg, n, p, store)
        reports.append(aggregate(records, cfg.setting, n, p, cfg.methods))
    emit_tables(reports, out_dir)
    return reports

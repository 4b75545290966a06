"""Write ``reference/<workload>.csv`` for master seed 0.

Run once from the repository root, on the commit whose outputs become the
reference:

    python3 perfbench/make_reference.py [workload ...]

``lai400_one`` and ``lai800_amse`` copy their rows from the committed
acceptance cache (``tests/_acceptance_cache``), which was produced with the
same configuration; ``garch200_two`` has no cached cell, so its rows are
computed here. Every hr row also gets ``sigma``, the standard error of the
coefficient on the observed response, which sets the hr tolerance.
"""
from __future__ import annotations

import csv
import sys

import workloads

workloads.prepare_process()
mc = workloads.import_package()

from martingale_ci import harness  # noqa: E402
from martingale_ci.dgp import DgpConfig, generate, make_beta  # noqa: E402
from martingale_ci.hybrid import StatisticEngine  # noqa: E402
from martingale_ci.inference import StatConfig  # noqa: E402
from reference import COLUMNS  # noqa: E402

CACHE_CELLS = {
    "lai400_one": "lai_400x500_t-iv-ps-hr/records_LAI_n400_p500.csv",
    "lai800_amse": "lai_800x1000_amse/records_LAI_n800_p1000.csv",
}


def _sigmas(w: workloads.Workload, rep: int) -> dict[int, float]:
    """Observed standard error by 1-based column, as the hr bound uses it."""
    cfg = DgpConfig(setting=w.setting, n=w.n, p=w.p,
                    seed=harness.derive_dataset_seed(0, rep))
    ds = generate(cfg, make_beta(w.p))
    fit = StatisticEngine(ds.X, StatConfig(kmax=w.kmax, q=w.q, side=w.side)).fit(ds.Y)
    return {int(j) + 1: float(s) for j, s in zip(fit.j_hat, fit.sigma)}


def _rows(w: workloads.Workload) -> list[dict]:
    if w.name in CACHE_CELLS:
        path = workloads.ROOT / "tests" / "_acceptance_cache" / CACHE_CELLS[w.name]
        with path.open(newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["rep"]) in w.reps]
    else:
        rows = []
        for rep in w.reps:
            result = harness.run_replication(*w.replication_args(0, rep))
            rows.extend(harness._records_from_result(result))
    sigma_cache: dict[int, dict[int, float]] = {}
    out = []
    for row in rows:
        row = {key: row[key] for key in COLUMNS if key != "sigma"}
        row["sigma"] = ""
        if row["method"] == "hr":
            rep = int(row["rep"])
            if rep not in sigma_cache:
                sigma_cache[rep] = _sigmas(w, rep)
            row["sigma"] = sigma_cache[rep][int(row["j"])]
        for key in ("lb", "ub", "amse", "sigma"):
            if isinstance(row[key], float):
                row[key] = harness._format_float(row[key])
        out.append(row)
    return out


def main(names: list[str]) -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        rows = _rows(w)
        reps = {int(r["rep"]) for r in rows if r["kind"] == "rep"}
        if reps != set(w.reps):
            raise SystemExit(f"{name}: reference covers reps {sorted(reps)}")
        path = workloads.REFERENCE_DIR / f"{name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Coverage-experiment benchmark: replications per second, end to end and per layer.

    python3 perfbench/run.py --workload lai400_one --seed 1 --seconds 40 --trace 0

A closed loop with one client in one process: ``harness.run_replication``
runs for the workload's fixed replication list in the order ``--seed``
gives, each starting after the previous one finished, in whole passes
while the next pass would end within ``--seconds``; then
``harness.aggregate`` and ``harness.emit_tables`` run on the records
produced. BLAS is pinned to one thread, and the
process pool of ``harness.ensure_records`` is left out on purpose: on a
shared 2-core machine, wall-clock scaling would measure the scheduler.

Outputs are checked row by row against ``reference/`` (master seed 0
only). ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
every layer's public functions, runs exactly one pass and prints the
per-layer metrics. The last line of standard output is one JSON
object; a record of the run (environment, per-replication seconds, spans)
goes to ``out/``.
"""
from __future__ import annotations

import workloads

workloads.prepare_process()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

workloads.import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from martingale_ci import harness  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from summary import count_operations, tail  # noqa: E402

SETUP_REPEATS = 3
# A fresh interpreter imports the package and runs one small replication of
# the workload's kind, which is what a user pays before the first real one.
SETUP_PROBE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.prepare_process()
workloads.import_package()
from martingale_ci import harness
harness.run_replication(*workloads.warmup(workloads.WORKLOADS[sys.argv[2]]))
print(repr(time.perf_counter() - t))
"""


def environment() -> dict:
    """Where and on what the run happened."""
    commit = "unknown (not a git checkout)"
    if (workloads.ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "martingale_ci").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in workloads.BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_1min": os.getloadavg()[0],
    }


def measure_setup(w: workloads.Workload) -> list[float]:
    """Seconds to import and warm up, in ``SETUP_REPEATS`` fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(workloads.BENCH_DIR), w.name],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_passes(w, order, master_seed, seconds, tracer=None):
    """Run whole passes over ``order`` while the next one would end in time.

    At least one pass runs; another starts only if it would end within
    ``seconds``, judged by the mean pass so far. Returns ``(results,
    rep_seconds, wall, problems)``: per replication its index and what
    ``run_replication`` returned or raised, its seconds, the wall time
    through ``aggregate`` and ``emit_tables``, and what went wrong in those
    two.
    """
    results, rep_seconds = [], []
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for rep in order:
            if tracer is not None:
                tracer.rep = len(rep_seconds)
            t0 = time.perf_counter()
            try:
                res = harness.run_replication(*w.replication_args(master_seed, rep))
            except Exception as exc:  # a failed replication is counted, not fatal
                traceback.print_exc()
                res = exc
            rep_seconds.append(time.perf_counter() - t0)
            results.append((rep, res))
        passes += 1
    if tracer is not None:
        tracer.rep = None
    records = [row for _, res in results if isinstance(res, dict)
               for row in harness._records_from_result(res)]
    problems = []
    if records:
        report = harness.aggregate(records, w.setting, w.n, w.p, w.methods)
        with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as tables:
            written = harness.emit_tables([report], tables)
        rep_rows = sum(r["kind"] == "rep" for r in records)
        if report.reps != rep_rows or len(written) != 4:
            problems.append(f"aggregate counted {report.reps} of {rep_rows} replications; "
                            f"emit_tables wrote {len(written)} of 4 files")
    return results, rep_seconds, time.perf_counter() - start, problems


def traced_run(w, order, master_seed, seconds, record):
    """One pass with every layer wrapped, whatever ``seconds`` says.

    A fixed amount of work makes every count repeat exactly between runs.
    The pass's first replication then runs again under a fresh tracer, and
    any count that differs is reported as a problem. Returns the per-layer
    metrics.
    """
    tracer = Tracer()
    with tracer.patched(layers.targets()):
        results, rep_seconds, wall, notes = run_passes(w, order, master_seed, 0.0, tracer)
    recheck = Tracer()
    with recheck.patched(layers.targets()):
        recheck.rep = 0
        harness.run_replication(*w.replication_args(master_seed, order[0]))
    first = layers.exact_counts([s for s in tracer.spans if s.rep == 0])
    again = layers.exact_counts(recheck.spans)
    if first != again:
        notes.append(f"counts of replication {order[0]} differ between two runs: "
                     f"{sorted(set(first.items()) ^ set(again.items()))}")
    counts = layers.exact_counts(tracer.spans)
    units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in
               layers.layer_metrics(tracer.spans, counts, len(rep_seconds), wall).items()}
    record["counts"] = counts
    record["spans"] = [[s.name, s.start, s.end, s.parent, s.rep] for s in tracer.spans]
    return results, rep_seconds, wall, metrics, notes


def untraced_run(w, order, master_seed, seconds, record):
    """Time-bounded closed loop; returns the timing metrics."""
    setup = measure_setup(w)
    results, rep_seconds, wall, notes = run_passes(w, order, master_seed, seconds)
    record["setup_s"] = setup
    tail_s, pct, above = tail(rep_seconds)
    record["rep_s_tail"] = {"percentile": pct, "samples": len(rep_seconds), "above": above}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "reps_per_s": (len(rep_seconds) / wall, "1/s"),
        "rep_s_p50": (statistics.median(rep_seconds), "s"),
        "rep_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return results, rep_seconds, wall, metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes the workload's replication list")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--master-seed", type=int, default=0,
                    help="experiment seed of the datasets; only 0 has a reference")
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    workloads.OUT_DIR.mkdir(exist_ok=True)
    record: dict = {"args": vars(args), "env": environment()}

    ref_path = workloads.REFERENCE_DIR / f"{w.name}.csv"
    refs = reference.load(ref_path) if args.master_seed == 0 else None
    order = workloads.replication_order(w, args.seed)
    harness.run_replication(*workloads.warmup(w))
    run = traced_run if args.trace else untraced_run
    results, rep_seconds, wall, metrics, notes = run(
        w, order, args.master_seed, args.seconds, record)

    attempted = failed = 0
    for rep, res in results:
        a, f, problems = count_operations(res, None if refs is None else refs[rep])
        attempted += a
        failed += f
        notes.extend(problems)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "fraction")
    correct = not notes

    print(f"workload {w.name}: {w.setting} n={w.n} p={w.p} side={w.side} "
          f"methods={','.join(w.methods) or 'none (estimation error only)'} "
          f"alpha={w.alpha} B={w.B}; closed loop, 1 client, master seed {args.master_seed}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in record["env"].items()))
    if refs is None:
        print(f"reference check: skipped (no reference for master seed {args.master_seed})")
    else:
        print(f"reference check: {len(results)} replications against "
              f"{ref_path.relative_to(workloads.ROOT)}, {failed} failed operations")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "rep_s_tail":
            t = record["rep_s_tail"]
            extra = (f"  (p{t['percentile']:.0f} of {t['samples']} replications, "
                     f"{t['above']} above it)")
        print(f"  {name:<45} {value:.6g} {unit}{extra}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for note in notes[:20]:
        print(f"  problem: {note}")

    record.update({"replications": [rep for rep, _ in results], "rep_seconds": rep_seconds,
                   "wall_s": wall, "attempted": attempted, "failed": failed,
                   "problems": notes,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    out = workloads.OUT_DIR / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

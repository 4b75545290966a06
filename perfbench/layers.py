"""Which package functions the traced run wraps, and the per-layer metrics.

Each function is wrapped where it is looked up: ``hybrid`` imports
``oga_path_batch`` by name, so ``hybrid.oga_path_batch`` is patched, and
``harness`` imports ``generate_w``, so ``harness.generate_w`` is patched.
Nothing under ``src/`` changes.
"""
from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import numpy as np

from spans import Span, self_times

# (metric, unit, better, which end-to-end metric it should move, where).
LAYER_METRICS = (
    ("oga.oga_path_batch_s", "s", "lower", "reps_per_s, rep_s_p50 on lai400_one and garch200_two"),
    ("oga.oga_path_batch_calls", "count", "lower", "reps_per_s, rep_s_p50 on lai400_one and garch200_two"),
    ("oga.path_steps", "count", "lower", "reps_per_s, rep_s_p50 on lai400_one and garch200_two"),
    ("oga.oga_s", "s", "lower", "reps_per_s on lai800_amse only"),
    ("oga.oga_calls", "count", "lower", "reps_per_s on lai800_amse only"),
    ("hybrid.statistics_batch_self_s", "s", "lower", "reps_per_s on garch200_two most"),
    ("hybrid.evaluations_per_bound", "count", "lower", "reps_per_s on garch200_two (grid) and lai400_one (sequential tests)"),
    ("hybrid.resamples_evaluated", "count", "lower", "reps_per_s on garch200_two (grid) and lai400_one (sequential tests)"),
    ("hybrid.bound_s_p50", "s", "lower", "rep_s_p50 on lai400_one and garch200_two"),
    ("hybrid.bounds", "count", "lower", "none: set by the selection, not by speed"),
    ("hybrid.engine_init_s", "s", "lower", "reps_per_s on every workload"),
    ("hybrid.fit_s", "s", "lower", "reps_per_s on lai400_one and garch200_two"),
    ("hybrid.conditioned_frac", "fraction", "higher", "none: a property of the inputs"),
    ("hybrid.distinct_sets_frac", "fraction", "lower", "none: says where grouping by selected set pays (lai400_one)"),
    ("hybrid.fallback_frac", "fraction", "lower", "none: a property of the inputs (garch200_two)"),
    ("hybrid.failures", "count", "lower", "none: resamples whose statistic failed numerically"),
    ("factor_model.estimate_factors_s", "s", "lower", "reps_per_s on lai800_amse; under 3% elsewhere"),
    ("factor_model.estimate_factors_calls", "count", "lower", "reps_per_s on lai800_amse"),
    ("factor_model.complement_projection_s", "s", "lower", "reps_per_s on lai800_amse"),
    ("resampler.combined_estimate_self_s", "s", "lower", "reps_per_s on lai800_amse; about 2% on hr workloads"),
    ("resampler.generate_w_self_s", "s", "lower", "reps_per_s on lai400_one and garch200_two, about 2%"),
    ("iv_estimator.iv_estimate_s", "s", "lower", "reps_per_s on lai800_amse"),
    ("iv_estimator.iv_estimate_calls", "count", "lower", "reps_per_s on lai800_amse"),
    ("block_bootstrap.double_block_bootstrap_s", "s", "lower", "reps_per_s on hr workloads (small)"),
    ("block_bootstrap.double_block_bootstrap_calls", "count", "lower", "reps_per_s on hr workloads (small)"),
    ("ps.ps_interval_s", "s", "lower", "reps_per_s on lai400_one only"),
    ("ps.polytope_rows", "count", "lower", "reps_per_s on lai400_one only"),
    ("ps.delta_iterations", "count", "lower", "reps_per_s on lai400_one only"),
    ("inference.t_interval_s", "s", "lower", "none expected: under 1% on lai400_one"),
    ("inference.iv_interval_s", "s", "lower", "none expected: under 1% on lai400_one"),
    ("inference.covariance_s", "s", "lower", "none expected: under 1% on lai400_one"),
    ("dgp.generate_s", "s", "lower", "reps_per_s on every workload, at most 3%"),
    ("harness.run_replication_self_s", "s", "lower", "reps_per_s on every workload"),
    ("harness.aggregate_s", "s", "lower", "reps_per_s on every workload (tiny)"),
    ("harness.emit_tables_s", "s", "lower", "reps_per_s on every workload (tiny)"),
    ("trace.reps_per_s", "1/s", "higher", "none: traced throughput, for the tracing overhead"),
)


def _paths(args, result):
    X = args[0]
    return X.shape, result


def _batch(args, result):
    return result[0], result[1]


def _diagnostics(args, result):
    return result.diagnostics


def _delta_iterations(args, result):
    return result.diagnostics["bisection_iterations"]


def _rows(args, result):
    return result.n_rows


def _module(name: str):
    # The package re-exports functions that shadow some submodule names
    # (``martingale_ci.oga`` is the function), so import the module itself.
    return importlib.import_module(f"martingale_ci.{name}")


def targets() -> list[tuple]:
    """``(owner, attribute, span name, keep)`` for every wrapped function."""
    harness, hybrid, oga, resampler = map(_module, ("harness", "hybrid", "oga", "resampler"))
    engine = hybrid.StatisticEngine
    return [
        (harness, "run_replication", "harness.run_replication", None),
        (harness, "aggregate", "harness.aggregate", None),
        (harness, "emit_tables", "harness.emit_tables", None),
        (harness, "generate", "dgp.generate", None),
        (engine, "__init__", "hybrid.engine_init", None),
        (engine, "fit", "hybrid.fit", None),
        (engine, "statistics_batch", "hybrid.statistics_batch", _batch),
        (hybrid, "oga_path_batch", "oga.oga_path_batch", _paths),
        (oga, "oga", "oga.oga", None),
        (resampler, "oga", "oga.oga", None),
        (hybrid, "estimate_factors", "factor_model.estimate_factors", None),
        (resampler, "estimate_factors", "factor_model.estimate_factors", None),
        (hybrid, "complement_projection", "factor_model.complement_projection", None),
        (resampler, "complement_projection", "factor_model.complement_projection", None),
        (_module("iv_estimator"), "complement_projection", "factor_model.complement_projection", None),
        (harness, "combined_estimate", "resampler.combined_estimate", None),
        (resampler, "combined_estimate", "resampler.combined_estimate", None),
        (harness, "generate_w", "resampler.generate_w", None),
        (resampler, "iv_estimate", "iv_estimator.iv_estimate", None),
        (resampler, "double_block_bootstrap", "block_bootstrap.double_block_bootstrap", None),
        (harness, "t_interval", "inference.t_interval", None),
        (harness, "iv_interval", "inference.iv_interval", None),
        (hybrid, "covariance", "inference.covariance", None),
        (harness, "ps_interval", "ps.ps_interval", _delta_iterations),
        (_module("ps").SelectionPolytope, "from_selection", "ps.polytope", _rows),
        (harness, "hybrid_ci_one_sided", "hybrid.bound", _diagnostics),
        (harness, "hybrid_ci_two_sided", "hybrid.bound", _diagnostics),
    ]


def exact_counts(spans: list[Span]) -> dict[str, int]:
    """Integer counts read from call counts and return values.

    Each returned batch path is truncated by HDBIC, as ``statistics_batch``
    does, to count distinct selected sets.
    """
    hdbic = _module("oga").hdbic
    c: dict[str, int] = defaultdict(int)
    for s in spans:
        c[s.name + "_calls"] += 1
        if s.name == "oga.oga_path_batch":
            (n, p), (sel, resid_norms, m_actual) = s.data
            sets = set()
            for b, steps in enumerate(m_actual):
                m = hdbic(resid_norms[b, :steps], n, p) if steps else 0
                sets.add(tuple(sorted(int(v) for v in sel[b, :m])))
            c["path_steps"] += int(m_actual.sum())
            c["distinct_sets"] += len(sets)
            c["path_resamples"] += len(m_actual)
        elif s.name == "hybrid.statistics_batch":
            stats, selected = s.data
            c["resamples"] += len(stats)
            c["conditioned"] += int(np.count_nonzero(selected & np.isfinite(stats)))
        elif s.name == "hybrid.bound":
            c["bounds"] += 1
            c["evaluations"] += s.data["evaluations"]
            c["fallbacks"] += s.data.get("fallbacks", 0)
            c["bound_failures"] += s.data["failures"]
        elif s.name == "ps.ps_interval":
            c["delta_iterations"] += s.data
        elif s.name == "ps.polytope":
            c["polytope_rows"] += s.data
    return dict(c)


def layer_metrics(spans: list[Span], counts: dict[str, int], reps: int,
                  wall_s: float) -> dict[str, float]:
    """Per-layer metrics: seconds and counts per replication, and ratios."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    bound_s = []
    for s, self_s in zip(spans, selfs):
        total[s.name] += s.duration
        own[s.name] += self_s
        if s.name == "hybrid.bound":
            bound_s.append(s.duration)

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    per_rep = {
        "oga.oga_path_batch_s": total["oga.oga_path_batch"],
        "oga.oga_path_batch_calls": counts.get("oga.oga_path_batch_calls", 0),
        "oga.path_steps": counts.get("path_steps", 0),
        "oga.oga_s": total["oga.oga"],
        "oga.oga_calls": counts.get("oga.oga_calls", 0),
        "hybrid.statistics_batch_self_s": own["hybrid.statistics_batch"],
        "hybrid.resamples_evaluated": counts.get("resamples", 0),
        "hybrid.bounds": counts.get("bounds", 0),
        "hybrid.engine_init_s": total["hybrid.engine_init"],
        "hybrid.fit_s": total["hybrid.fit"],
        "hybrid.failures": counts.get("bound_failures", 0),
        "factor_model.estimate_factors_s": total["factor_model.estimate_factors"],
        "factor_model.estimate_factors_calls": counts.get("factor_model.estimate_factors_calls", 0),
        "factor_model.complement_projection_s": total["factor_model.complement_projection"],
        "resampler.combined_estimate_self_s": own["resampler.combined_estimate"],
        "resampler.generate_w_self_s": own["resampler.generate_w"],
        "iv_estimator.iv_estimate_s": total["iv_estimator.iv_estimate"],
        "iv_estimator.iv_estimate_calls": counts.get("iv_estimator.iv_estimate_calls", 0),
        "block_bootstrap.double_block_bootstrap_s": total["block_bootstrap.double_block_bootstrap"],
        "block_bootstrap.double_block_bootstrap_calls": counts.get("block_bootstrap.double_block_bootstrap_calls", 0),
        "ps.ps_interval_s": total["ps.ps_interval"],
        "ps.polytope_rows": counts.get("polytope_rows", 0),
        "ps.delta_iterations": counts.get("delta_iterations", 0),
        "inference.t_interval_s": total["inference.t_interval"],
        "inference.iv_interval_s": total["inference.iv_interval"],
        "inference.covariance_s": total["inference.covariance"],
        "dgp.generate_s": total["dgp.generate"],
        "harness.run_replication_self_s": own["harness.run_replication"],
        "harness.aggregate_s": total["harness.aggregate"],
        "harness.emit_tables_s": total["harness.emit_tables"],
    }
    out = {name: value / reps for name, value in per_rep.items()}
    out.update({
        "hybrid.evaluations_per_bound": ratio("evaluations", "bounds"),
        "hybrid.bound_s_p50": statistics.median(bound_s) if bound_s else 0.0,
        "hybrid.conditioned_frac": ratio("conditioned", "resamples"),
        "hybrid.distinct_sets_frac": ratio("distinct_sets", "path_resamples"),
        "hybrid.fallback_frac": ratio("fallbacks", "evaluations"),
        "trace.reps_per_s": reps / wall_s,
    })
    return {name: out[name] for name, *_ in LAYER_METRICS}

"""``perfbench/run.py --trace 1`` can still read what the package returns.

The traced run wraps the functions ``perfbench/layers.targets`` names and
reads counts from their return values (``layers.exact_counts``), so a
return shape it cannot unpack breaks the traced run while every unit test
still passes. Here each workload's small warm-up replication runs under
the same wrapping, in a fresh interpreter (importing the benchmark's
modules pins BLAS threads and edits ``sys.path``), and its spans go
through ``layers.exact_counts`` and ``layers.layer_metrics``. Nothing is
written under ``perfbench/``.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

CHILD = """
import json, sys
sys.path.insert(0, {bench!r})
import workloads
workloads.prepare_process()
workloads.import_package()
import layers
from spans import Tracer
from martingale_ci import harness
out = {{}}
for name, w in workloads.WORKLOADS.items():
    tracer = Tracer()
    with tracer.patched(layers.targets()):
        tracer.rep = 0
        harness.run_replication(*workloads.warmup(w))
    counts = layers.exact_counts(tracer.spans)
    out[name] = {{"counts": counts,
                  "metrics": layers.layer_metrics(tracer.spans, counts, 1, 1.0)}}
print(json.dumps(out))
"""


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    return {str(path): (path.stat().st_size, path.stat().st_mtime_ns)
            for path in root.rglob("*")}


@pytest.fixture(scope="module")
def traced():
    before = _tree(BENCH_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(bench=str(BENCH_DIR))],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), before, _tree(BENCH_DIR)


def test_every_layer_metric_is_read(traced):
    out, _, _ = traced
    assert set(out) == {"lai400_one", "garch200_two", "lai800_amse"}
    for name, got in out.items():
        metrics = got["metrics"]
        assert all(math.isfinite(value) for value in metrics.values()), name


@pytest.mark.parametrize("name", ["lai400_one", "garch200_two"])
def test_hr_workloads_trace_statistics_batch(traced, name):
    out, _, _ = traced
    counts = out[name]["counts"]
    assert counts["hybrid.statistics_batch_calls"] > 0
    assert counts["hybrid.bound_calls"] > 0
    assert 0 < counts["conditioned"] <= counts["resamples"]
    assert counts["evaluations"] >= counts["hybrid.statistics_batch_calls"]


def test_estimation_only_workload_has_no_bounds(traced):
    out, _, _ = traced
    counts = out["lai800_amse"]["counts"]
    assert "hybrid.statistics_batch_calls" not in counts
    assert "hybrid.bound_calls" not in counts


def test_writes_nothing_under_perfbench(traced):
    _, before, after = traced
    assert after == before

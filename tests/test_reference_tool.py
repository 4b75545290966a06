"""``perfbench/make_reference.py`` still rebuilds the committed references.

A change that moves the benchmark's reference outputs regenerates them with
that script, so it has to keep working against ``src/``. Its ``_rows`` runs
here, in a fresh interpreter (importing the script pins BLAS threads and
edits ``sys.path``), for the two workloads whose rows it copies from the
acceptance cache; their observed standard errors are computed anew.

The same interpreter replays the six ``garch200_two`` replications, whose
rows the script computes, and checks each against its committed reference
with the benchmark's own row check (``reference.summary_mismatch`` and
``reference.interval_mismatch``). The committed rows differ from today's
in their last digits, so they are compared within the benchmark's
tolerances, not byte for byte; a two-sided bound that moved by a grid
point would fail here before any benchmark run.
"""
import csv
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
import make_reference, reference, workloads
from martingale_ci import harness
rows = {{name: make_reference._rows(workloads.WORKLOADS[name])
        for name in ("lai400_one", "lai800_amse")}}
w = workloads.WORKLOADS["garch200_two"]
refs = reference.load(workloads.REFERENCE_DIR / "garch200_two.csv")
problems, checked = [], 0
for rep in w.reps:
    result = harness.run_replication(*w.replication_args(0, rep))
    why = reference.summary_mismatch(result, refs[rep])
    problems += [] if why is None else [f"rep {{rep}}: {{why}}"]
    for interval in result["intervals"]:
        why = reference.interval_mismatch(interval, refs[rep])
        problems += [] if why is None else [f"rep {{rep}}: {{why}}"]
        checked += 1
print(json.dumps({{"rel_tol": reference.REL_TOL, "rows": rows,
                  "garch200_two": {{"problems": problems, "checked": checked}}}}))
"""


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    return {str(path): (path.stat().st_size, path.stat().st_mtime_ns)
            for path in root.rglob("*")}


@pytest.fixture(scope="module")
def rebuilt():
    before = _tree(BENCH_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(bench=str(BENCH_DIR))],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), before, _tree(BENCH_DIR)


@pytest.mark.parametrize("name", ["lai400_one", "lai800_amse"])
def test_rows_match_the_committed_reference(rebuilt, name):
    out, _, _ = rebuilt
    with (BENCH_DIR / "reference" / f"{name}.csv").open(newline="") as fh:
        want = list(csv.DictReader(fh))
    got = out["rows"][name]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert {k: v for k, v in g.items() if k != "sigma"} == \
            {k: v for k, v in w.items() if k != "sigma"}
        if w["sigma"] == "":
            assert g["sigma"] == ""
        else:
            assert math.isclose(float(g["sigma"]), float(w["sigma"]),
                                rel_tol=out["rel_tol"], abs_tol=0.0)


def test_two_sided_replications_match_the_committed_reference(rebuilt):
    out, _, _ = rebuilt
    with (BENCH_DIR / "reference" / "garch200_two.csv").open(newline="") as fh:
        intervals = [r for r in csv.DictReader(fh) if r["kind"] == "interval"]
    got = out["garch200_two"]
    assert got["problems"] == []
    assert got["checked"] == len(intervals)


def test_nothing_written_under_perfbench(rebuilt):
    _, before, after = rebuilt
    assert after == before

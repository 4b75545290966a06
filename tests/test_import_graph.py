"""The package computes with scipy.linalg and scipy.special only.

Importing ``scipy.stats`` costs a fresh interpreter most of its start-up
time and memory, and every command, worker process and benchmark probe
pays it; its quantiles and CDF are ``scipy.special`` calls underneath.
"""
import subprocess
import sys
from pathlib import Path

import martingale_ci

CHILD = """
import martingale_ci, martingale_ci.cli
from martingale_ci.harness import run_replication

cell = dict(setting="LAI", n=60, p=80, master_seed=0, rep=0, B=20, kmax=5, q=1)
for out in (run_replication(**cell, alpha=0.2, methods=("t", "iv", "ps", "hr")),
            run_replication(**cell, alpha=0.1, methods=("hr",), side="two")):
    assert out["flags"] == "ok", out["flags"]
    assert "hr" in {method for _, _, method, *_ in out["intervals"]}
alone = run_replication(**cell, alpha=0.2, methods=())
assert alone["flags"] == "ok" and alone["intervals"] == [], alone
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""


def test_replications_do_not_import_scipy_stats():
    package_root = str(Path(martingale_ci.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c",
                           f"import sys; sys.path.insert(0, {package_root!r})\n"
                           + CHILD],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

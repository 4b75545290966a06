"""SHA-256 digests of ``run_replication`` output over a fixed corpus.

    python tests/corpus_digest.py [SRC ...]

For each ``SRC`` (a checkout's ``src`` directory; default this checkout's)
a fresh interpreter with single-threaded BLAS imports ``martingale_ci``
from it and runs every replication of the corpus below, master seed 0.
It prints one digest per group of ``repr(run_replication(...))``, then
each interpreter's peak resident set (``ru_maxrss``, in kB) on a last
line, and, given two or more sources, exits 1 unless every group's digest
agrees, so a change and its parent compare, memory beside, with one
command:

    python tests/corpus_digest.py src /path/to/parent/src

The corpus: the benchmark's three workloads (``garch200_two``
replications 0-5, ``lai400_one`` 0-7, ``lai800_amse`` 0-39) and the five
settings at 120x150, replications 0-1, one-sided ``t,iv,ps,hr`` and
two-sided ``t,iv,hr``. It takes about 10 s per source on one core.
pytest does not collect this file.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETTINGS = ("LAI", "GARCH", "AR", "IID", "MVN")

# group -> [(setting, n, p, rep, methods, side, alpha)]; B = 50, kmax = 5, q = 1.
GROUPS = {
    "garch200_two": [("GARCH", 200, 250, rep, ("hr",), "two", 0.1) for rep in range(6)],
    "lai400_one": [("LAI", 400, 500, rep, ("t", "iv", "ps", "hr"), "one", 0.2)
                   for rep in range(8)],
    "lai800_amse": [("LAI", 800, 1000, rep, (), "one", 0.2) for rep in range(40)],
    "small_one": [(s, 120, 150, rep, ("t", "iv", "ps", "hr"), "one", 0.2)
                  for s in SETTINGS for rep in range(2)],
    "small_two": [(s, 120, 150, rep, ("t", "iv", "hr"), "two", 0.1)
                  for s in SETTINGS for rep in range(2)],
}


def digests(src: str) -> dict[str, str]:
    """Digest of every group, computed by a fresh interpreter on ``src``,
    and its ``ru_maxrss`` under the key ``ru_maxrss_kb``."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    out = subprocess.run([sys.executable, __file__, "--worker", src], env=env,
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


def _worker(src: str) -> None:
    import hashlib
    import resource

    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    from martingale_ci import harness

    if root not in Path(harness.__file__).resolve().parents:
        raise ImportError(f"martingale_ci imported from {harness.__file__}, not {root}")

    for name, cells in GROUPS.items():
        digest = hashlib.sha256()
        for setting, n, p, rep, methods, side, alpha in cells:
            out = harness.run_replication(setting, n, p, 0, rep, 50, alpha, 5, 1,
                                          methods, side)
            digest.update(repr(out).encode())
        print(name, digest.hexdigest())
    print("ru_maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1])
        return 0
    srcs = argv or [str(Path(__file__).resolve().parent.parent / "src")]
    found = [digests(src) for src in srcs]
    for name in [*GROUPS, "ru_maxrss_kb"]:
        print(name, *(d[name] for d in found))
    return int(any(d[name] != found[0][name] for d in found for name in GROUPS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

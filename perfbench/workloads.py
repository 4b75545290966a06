"""Workload definitions and process preparation for the benchmark.

Every workload replays replications of the master-seed-0 coverage
experiment whose outputs are stored under ``reference/``. The benchmark's
``--seed`` permutes the workload's fixed replication list; the master seed
that generates the datasets is a separate argument (default 0), and only
master seed 0 has a reference to check against.

This module imports nothing heavy, so it can pin the BLAS thread count
before numpy is loaded.
"""
from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One coverage-experiment cell, replayed replication by replication.

    ``reps`` is the fixed replication list one pass runs, in the order
    ``--seed`` gives. A pass takes 25-35 s at the seed commit on a 2-core
    x86 machine, so a 40 s run makes one pass, every run measures the same
    datasets, and the run-to-run spread is the machine's, not the inputs':
    seconds per replication vary about twofold between datasets. The
    interpreter-bound ``garch200_two`` is the most sensitive to the
    machine's slow phases, so it gets the longest pass.
    """

    name: str
    setting: str
    n: int
    p: int
    methods: tuple[str, ...]
    side: str
    alpha: float
    reps: tuple[int, ...]
    B: int = 50
    kmax: int = 5
    q: int = 1

    def replication_args(self, master_seed: int, rep: int) -> tuple:
        """Positional arguments of ``harness.run_replication``."""
        return (self.setting, self.n, self.p, master_seed, rep, self.B,
                self.alpha, self.kmax, self.q, self.methods, self.side)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline cell; hybrid_ci_one_sided and oga_path_batch
        # dominate, and few distinct selected sets appear per batch.
        Workload("lai400_one", "LAI", 400, 500, ("t", "iv", "ps", "hr"), "one",
                 0.2, tuple(range(8))),
        # Two-sided grid: many evaluations per bound, many normal fallbacks
        # and many distinct selected sets per batch.
        Workload("garch200_two", "GARCH", 200, 250, ("hr",), "two", 0.1,
                 tuple(range(6))),
        # Estimation error only: factor estimation and single-response OGA;
        # the hybrid bounds are never computed.
        Workload("lai800_amse", "LAI", 800, 1000, (), "one", 0.2,
                 tuple(range(40))),
    )
}


def replication_order(workload: Workload, seed: int) -> list[int]:
    """The workload's replication list, permuted by ``seed``."""
    order = list(workload.reps)
    random.Random(seed).shuffle(order)
    return order


def prepare_process() -> None:
    """Pin BLAS to one thread and put the repository's ``src`` on the path.

    Must run before numpy is imported; mirrors ``harness._pin_blas_threads``.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_package():
    """Import ``martingale_ci`` from this checkout's ``src``, never elsewhere."""
    import martingale_ci

    where = Path(martingale_ci.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"martingale_ci imported from {where}, not from {SRC}")
    return martingale_ci


def warmup(workload: Workload) -> tuple:
    """``run_replication`` arguments of a small cell of the workload's kind."""
    return replace(workload, n=60, p=80, B=20).replication_args(0, 0)

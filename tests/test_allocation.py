"""Allocation peaks of the n x p stages of an LAI 800x1000 replication.

A replication holds one copy of the design: ``generate`` builds X in
place, the greedy path takes column norms without an n x p array of
squares, and the factor eigensolver works in its Gram matrix without a
Fortran-ordered copy. Peaks are measured with ``tracemalloc``, which sees
every NumPy buffer, above what was held before the call.
"""
import tracemalloc

import numpy as np
import pytest

from martingale_ci.dgp import DgpConfig, generate, make_beta
from martingale_ci.factor_model import estimate_factors
from martingale_ci.oga import oga_hdbic


def _peak(f):
    """f's result and the most it held at once beyond what it kept."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def lai_800x1000():
    return DgpConfig(setting="LAI", n=800, p=1000, seed=3), make_beta(1000)


def test_generate_holds_one_design(lai_800x1000):
    ds, peak = _peak(lambda: generate(*lai_800x1000))
    assert peak <= 1.1 * ds.X.nbytes


def test_greedy_selection_copies_no_design(lai_800x1000):
    ds = generate(*lai_800x1000)
    _, peak = _peak(lambda: oga_hdbic(ds.X, ds.Y))
    assert peak <= 0.25 * ds.X.nbytes


def test_factor_eigensolver_holds_one_gram(lai_800x1000):
    X = generate(*lai_800x1000).X[:400]
    _, peak = _peak(lambda: estimate_factors(X, 5))
    gram_nbytes = 400 * 400 * np.dtype(float).itemsize
    assert peak <= 1.5 * gram_nbytes

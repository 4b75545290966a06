"""Split-sample coefficient combination and synthetic disturbance generation.

The combined estimate cross-fits: columns selected on one half of the sample
get their coefficients estimated on the other half, and columns selected on
both halves get the average of the two cross-fitted estimates. Residuals
from the combined fit are then decomposed against the factor-augmented
design to isolate an error estimate, which is block-resampled into B
synthetic disturbance vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .block_bootstrap import double_block_bootstrap
from .dgp import Dataset
from .factor_model import complement_projection, estimate_factors
from .iv_estimator import fit_selected, iv_estimate
from .oga import oga, oga_hdbic

MIN_SPLIT_LENGTH = 8


@dataclass
class ResampleSet:
    """Combined estimate, residual decomposition, and B disturbance draws."""

    j_hat: np.ndarray
    beta_tilde: np.ndarray
    j_plus: np.ndarray
    w_tilde: np.ndarray
    eps_hat: np.ndarray
    w_b: np.ndarray  # (B, n)
    diagnostics: dict = field(default_factory=dict)


def halves(n: int) -> tuple[slice, slice]:
    """Rows of the train and test halves: contiguous, in order, n // 2 first."""
    if n < MIN_SPLIT_LENGTH:
        raise ValueError(f"need n >= {MIN_SPLIT_LENGTH} to split, got {n}")
    return slice(0, n // 2), slice(n // 2, n)


def combine_beta(
    j_hat: np.ndarray,
    est_train_sel: Mapping[int, float],
    est_test_sel: Mapping[int, float],
) -> np.ndarray:
    """Merge cross-fitted estimates for the two half-sample selections.

    ``est_train_sel`` maps each index selected on the train half to its
    estimate (computed on the test half); ``est_test_sel`` is the mirror
    image. An index in both selections gets the average, in exactly one
    gets that single cross-fitted estimate, in neither gets zero.
    """
    out = np.zeros(len(j_hat))
    for i, j in enumerate(j_hat):
        j = int(j)
        in_tr = j in est_train_sel
        in_te = j in est_test_sel
        if in_tr and in_te:
            out[i] = 0.5 * (est_train_sel[j] + est_test_sel[j])
        elif in_tr:
            out[i] = est_train_sel[j]
        elif in_te:
            out[i] = est_test_sel[j]
    return out


def combined_estimate(
    ds: Dataset,
    j_hat: np.ndarray,
    kmax: int,
) -> tuple[np.ndarray, dict]:
    """Cross-fitted split-sample estimate for the selected set.

    Each half runs as many greedy steps as the full sample selected
    (capped at half its length); coefficients for a half's selection are
    estimated on the *other* half (its own factor estimate included), so
    selection and estimation never share data. A column that neither half
    selects gets 0 (``combine_beta``): at LAI n=200, p=250 that happens to
    about 17% of selected coefficients.
    """
    train, test = ((ds.X[rows], ds.Y[rows]) for rows in halves(ds.n))
    sel_train, sel_test = (oga(X, Y, max(1, min(len(j_hat), len(Y) // 2, ds.p)))
                           for X, Y in (train, test))

    def _cross_fit(X: np.ndarray, Y: np.ndarray, J: np.ndarray) -> dict[int, float]:
        if len(J) == 0:
            return {}
        fe = estimate_factors(X, min(kmax, min(X.shape)))
        est = iv_estimate(X, Y, J, fe.F_hat)
        return {int(j): float(b) for j, b in zip(J, est.beta_tilde)}

    est_train_sel = _cross_fit(*test, sel_train.j_hat)
    est_test_sel = _cross_fit(*train, sel_test.j_hat)
    beta = combine_beta(j_hat, est_train_sel, est_test_sel)
    diag = {
        "j_train": sel_train.j_hat.copy(),
        "j_test": sel_test.j_hat.copy(),
    }
    return beta, diag


def generate_w(
    ds: Dataset,
    j_hat: np.ndarray,
    F_hat: np.ndarray | None,
    B: int,
    seed: int | np.random.SeedSequence,
    kmax: int,
) -> ResampleSet:
    """Build the combined estimate and B block-resampled disturbances.

    The error series is what remains of the combined-fit residual after
    the factor-complement columns that both halves select for it are
    regressed out; each half is regressed (by the guarded ``fit_selected``)
    on the columns the *other* half selected before restricting to that
    common set.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    j_hat = np.asarray(j_hat, dtype=int)
    X, Y, n = ds.X, ds.Y, ds.n

    beta_tilde, diag = combined_estimate(ds, j_hat, kmax=kmax)
    j_plus = j_hat[beta_tilde != 0.0]
    w_tilde = Y - X[:, j_hat] @ beta_tilde

    # The factor-complement of everything not pinned down by the combined
    # estimate. Factor columns do not compete: a factor column that wins
    # holds the common-factor part of the residual fixed across draws,
    # which leaves the resampled statistics under-dispersed.
    comp = np.setdiff1d(np.arange(ds.p), j_plus)
    xf = complement_projection(F_hat, X[:, comp])

    train, test = halves(n)
    sel_w_train = oga_hdbic(xf[train], w_tilde[train])
    sel_w_test = oga_hdbic(xf[test], w_tilde[test])
    j_w = np.intersect1d(sel_w_train.j_hat, sel_w_test.j_hat)

    def _eps_half(rows: slice, other: np.ndarray) -> np.ndarray:
        w_half = w_tilde[rows]
        if len(j_w) == 0:
            return w_half.copy()
        x_other = xf[rows][:, other]
        coef = fit_selected(x_other, x_other, w_half).beta_tilde
        coef_jw = coef[[other.tolist().index(c) for c in j_w.tolist()]]
        return w_half - xf[rows][:, j_w] @ coef_jw

    eps_train = _eps_half(train, sel_w_test.j_hat)
    eps_test = _eps_half(test, sel_w_train.j_hat)
    eps_hat = np.concatenate([eps_train, eps_test])

    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = root.spawn(B)
    w_b = np.empty((B, n))
    base = w_tilde - eps_hat
    for b in range(B):
        rng = np.random.default_rng(streams[b])
        w_b[b] = base + double_block_bootstrap(eps_hat, rng)

    diag.update({
        "j_w_train": sel_w_train.j_hat.copy(),
        "j_w_test": sel_w_test.j_hat.copy(),
        "empty_j_w": len(j_w) == 0,
    })
    return ResampleSet(j_hat=j_hat, beta_tilde=beta_tilde, j_plus=j_plus,
                       w_tilde=w_tilde, eps_hat=eps_hat, w_b=w_b,
                       diagnostics=diag)

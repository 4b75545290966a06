"""Reference implementations used as test oracles."""
import numpy as np

from martingale_ci.hybrid import StatisticEngine
from martingale_ci.inference import SIDE_ONE, SIDE_TWO, PipelineFit, StatConfig


def naive_forward_stepwise(X, Y, m):
    """Forward stepwise that refits least squares on the selected set at
    every step; the greedy QR path must reproduce it exactly."""
    n, p = X.shape
    norms = np.linalg.norm(X, axis=0)
    selected: list[int] = []
    resid = Y.copy()
    for _ in range(m):
        scores = np.full(p, -1.0)
        for j in range(p):
            if j in selected or norms[j] == 0.0:
                continue
            scores[j] = abs(X[:, j] @ resid) / norms[j]
        j_new = int(np.argmax(scores))
        if scores[j_new] <= 0.0:
            break
        selected.append(j_new)
        coef, *_ = np.linalg.lstsq(X[:, selected], Y, rcond=None)
        resid = Y - X[:, selected] @ coef
    coef, *_ = np.linalg.lstsq(X[:, selected], Y, rcond=None)
    beta = np.zeros(p)
    beta[selected] = coef
    return selected, beta


def fit_pipeline(X: np.ndarray, Y: np.ndarray, cfg: StatConfig) -> PipelineFit:
    """Selection, factor projection, estimate and variance for one response."""
    return StatisticEngine(X, cfg).fit(Y)


def test_statistic(
    X: np.ndarray, Y: np.ndarray, j: int, theta: float, cfg: StatConfig
) -> float:
    """Standardized statistic for the hypothesis that coefficient j equals theta.

    The side-aware reference: signed one-sided, its magnitude two-sided.
    Selection is part of the statistic: when column j is not selected a
    sentinel is returned (0 two-sided, -inf one-sided).
    """
    fit = fit_pipeline(X, Y, cfg)
    pos = fit.position(j)
    if pos is None:
        return -np.inf if cfg.side == SIDE_ONE else 0.0
    value = (fit.estimate.beta_tilde[pos] - theta) / fit.sigma[pos]
    return abs(value) if cfg.side == SIDE_TWO else value

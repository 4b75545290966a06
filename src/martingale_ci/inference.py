"""Robust (HAC sandwich) covariance, plus the closed-form baselines.

``StatConfig`` and ``PipelineFit`` describe the statistic that
``hybrid.StatisticEngine`` evaluates: greedy selection with the BIC-style
stopping rule, factor estimation, projected-design estimation, and the
sandwich variance computed here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, stdtrit

from .iv_estimator import IvEstimate, fit_selected
from .oga import SelectionResult

SIDE_ONE = "one"
SIDE_TWO = "two"


class InvalidTruncationError(ValueError):
    """Raised when a truncation interval has a >= b."""


@dataclass(frozen=True)
class StatConfig:
    """Knobs shared by every statistic evaluation; ``side`` picks the bound."""

    kmax: int = 5
    q: int = 1
    side: str = SIDE_ONE


@dataclass
class IntervalReport:
    """One confidence bound (or pair) for one selected coefficient."""

    j: int
    method: str
    lower: float
    upper: float
    alpha: float
    diagnostics: dict = field(default_factory=dict)


def hac_meat(G: np.ndarray, q: int) -> np.ndarray:
    """Bartlett-weighted long-run covariance of the rows g_t of G.

    S = sum_t g_t g_t' + sum_{nu=1..q} (1 - nu/(q+1)) (Gamma_nu + Gamma_nu')
    with Gamma_nu = sum_t g_{t+nu} g_t'; q = 0 is the heteroskedasticity-
    robust (uncorrelated) meat. G may carry leading batch axes, (..., n, m).
    Gamma_nu is exactly zero for nu >= n, so the sum stops at n - 1.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    Gt = np.swapaxes(G, -1, -2)
    S = Gt @ G
    for nu in range(1, min(q, G.shape[-2] - 1) + 1):
        A = Gt[..., nu:] @ G[..., :-nu, :]
        S = S + (1.0 - nu / (q + 1.0)) * (A + np.swapaxes(A, -1, -2))
    return S


def covariance(est: IvEstimate, q: int) -> np.ndarray:
    """HAC sandwich covariance V = n (X~'X~)^-1 S (X~'X~)^-1.

    The meat S is :func:`hac_meat` of g_t = w_t x~_t up to lag q, the bread
    the inverse projected gram ``est.inv_gram`` that the one guarded fit,
    ``iv_estimator.fit_selected``, returns. Residuals (n, b) of b responses
    give V (b, m, m).
    """
    S = hac_meat(est.x_tilde * est.residuals.T[..., None], q)
    V = len(est.x_tilde) * est.inv_gram @ S @ est.inv_gram
    return 0.5 * (V + np.swapaxes(V, -1, -2))


@dataclass
class PipelineFit:
    """Selection + estimate + per-coefficient scale for one response."""

    selection: SelectionResult
    estimate: IvEstimate
    sigma: np.ndarray  # sqrt(V_jj / n) per selected coefficient

    @property
    def j_hat(self) -> np.ndarray:
        return self.selection.j_hat

    def position(self, j: int) -> int | None:
        hits = np.flatnonzero(self.j_hat == j)
        return int(hits[0]) if len(hits) else None


def selected_ols(X: np.ndarray, Y: np.ndarray,
                 j_hat: np.ndarray) -> tuple[IvEstimate, float]:
    """The guarded fit of Y on the columns j_hat and its residual scale
    sqrt(rss / (n - |J|)), for the t interval and ``ci``'s ``ps`` bound."""
    n, m = X.shape[0], len(j_hat)
    if m >= n:
        raise ValueError("need |J| < n for a residual scale")
    X_J = X[:, j_hat]
    est = fit_selected(X_J, X_J, Y)
    return est, math.sqrt(float(np.sum(est.residuals ** 2)) / (n - m))


def t_interval(
    X: np.ndarray,
    Y: np.ndarray,
    j_hat: np.ndarray,
    j: int,
    alpha: float,
    side: str = SIDE_ONE,
) -> IntervalReport:
    """Classical t interval from the least-squares fit on the selected columns.

    Ignores both the data-driven selection and any signal left outside the
    selected set; kept as a baseline.
    """
    j_hat = np.asarray(j_hat, dtype=int)
    est, s = selected_ols(X, Y, j_hat)
    dof = X.shape[0] - len(j_hat)
    pos = int(np.flatnonzero(j_hat == j)[0])
    c_jj = float(est.inv_gram[pos, pos])
    half = stdtrit(dof, 1.0 - alpha) * s * math.sqrt(c_jj)
    lower = est.beta_tilde[pos] - half
    upper = np.inf if side == SIDE_ONE else est.beta_tilde[pos] + half
    return IntervalReport(j=j, method="t", lower=float(lower), upper=float(upper),
                          alpha=alpha)


def iv_interval(fit: PipelineFit, j: int, alpha: float,
                side: str = SIDE_ONE) -> IntervalReport:
    """Normal-theory interval for the projected-design estimator."""
    pos = int(np.flatnonzero(fit.j_hat == j)[0])
    beta, sigma = fit.estimate.beta_tilde[pos], fit.sigma[pos]
    z = ndtri(1.0 - alpha)
    lower = beta - z * sigma
    upper = np.inf if side == SIDE_ONE else beta + z * sigma
    return IntervalReport(j=j, method="iv", lower=float(lower), upper=float(upper),
                          alpha=alpha)


def _log_phi_diff(lo: float, hi: float) -> float:
    """log(Phi(hi) - Phi(lo)) computed stably for extreme arguments."""
    if hi <= lo:
        return -np.inf
    if hi <= 0.0:
        a, b = log_ndtr(hi), log_ndtr(lo)
    elif lo >= 0.0:
        a, b = log_ndtr(-lo), log_ndtr(-hi)
    else:
        val = ndtr(hi) - ndtr(lo)
        return math.log(val) if val > 0.0 else -np.inf
    # a >= b here; log(exp(a) - exp(b)) = a + log1p(-exp(b - a)).
    d = b - a
    if d >= 0.0:
        return -np.inf
    return float(a + math.log1p(-math.exp(d)))


def truncnorm_sf(x: float, mu: float, sigma: float, a: float, b: float) -> float:
    """Survival function 1 - F of the truncated normal, tail-stable."""
    if not a < b:
        raise InvalidTruncationError(f"need a < b, got a={a}, b={b}")
    if sigma <= 0.0:
        raise InvalidTruncationError("sigma must be positive")
    if x <= a:
        return 1.0
    if x >= b:
        return 0.0
    za = -np.inf if a == -np.inf else (a - mu) / sigma
    zb = np.inf if b == np.inf else (b - mu) / sigma
    zx = (x - mu) / sigma
    num = _log_phi_diff(zx, zb)
    den = _log_phi_diff(za, zb)
    if den == -np.inf:
        return 1.0 if zx <= 0.5 * (za + zb) else 0.0
    if num == -np.inf:
        return 0.0
    return float(min(1.0, math.exp(num - den)))

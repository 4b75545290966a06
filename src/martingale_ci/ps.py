"""Post-selection intervals from the polyhedral description of greedy selection.

Each greedy step is a set of linear inequalities on Y: the winning column's
signed normalized correlation with the step's residual beats both signed
correlations of every losing column. Restricting those inequalities to the
line through Y along the target direction yields a truncation interval for
the least-squares coefficient, whose truncated-normal law is inverted for
the bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import IntervalReport, truncnorm_sf
from .iv_estimator import fit_selected
from .oga import SelectionResult, column_norms

# |F(delta) - alpha| tolerance for the mean-parameter bisection.
DELTA_EQUATION_TOL = 1e-6
DELTA_MAX_ITERATIONS = 400


class InfeasibleTruncationError(RuntimeError):
    """Truncation interval is empty even after the numerical-noise margin."""


@dataclass
class SelectionPolytope:
    """Inequalities A y <= 0 describing a recorded greedy selection path.

    A view of the selection (X by reference, its column norms, the basis Q,
    the winners and their signs); :meth:`apply` returns A v for a vector or
    a batch of vectors v without forming A. Rows come in pairs per (step,
    loser): both sign branches of |corr(loser)| <= signed corr(winner).
    Step k's losers are the nonzero columns not among the first k + 1
    winners, in column order.
    """

    X: np.ndarray
    norms: np.ndarray
    Q: np.ndarray
    winners: np.ndarray
    signs: np.ndarray

    @classmethod
    def from_selection(cls, X: np.ndarray, sel: SelectionResult) -> "SelectionPolytope":
        X = np.asarray(X, dtype=float)
        return cls(X=X, norms=column_norms(X), Q=sel.Q, winners=sel.j_hat,
                   signs=np.where(sel.beta_q < 0.0, -1.0, 1.0))

    def _losers(self, k: int) -> np.ndarray:
        losing = self.norms > 0.0
        losing[self.winners[: k + 1]] = False
        return np.flatnonzero(losing)

    @property
    def n_rows(self) -> int:
        return 2 * sum(len(self._losers(k)) for k in range(len(self.winners)))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Evaluate A v; v may be (n,) or (n, N)."""
        v = np.asarray(v, dtype=float)
        squeeze = v.ndim == 1
        resid = v[:, None] if squeeze else v
        rows = []
        for k, (w, s) in enumerate(zip(self.winners, self.signs)):
            if k:
                qk = self.Q[:, k - 1 : k]
                resid = resid - qk @ (qk.T @ resid)
            losers = self._losers(k)
            xr = self.X.T @ resid  # (p, N), unnormalized correlations
            d = xr[losers] / self.norms[losers, None]
            win = s * xr[w] / self.norms[w]
            rows += [d - win, -d - win]
        out = np.vstack(rows) if rows else np.zeros((0, resid.shape[1]))
        return out[:, 0] if squeeze else out


def truncation_bounds(
    poly: SelectionPolytope, eta: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Truncation interval for eta'Y along the polytope's active directions.

    Decomposes Y into its eta-component and the orthogonal remainder z and
    returns the interval of eta'Y values keeping A(c * t + z) <= 0, where
    c = eta / ||eta||^2.
    """
    eta = np.asarray(eta, dtype=float)
    nsq = float(eta @ eta)
    obs = float(eta @ y)
    c = eta / nsq
    z = y - c * obs
    ac, az = poly.apply(np.column_stack([c, z])).T
    if len(ac) == 0:
        return -np.inf, np.inf
    tol = 1e-10 * max(1.0, float(np.max(np.abs(ac))))
    neg = ac < -tol
    pos = ac > tol
    v_lo = float(np.max(-az[neg] / ac[neg])) if neg.any() else -np.inf
    v_up = float(np.min(-az[pos] / ac[pos])) if pos.any() else np.inf
    return v_lo, v_up


def _solve_delta(
    obs: float, scale: float, v_lo: float, v_up: float, alpha: float
) -> tuple[float, int]:
    """Mean parameter whose truncated-normal survival at obs equals alpha.

    The survival is increasing in the mean, so plain bisection applies once
    a sign-changing bracket is found (the bracket is widened geometrically).
    """

    def g(delta: float) -> float:
        return truncnorm_sf(obs, delta, scale, v_lo, v_up) - alpha

    lo, hi = obs - 10.0 * scale, obs + 10.0 * scale
    for _ in range(80):
        if g(lo) < 0.0:
            break
        lo -= 10.0 * scale
    for _ in range(80):
        if g(hi) > 0.0:
            break
        hi += 10.0 * scale
    iterations = 0
    mid = 0.5 * (lo + hi)
    while iterations < DELTA_MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) < DELTA_EQUATION_TOL:
            return mid, iterations
        if val < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return mid, iterations


def ps_interval(
    X: np.ndarray,
    Y: np.ndarray,
    sel: SelectionResult,
    j: int,
    alpha: float,
    sigma: float,
) -> IntervalReport:
    """One-sided lower bound from the truncated-normal selection law.

    Targets the mean of the selected-set least-squares coefficient, so it
    inherits that estimator's omitted-variable bias; it is exact only when
    Y is Gaussian with known sigma and all signal is inside the selection.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    j_hat = sel.j_hat
    pos_hits = np.flatnonzero(j_hat == j)
    if len(pos_hits) == 0:
        raise ValueError(f"column {j} is not in the selection")
    pos = int(pos_hits[0])

    X_J = X[:, j_hat]
    eta = X_J @ fit_selected(X_J, X_J, Y).inv_gram[:, pos]
    obs = float(eta @ Y)

    poly = SelectionPolytope.from_selection(X, sel)
    v_lo, v_up = truncation_bounds(poly, eta, Y)
    margin = 1e-10 * max(1.0, abs(obs))
    if not v_lo < obs < v_up:
        v_lo = min(v_lo, obs - margin)
        v_up = max(v_up, obs + margin)
    if not v_lo < v_up:
        v_lo -= margin
        v_up += margin
        if not v_lo < v_up:
            raise InfeasibleTruncationError(
                f"empty truncation interval [{v_lo}, {v_up}] for column {j}"
            )

    scale = sigma * math.sqrt(float(eta @ eta))
    delta, iterations = _solve_delta(obs, scale, v_lo, v_up, alpha)
    diag = {"v_lo": v_lo, "v_up": v_up, "observed": obs,
            "bisection_iterations": iterations, "scale": scale}
    return IntervalReport(j=j, method="ps", lower=float(delta), upper=np.inf,
                          alpha=alpha, diagnostics=diag)

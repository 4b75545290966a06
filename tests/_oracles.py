"""Reference implementations used as test oracles."""
import numpy as np
from scipy.linalg import solve_triangular

from martingale_ci.hybrid import StatisticEngine
from martingale_ci.inference import SIDE_ONE, SIDE_TWO, PipelineFit, StatConfig
from martingale_ci.oga import DEPENDENT_TOL, RESIDUAL_TOL, RSS_RESCUE_TOL


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


def synthetic_batch(X, rs, j, theta, members=slice(None)):
    """Synthetic responses a_b + theta x_j of the resamples ``members``,
    the combined fit X_J beta~ recomputed at each call; theta is one value
    or one per member. ``_ThetaTest.synthetic`` must match it bit for bit."""
    pos = int(np.flatnonzero(rs.j_hat == j)[0])
    base = X[:, rs.j_hat] @ rs.beta_tilde
    shift = np.asarray(theta) - rs.beta_tilde[pos]
    return base[:, None] + rs.w_b[members].T + shift * X[:, j][:, None]


def greedy_paths(
    X: np.ndarray,
    Y_batch: np.ndarray,
    kn: int,
    col_norms: np.ndarray | None = None,
    gram: np.ndarray | None = None,
    direction: int | None = None,
    along: dict | None = None,
    bounds: bool = False,
) -> tuple[np.ndarray, ...]:
    """Reference for ``oga._greedy_paths``: the same outputs, step by step.

    Each step scores every column, excludes zero and picked columns with a
    (B, p) mask, gathers the picks' Gram rows into a fresh array and
    updates only the paths still running, so a stopped path keeps its
    state. ``_greedy_paths`` must match it bit for bit.
    """
    X = np.asarray(X, dtype=float)
    Y_batch = np.asarray(Y_batch, dtype=float)
    n, p = X.shape
    B = Y_batch.shape[1]
    kn = min(kn, n, p)
    if col_norms is None:
        col_norms = np.linalg.norm(X, axis=0)
    safe_norms = np.where(col_norms <= 0.0, 1.0, col_norms)
    yy = np.einsum("nb,nb->b", Y_batch, Y_batch)
    stop_tol = RESIDUAL_TOL * np.sqrt(yy)

    C = Y_batch.T @ X  # (B, p): correlations X'U with the current residuals
    XtQ = np.zeros((B, kn, p))  # rows q_i'X of the implicit Q
    rss, Rs, beta_q = yy.copy(), np.zeros((B, kn, kn)), np.zeros((B, kn))
    sel, m_actual = np.full((B, kn), -1, dtype=int), np.zeros(B, dtype=int)
    resid_norms = np.full((B, kn), np.nan)
    excluded = np.tile(col_norms <= 0.0, (B, 1))  # zero and selected columns
    active, rows = np.ones(B, dtype=bool), np.arange(B)
    if direction is not None:
        dd = np.full(B, X[:, direction] @ X[:, direction])  # x_d'(I-P_k)x_d
        rss_k, c_d, d_d = (np.full((B, kn), np.nan) for _ in range(3))
        exact = np.ones(B, dtype=bool)  # no n-space step
    if bounds:
        D = np.tile(X[:, direction] @ X, (B, 1))  # X'(I-P_k)x_d
        top = np.zeros(B)  # 1/hi so far
        stop_slope = RESIDUAL_TOL * col_norms[direction]  # ||y+tx_d|| growth

    for k in range(kn):
        scores = np.abs(C) / safe_norms
        scores[excluded] = -1.0
        j_pick = np.argmax(scores, axis=1)
        active &= scores[rows, j_pick] > stop_tol
        G_j = X[:, j_pick].T @ X if gram is None else gram[j_pick]  # (B, p)
        g_jj = G_j[rows, j_pick]
        r1 = XtQ[rows, :k, j_pick]  # (B, k) = Q'x_j
        r2sq = g_jj - np.einsum("bk,bk->b", r1, r1)
        r2 = np.sqrt(np.maximum(r2sq, 0.0))
        if direction is not None:
            exact &= r2sq >= 1e-6 * g_jj
        if bounds:
            top = np.maximum(top, pick_bound(
                C / safe_norms, D / safe_norms, rows, j_pick,
                scores[rows, j_pick] - stop_tol, stop_slope))
        with np.errstate(divide="ignore", invalid="ignore"):  # stopped paths
            # G_j is a fresh gather, so q'X is formed in its place.
            xq = np.subtract(G_j, np.matmul(r1[:, None, :], XtQ[:, :k])[:, 0], out=G_j)
            xq /= r2[:, None]
            bq = C[rows, j_pick] / r2
            # Cancellation in r2^2: the distance to the span in n-space.
            for b in (active & ~(r2sq >= 1e-6 * g_jj)).nonzero()[0]:
                Q = np.linalg.qr(X[:, sel[b, :k]])[0]
                qt = X[:, j_pick[b]] - Q @ (Q.T @ X[:, j_pick[b]])
                qt -= Q @ (Q.T @ qt)
                r2[b] = np.linalg.norm(qt)
                xq[b], bq[b] = qt @ X / r2[b], qt @ Y_batch[:, b] / r2[b]
            if bounds:
                D -= xq * (D[rows, j_pick] / r2)[:, None]
        active &= r2 > DEPENDENT_TOL * col_norms[j_pick]
        if not active.any():
            break

        upd = slice(None) if active.all() else active  # a view when all run
        C[upd] -= xq[upd] * bq[upd, None]
        XtQ[upd, k] = xq[upd]
        Rs[upd, :k, k] = r1[upd]
        Rs[upd, k, k] = r2[upd]
        beta_q[upd, k] = bq[upd]
        sel[upd, k] = j_pick[upd]
        excluded[rows[upd], j_pick[upd]] = True
        rss[upd] -= bq[upd] ** 2
        # Cancellation in ||y||^2 - sum bq^2: recompute y - X_J beta.
        rescue = (active & (rss < RSS_RESCUE_TOL * yy)).nonzero()[0]
        for b in rescue:
            beta = solve_triangular(Rs[b, :k + 1, :k + 1], beta_q[b, :k + 1])
            u = Y_batch[:, b] - X[:, sel[b, :k + 1]] @ beta
            rss[b], C[b] = u @ u, u @ X
        resid_norms[upd, k] = np.sqrt(rss[upd])
        m_actual[upd] = k + 1
        if direction is not None:
            exact[rescue] = False
            dd[upd] -= xq[upd, direction] ** 2
            rss_k[:, k], c_d[:, k], d_d[:, k] = rss, C[:, direction], dd

    if direction is not None:
        # Entries of a stopped path past its end are stale.
        past = np.arange(kn) >= m_actual[:, None]
        for steps in (rss_k, c_d, d_d):
            steps[past] = np.nan
        exact &= m_actual == kn
        along.update(rss=rss_k, c_d=c_d, d_d=d_d, sign=np.sign(beta_q),
                     exact=exact)
    if bounds:
        # An infinite ratio is an exact tie a candidate wins for t > 0, a
        # NaN one a tie that lasts along t; like a stop or an n-space step,
        # both give hi = 0.
        fixed = exact & np.isfinite(top)
        with np.errstate(divide="ignore"):
            along.update(hi=np.where(fixed, 1.0 / np.maximum(0.0, top), 0.0))
    return sel, resid_norms, m_actual, Rs, beta_q


def pick_bound(a, b, rows, j_pick, slack, stop_slope):
    """Reference for ``oga._pick_bound``, with a and b passed fresh."""
    sb = (np.sign(a[rows, j_pick]) * b[rows, j_pick])[:, None]
    s_a = np.abs(a[rows, j_pick])[:, None]
    a[rows, j_pick] = b[rows, j_pick] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        up = (b - sb) / (s_a - a)
        down = (-b - sb) / (s_a + a)  # c / r, so a tie's r is +0
        # Not stopping: s a_J + t s b_J > stop_tol (1 + t ||x_d|| / ||y||).
        stop_up = (stop_slope - sb[:, 0]) / slack
    return np.maximum(np.maximum(up.max(axis=1), down.max(axis=1)), stop_up)

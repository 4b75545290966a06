"""Greedy forward selection with an incrementally updated QR factorization.

At step k the column most correlated (after normalization) with the current
residual joins the model, the QR factorization is extended by one column,
and the residual is deflated along the new orthonormal direction. The
iteration count is either fixed by the caller or chosen by a BIC-style
criterion with a log(n) log(p) penalty over a path of ``default_iterations``
steps.

``oga`` (one response) and ``oga_path_batch`` (many responses against one
design, the workhorse of the resampling loops) share one loop,
``_greedy_paths``. It works in Gram space, with no n-vector per step: it
updates C = X'U and the rows q_i'X from the rows x_j'X of picked columns
(r1 = Q'x_j, r2^2 = x_j'x_j - |r1|^2, q'X = (x_j'X - r1'Q'X) / r2, C -= q'X
C_j / r2, ||U||^2 = ||y||^2 - sum (C_j / r2)^2). Where a difference cancels,
that response takes the step in n-space: the distance of x_j to the span if
r2^2 < 1e-6 x_j'x_j (so ``DEPENDENT_TOL`` keeps its meaning), the residual
y - X_J beta if ||U||^2 < 1e-8 ||y||^2 (so an exact fit has residual 0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# A candidate whose normalized correlation with the residual falls below
# RESIDUAL_TOL * ||Y|| is treated as zero (stops the path early).
RESIDUAL_TOL = 1e-13
# A new column whose component outside the selected span is below
# DEPENDENT_TOL * ||column|| is numerically dependent and stops the path.
DEPENDENT_TOL = 1e-10


@dataclass
class SelectionResult:
    """Output of a greedy selection run.

    ``j_hat`` preserves selection order; ``beta_oga`` is the length-p
    least-squares coefficient vector on the selected columns (zero
    elsewhere); ``residual_norms[k-1]`` is the residual norm after step k.
    ``m`` is the number of steps actually taken (may be below the request
    when the path stopped early, in which case ``early_stopped`` is True).
    """

    j_hat: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    beta_q: np.ndarray
    beta_oga: np.ndarray
    residual_norms: np.ndarray
    m: int
    early_stopped: bool = False


def _scatter_coefficients(
    p: int, j_hat: np.ndarray, R: np.ndarray, beta_q: np.ndarray
) -> np.ndarray:
    beta = np.zeros(p)
    if len(j_hat):
        beta[j_hat] = solve_triangular(R, beta_q, lower=False)
    return beta


def oga(X: np.ndarray, Y: np.ndarray, m: int) -> SelectionResult:
    """Run m greedy selection steps of Y on the columns of X.

    Zero-norm columns are never selected; ties in the correlation argmax go
    to the lowest column index. If every remaining candidate has (numerically)
    zero correlation with the residual, the path stops early with fewer
    than m steps. This is the single-response call of :func:`_greedy_paths`.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, p = X.shape
    if not 1 <= m <= min(n, p):
        raise ValueError(f"m must be in [1, min(n, p)]={min(n, p)}, got {m}")

    sel, resid_norms, m_actual, Rs, beta_q = _greedy_paths(X, Y[:, None], m)
    k = int(m_actual[0])
    j_arr, R, bq = sel[0, :k], Rs[0, :k, :k], beta_q[0, :k]
    Q = solve_triangular(R, X[:, j_arr].T, trans="T").T  # X_J R^-1
    return SelectionResult(j_hat=j_arr, Q=Q, R=R, beta_q=bq,
                           beta_oga=_scatter_coefficients(p, j_arr, R, bq),
                           residual_norms=resid_norms[0, :k], m=k,
                           early_stopped=k < m)


def truncate_selection(sel: SelectionResult, m: int, p: int) -> SelectionResult:
    """Keep the first m selection steps of a longer path."""
    if m > sel.m:
        raise ValueError(f"cannot truncate to {m} steps, path has {sel.m}")
    j_arr = sel.j_hat[:m]
    Q, R = sel.Q[:, :m], sel.R[:m, :m]
    beta_q = sel.beta_q[:m]
    beta = _scatter_coefficients(p, j_arr, R, beta_q)
    return SelectionResult(j_hat=j_arr, Q=Q, R=R, beta_q=beta_q, beta_oga=beta,
                           residual_norms=sel.residual_norms[:m], m=m,
                           early_stopped=False)


def default_iterations(n: int, p: int) -> int:
    """Path length 2 floor(sqrt(n / log p)), capped at min(n/2, p)."""
    if p < 2:
        return 1
    kn = 2 * int(np.sqrt(n / np.log(p)))
    return max(1, min(kn, n // 2, p))


def hdbic(residual_norms: np.ndarray, n: int, p: int) -> int:
    """Iteration count minimizing n log||U^(k)||^2 + k log(n) log(p).

    Ties go to the smallest k. An exactly zero residual norm wins
    immediately (its criterion value is -inf). Rows of a 2-d array are
    paths, NaN past their ends, and give one count each.
    """
    rn = np.asarray(residual_norms, dtype=float)
    if rn.ndim not in (1, 2) or rn.shape[-1] == 0:
        raise ValueError("residual_norms must be a nonempty 1-d or 2-d array")
    ks = np.arange(1, rn.shape[-1] + 1)
    with np.errstate(divide="ignore"):
        crit = n * np.log(rn**2) + ks * np.log(n) * np.log(p)
    m = np.argmin(np.where(np.isnan(crit), np.inf, crit), axis=-1) + 1
    return int(m) if rn.ndim == 1 else m


def oga_hdbic(X: np.ndarray, Y: np.ndarray, kn: int | None = None) -> SelectionResult:
    """Full-path greedy selection truncated at the HDBIC argmin."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if kn is None:
        kn = default_iterations(n, p)
    path = oga(X, Y, kn)
    if path.m == 0:
        return path
    m = hdbic(path.residual_norms, n, p)
    return truncate_selection(path, m, p)


def oga_path_batch(
    X: np.ndarray,
    Y_batch: np.ndarray,
    kn: int,
    col_norms: np.ndarray | None = None,
    gram_cols: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy selection paths for many responses against one design.

    Returns ``(sel, resid_norms, m_actual)`` where ``sel`` is (B, kn) of
    selected column indices in order (-1 padded), ``resid_norms`` is
    (B, kn) of residual norms after each step (NaN padded) and
    ``m_actual`` is (B,) path lengths. Selection rules match :func:`oga`.
    ``gram_cols`` (column index to x_j'X) is filled as columns are picked
    and may be shared by calls against the same X.
    """
    sel, resid_norms, m_actual, *_ = _greedy_paths(X, Y_batch, kn, col_norms,
                                                   gram_cols)
    return sel, resid_norms, m_actual


def _greedy_paths(
    X: np.ndarray,
    Y_batch: np.ndarray,
    kn: int,
    col_norms: np.ndarray | None = None,
    gram_cols: dict | None = None,
) -> tuple[np.ndarray, ...]:
    """The loop behind :func:`oga` and :func:`oga_path_batch`, in Gram space.

    Returns ``(sel, resid_norms, m_actual, R, beta_q)``: the outputs of
    :func:`oga_path_batch` plus, per response, the (kn, kn) R factor of the
    selected columns and the response's coefficients on Q = X_J R^-1.
    ``gram_cols`` caches the rows x_j'X of picked columns across calls.
    """
    X = np.asarray(X, dtype=float)
    Y_batch = np.asarray(Y_batch, dtype=float)
    n, p = X.shape
    B = Y_batch.shape[1]
    kn = min(kn, n, p)
    if col_norms is None:
        col_norms = np.linalg.norm(X, axis=0)
    gram_cols = {} if gram_cols is None else gram_cols
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

    for k in range(kn):
        scores = np.abs(C) / safe_norms
        scores[excluded] = -1.0
        j_pick = np.argmax(scores, axis=1)
        active &= scores[rows, j_pick] > stop_tol
        picks = j_pick.tolist()
        missing = sorted(set(picks) - gram_cols.keys())
        if missing:
            gram_cols.update(zip(missing, X[:, missing].T @ X))
        G_j = np.array([gram_cols[j] for j in picks])  # (B, p)
        g_jj = G_j[rows, j_pick]
        r1 = XtQ[rows, :k, j_pick]  # (B, k) = Q'x_j
        r2sq = g_jj - np.einsum("bk,bk->b", r1, r1)
        r2 = np.sqrt(np.maximum(r2sq, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # stopped paths
            xq = (G_j - np.matmul(r1[:, None, :], XtQ[:, :k])[:, 0]) / r2[:, None]
            bq = C[rows, j_pick] / r2
            # Cancellation in r2^2: the distance to the span in n-space.
            for b in (active & ~(r2sq >= 1e-6 * g_jj)).nonzero()[0]:
                Q = np.linalg.qr(X[:, sel[b, :k]])[0]
                qt = X[:, picks[b]] - Q @ (Q.T @ X[:, picks[b]])
                qt -= Q @ (Q.T @ qt)
                r2[b] = np.linalg.norm(qt)
                xq[b], bq[b] = qt @ X / r2[b], qt @ Y_batch[:, b] / r2[b]
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
        for b in (active & (rss < 1e-8 * yy)).nonzero()[0]:
            beta = solve_triangular(Rs[b, :k + 1, :k + 1], beta_q[b, :k + 1])
            u = Y_batch[:, b] - X[:, sel[b, :k + 1]] @ beta
            rss[b], C[b] = u @ u, u @ X
        resid_norms[upd, k] = np.sqrt(rss[upd])
        m_actual[upd] = k + 1

    return sel, resid_norms, m_actual, Rs, beta_q

"""Greedy forward selection with an incrementally updated QR factorization.

At step k the column most correlated (after normalization) with the current
residual joins the model, the QR factorization is extended by one column,
and the residual is deflated along the new orthonormal direction. The
iteration count is either fixed by the caller or chosen by a BIC-style
criterion with a log(n) log(p) penalty over a path of ``default_iterations``
steps.

``oga`` (one response) and ``oga_path_batch`` (many responses against one
design matrix, the workhorse of the resampling loops) share one loop,
``_greedy_paths``.
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

    sel, resid_norms, m_actual, Qs, Rs, beta_q = _greedy_paths(X, Y[:, None], m)
    k = int(m_actual[0])
    j_arr = sel[0, :k]
    R, bq = Rs[0, :k, :k], beta_q[0, :k]
    return SelectionResult(j_hat=j_arr, Q=Qs[0, :, :k], R=R, beta_q=bq,
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
    immediately (its criterion value is -inf).
    """
    rn = np.asarray(residual_norms, dtype=float)
    if rn.ndim != 1 or len(rn) == 0:
        raise ValueError("residual_norms must be a nonempty 1-d array")
    ks = np.arange(1, len(rn) + 1)
    with np.errstate(divide="ignore"):
        crit = n * np.log(rn**2) + ks * np.log(n) * np.log(p)
    return int(np.argmin(crit)) + 1


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy selection paths for many responses against one design.

    Returns ``(sel, resid_norms, m_actual)`` where ``sel`` is (B, kn) of
    selected column indices in order (-1 padded), ``resid_norms`` is
    (B, kn) of residual norms after each step (NaN padded) and
    ``m_actual`` is (B,) path lengths. Selection rules match :func:`oga`.
    """
    sel, resid_norms, m_actual, *_ = _greedy_paths(X, Y_batch, kn, col_norms)
    return sel, resid_norms, m_actual


def _greedy_paths(
    X: np.ndarray,
    Y_batch: np.ndarray,
    kn: int,
    col_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """The loop behind :func:`oga` and :func:`oga_path_batch`.

    Returns ``(sel, resid_norms, m_actual, Q, R, beta_q)``: the outputs of
    :func:`oga_path_batch` plus, per response, the (n, kn) and (kn, kn) QR
    factors of the selected columns and the response's coefficients on Q.
    """
    X = np.asarray(X, dtype=float)
    Y_batch = np.asarray(Y_batch, dtype=float)
    n, p = X.shape
    B = Y_batch.shape[1]
    kn = min(kn, min(n, p))
    if col_norms is None:
        col_norms = np.linalg.norm(X, axis=0)
    zero_cols = col_norms <= 0.0
    safe_norms = np.where(zero_cols, 1.0, col_norms)
    stop_tol = RESIDUAL_TOL * np.linalg.norm(Y_batch, axis=0)

    U = Y_batch.copy()
    Qs = np.zeros((B, n, kn))
    Rs = np.zeros((B, kn, kn))
    beta_q = np.zeros((B, kn))
    sel = np.full((B, kn), -1, dtype=int)
    resid_norms = np.full((B, kn), np.nan)
    selected = np.zeros((B, p), dtype=bool)
    active = np.ones(B, dtype=bool)
    m_actual = np.zeros(B, dtype=int)
    rows = np.arange(B)

    for k in range(kn):
        scores = (np.abs(X.T @ U) / safe_norms[:, None]).T  # (B, p)
        scores[:, zero_cols] = -1.0
        scores[selected] = -1.0
        j_pick = np.argmax(scores, axis=1)
        s_max = scores[rows, j_pick]
        active &= s_max > stop_tol

        xb = X[:, j_pick].T  # (B, n)
        if k:
            Qk = Qs[:, :, :k]
            QkT = Qk.transpose(0, 2, 1)
            r1 = (QkT @ xb[:, :, None])[:, :, 0]
            qt = xb - (Qk @ r1[:, :, None])[:, :, 0]
            # Re-orthogonalization pass keeps Q^T Q = I to ~1e-14.
            dr = (QkT @ qt[:, :, None])[:, :, 0]
            qt = qt - (Qk @ dr[:, :, None])[:, :, 0]
            r1 = r1 + dr
        else:
            r1 = np.zeros((B, 0))
            qt = xb.copy()
        r2 = np.linalg.norm(qt, axis=1)
        active &= r2 > DEPENDENT_TOL * col_norms[j_pick]
        if not active.any():
            break

        q = qt / np.where(r2 > 0.0, r2, 1.0)[:, None]
        bq = np.einsum("bn,bn->b", q, U.T)
        upd = active
        U[:, upd] -= (q[upd] * bq[upd, None]).T
        Qs[upd, :, k] = q[upd]
        Rs[upd, :k, k] = r1[upd]
        Rs[upd, k, k] = r2[upd]
        beta_q[upd, k] = bq[upd]
        sel[upd, k] = j_pick[upd]
        selected[rows[upd], j_pick[upd]] = True
        resid_norms[upd, k] = np.linalg.norm(U[:, upd], axis=0)
        m_actual[upd] = k + 1

    return sel, resid_norms, m_actual, Qs, Rs, beta_q

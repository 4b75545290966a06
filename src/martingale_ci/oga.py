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

Given a direction column d, the loop also records what a path says about
y + t x_d while it holds: per step the residual sum of squares rss_k,
C_d,k = x_d'U and D_d,k = x_d'(I-P_k)x_d (one scalar recurrence,
D_d <- D_d - (q_k'x_d)^2), so the residual norms are
sqrt(rss_k + 2 t C_d,k + t^2 D_d,k); the signs of the picks; and whether
the path ran its full length with no n-space step. On request it also
bounds how far t > 0 goes with the path the same. Along a fixed path the
normalized correlations a = C/||x|| move as a + t b with b = D/||x||,
D = X'(I-P_k)x_d, so the pick J (sign s) stays the argmax while
(b_i - s b_J) t <= s a_J - a_i and (-b_i - s b_J) t <= s a_J + a_i for
every candidate i. That carries the whole of D beside C.
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
# A residual sum of squares below RSS_RESCUE_TOL * ||Y||^2 has cancelled in
# Gram space and is recomputed from the residual in n-space.
RSS_RESCUE_TOL = 1e-8


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


def column_norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X, axis=0)`` bit for bit, with no n x p temporary.

    For a C-ordered X of two or more columns, ``np.linalg.norm`` adds the
    squares row after row; this adds them in the same order, a block of
    rows at a time, in unfused multiplies and adds (``einsum`` may fuse
    them). Any other layout, where ``np.linalg.norm`` may sum a column
    pairwise, goes to it.
    """
    n, p = X.shape
    if p < 2 or not X.flags.c_contiguous:
        return np.linalg.norm(X, axis=0)
    step = max(1, 2**16 // p)  # rows of about 512 kB of squares
    block = np.empty((step + 1, p))  # row 0 carries the sum so far
    total = np.zeros(p)
    for i in range(0, n, step):
        rows = X[i:i + step]
        block[0] = total
        np.multiply(rows, rows, out=block[1:len(rows) + 1])
        np.add.reduce(block[:len(rows) + 1], axis=0, out=total)
    return np.sqrt(total)


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


def oga_hdbic(X: np.ndarray, Y: np.ndarray) -> SelectionResult:
    """Greedy path of ``default_iterations`` steps truncated at the HDBIC argmin."""
    n, p = np.shape(X)
    path = oga(X, Y, default_iterations(n, p))
    if path.m == 0:
        return path
    m = hdbic(path.residual_norms, n, p)
    return truncate_selection(path, m, p)


def oga_path_batch(
    X: np.ndarray,
    Y_batch: np.ndarray,
    kn: int,
    col_norms: np.ndarray | None = None,
    gram: np.ndarray | None = None,
    direction: int | None = None,
    along: dict | None = None,
    bounds: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy selection paths for many responses against one design.

    Returns ``(sel, resid_norms, m_actual)`` where ``sel`` is (B, kn) of
    selected column indices in order (-1 padded), ``resid_norms`` is
    (B, kn) of residual norms after each step (NaN padded) and
    ``m_actual`` is (B,) path lengths. Selection rules match :func:`oga`.
    ``gram`` is X'X, if known; calls against the same X may share it. With
    a ``direction`` column d, ``along`` is filled with what each path says
    along x_d, and with ``bounds`` also with how far along it holds (see
    :func:`_greedy_paths`).

    A path's bits depend on the other responses in its batch: C = Y'X is
    one matrix product, whose rounding changes with the batch width. So
    splitting or merging a batch keeps every response's picks, path
    length, signs and ``exact`` flag but may move its residual norms,
    ``rss``, ``c_d`` and ``hi`` by rounding. A batch of the same responses
    gives the same bits whatever ran before it.
    """
    sel, resid_norms, m_actual, *_ = _greedy_paths(X, Y_batch, kn, col_norms,
                                                   gram, direction, along,
                                                   bounds)
    return sel, resid_norms, m_actual


def _greedy_paths(
    X: np.ndarray,
    Y_batch: np.ndarray,
    kn: int,
    col_norms: np.ndarray | None = None,
    gram: np.ndarray | None = None,
    direction: int | None = None,
    along: dict | None = None,
    bounds: bool = False,
) -> tuple[np.ndarray, ...]:
    """The loop behind :func:`oga` and :func:`oga_path_batch`, in Gram space.

    Returns ``(sel, resid_norms, m_actual, R, beta_q)``: the outputs of
    :func:`oga_path_batch` plus, per response, the (kn, kn) R factor of the
    selected columns and the response's coefficients on Q = X_J R^-1.
    A step gathers its picks' rows x_j'X from ``gram`` (X'X) when given
    and computes them otherwise, so a path never depends on other calls.

    With a ``direction`` column d the loop fills ``along`` with (B, kn)
    arrays ``rss``, ``c_d`` and ``d_d``, the residual sum of squares, C_d
    and D_d after each step (NaN padded), ``sign``, the signs of
    ``beta_q`` (0 padded), and the (B,) mask ``exact`` of paths that ran
    all kn steps with no n-space step. With ``bounds`` it also carries
    D = X'(I-P_k)x_d beside C and adds the (B,) array ``hi``: for
    0 <= t < hi, y + t x_d takes the same path and, by a conservative bound
    on the stopping rule, does not stop early. A path that is not exact,
    or meets an exact tie that a candidate wins or keeps for t > 0, gets
    ``hi = 0``.
    """
    X = np.asarray(X, dtype=float)
    Y_batch = np.asarray(Y_batch, dtype=float)
    n, p = X.shape
    B = Y_batch.shape[1]
    kn = min(kn, n, p)
    if col_norms is None:
        col_norms = column_norms(X)
    safe_norms = np.where(col_norms <= 0.0, 1.0, col_norms)
    zero = np.flatnonzero(col_norms <= 0.0)
    yy = np.einsum("nb,nb->b", Y_batch, Y_batch)
    stop_tol = RESIDUAL_TOL * np.sqrt(yy)

    C = Y_batch.T @ X  # (B, p): correlations X'U with the current residuals
    XtQ = np.empty((kn, B, p))  # rows q_k'X of Q, step-major, each set before read
    QtX = XtQ.transpose(1, 0, 2)  # the same rows by response, (B, kn, p)
    rss, Rs, beta_q = yy.copy(), np.zeros((B, kn, kn)), np.zeros((B, kn))
    sel, m_actual = np.full((B, kn), -1, dtype=int), np.zeros(B, dtype=int)
    resid_norms = np.full((B, kn), np.nan)
    active, rows = np.ones(B, dtype=bool), np.arange(B)
    dependent_tol, rescue_tol = DEPENDENT_TOL * col_norms, RSS_RESCUE_TOL * yy
    if direction is not None:
        dd = np.full(B, X[:, direction] @ X[:, direction])  # x_d'(I-P_k)x_d
        rss_k, c_d, d_d = (np.full((B, kn), np.nan) for _ in range(3))
        exact = np.ones(B, dtype=bool)  # no n-space step
    if bounds:
        D = np.tile(X[:, direction] @ X, (B, 1))  # X'(I-P_k)x_d
        top = np.zeros(B)  # 1/hi so far
        stop_slope = RESIDUAL_TOL * col_norms[direction]  # ||y+tx_d|| growth

    # Every path takes every step; a stopped path's steps are wiped at the
    # end, so what they compute (NaN, inf) is never read.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(kn):
            a = C / safe_norms  # normalized correlations
            scores = np.abs(a)
            scores[rows[:, None], sel[:, :k]] = -1.0
            if zero.size:
                scores[:, zero] = -1.0
            j_pick = np.argmax(scores, axis=1)
            best = scores[rows, j_pick]
            active &= best > stop_tol
            xq = XtQ[k]  # the picks' Gram rows x_j'X, turned into q'X below
            if gram is None:
                np.matmul(X[:, j_pick].T, X, out=xq)
            else:
                np.take(gram, j_pick, axis=0, out=xq)
            g_jj = xq[rows, j_pick]
            r1 = QtX[rows, :k, j_pick]  # (B, k) = Q'x_j
            r2sq = g_jj - np.einsum("bk,bk->b", r1, r1)
            r2 = np.sqrt(np.maximum(r2sq, 0.0))
            far = r2sq >= 1e-6 * g_jj
            if direction is not None:
                exact &= far
            if bounds:
                top = np.maximum(top, _pick_bound(a, D / safe_norms, rows, j_pick,
                                                  best - stop_tol, stop_slope))
            xq -= np.matmul(r1[:, None, :], QtX[:, :k])[:, 0]
            xq /= r2[:, None]
            bq = C[rows, j_pick] / r2
            # Cancellation in r2^2: the distance to the span in n-space.
            for b in np.flatnonzero(active & ~far):
                Q = np.linalg.qr(X[:, sel[b, :k]])[0]
                qt = X[:, j_pick[b]] - Q @ (Q.T @ X[:, j_pick[b]])
                qt -= Q @ (Q.T @ qt)
                r2[b] = np.linalg.norm(qt)
                xq[b], bq[b] = qt @ X / r2[b], qt @ Y_batch[:, b] / r2[b]
            if bounds:
                D -= xq * (D[rows, j_pick] / r2)[:, None]
            active &= r2 > dependent_tol[j_pick]
            if not active.any():
                break

            C -= xq * bq[:, None]
            Rs[:, :k, k] = r1
            Rs[:, k, k] = r2
            beta_q[:, k] = bq
            sel[:, k] = j_pick
            rss -= bq ** 2
            # Cancellation in ||y||^2 - sum bq^2: recompute y - X_J beta.
            rescue = np.flatnonzero(active & (rss < rescue_tol))
            for b in rescue:
                beta = solve_triangular(Rs[b, :k + 1, :k + 1], beta_q[b, :k + 1])
                u = Y_batch[:, b] - X[:, sel[b, :k + 1]] @ beta
                rss[b], C[b] = u @ u, u @ X
            resid_norms[:, k] = np.sqrt(rss)
            m_actual += active
            if direction is not None:
                exact[rescue] = False
                dd -= xq[:, direction] ** 2
                rss_k[:, k], c_d[:, k], d_d[:, k] = rss, C[:, direction], dd

    past = np.arange(kn) >= m_actual[:, None]  # steps after a path stopped
    sel[past], resid_norms[past], beta_q[past] = -1, np.nan, 0.0
    Rs.transpose(0, 2, 1)[past] = 0.0
    if direction is not None:
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


def _pick_bound(a, b, rows, j_pick, slack, stop_slope):
    """Largest c/r over the constraints c t <= r that keep this step's
    picks, per response: 1/hi of the step.

    ``a``/``b`` are the normalized correlations and their slopes along the
    direction before the step (both overwritten), ``slack`` = s a_J -
    stop_tol. Every r >= 0, so only c > 0 bounds t above. Selected and
    zero columns (a and b zero up to rounding) and the pick (zeroed here)
    only give s a_J + t s b_J >= 0, which every candidate already implies.
    """
    sb = (np.sign(a[rows, j_pick]) * b[rows, j_pick])[:, None]
    s_a = np.abs(a[rows, j_pick])[:, None]
    a[rows, j_pick] = b[rows, j_pick] = 0.0
    up = b - sb
    up /= s_a - a
    down = b + sb
    down /= s_a + a  # -c / r, so a tie's r is +0
    # Not stopping: s a_J + t s b_J > stop_tol (1 + t ||x_d|| / ||y||).
    stop_up = (stop_slope - sb[:, 0]) / slack
    return np.maximum(np.maximum(up.max(axis=1), -down.min(axis=1)), stop_up)

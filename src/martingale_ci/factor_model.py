"""Common-factor estimation by principal components.

The factor count is chosen by minimizing an information criterion over
k = 1..k_max, and the factor matrix is rescaled so that F^T F / n equals the
identity. With that normalization the least-squares loadings for a given k
are Lambda = X^T F / n and the residual sum of squares V(k) is ||X||_F^2
minus the top k eigenvalues of the Gram matrix. Only the top k_max
eigenpairs are needed, so they come from a truncated eigendecomposition of
the smaller of X X^T and X^T X rather than a full SVD of X.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh


class NumericInputError(ValueError):
    """Raised when an input matrix contains non-finite entries."""


class DecompositionError(np.linalg.LinAlgError):
    """Raised when the underlying eigensolver fails to converge."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a projection target is rank deficient."""


@dataclass
class FactorEstimate:
    """Estimated factor count and rescaled factor matrix.

    ``ic_values[k-1]`` and ``v_values[k-1]`` hold IC(k) and V(k) for
    k = 1..k_max; ``k_hat`` is the IC argmin (smallest k on ties).
    """

    k_hat: int
    F_hat: np.ndarray
    ic_values: np.ndarray
    v_values: np.ndarray


def estimate_factors(X: np.ndarray, k_max: int) -> FactorEstimate:
    """Estimate the number of factors and the rescaled factor matrix.

    For each k the factors are sqrt(n) times the top-k left singular
    vectors of X (equivalently: X Lambda / p with Lambda built from the
    leading eigenvectors of X^T X, rescaled to F^T F / n = I), and

        V(k)  = min_Lambda ||X - F^k Lambda^T||_F^2
        IC(k) = log V(k) + k ((n+p)/(np)) log(np/(n+p))

    The top k_max eigenpairs (lambda_i, v_i) of G = X X^T (n <= p) or
    G = X^T X (n > p) give V(k) = ||X||_F^2 - sum_{i<=k} lambda_i and the
    left singular vectors v_i or X v_i / sqrt(lambda_i). Eigenvalues at or
    below the Gram's roundoff level, min(n, p) eps lambda_1, count as zero,
    as the squared singular values past an exact rank would.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise NumericInputError("X must be a 2-d array")
    n, p = X.shape
    if not np.all(np.isfinite(X)):
        raise NumericInputError("X contains non-finite entries")
    d = min(n, p)
    if not 1 <= k_max <= d:
        raise ValueError(f"k_max must be in [1, min(n, p)]={d}, got {k_max}")

    G = X @ X.T if n <= p else X.T @ X
    total = float(np.trace(G))
    if total == 0.0:
        raise NumericInputError("X is all zeros: it has no factors")
    try:
        lam, vecs = eigh(G, subset_by_index=[d - k_max, d - 1],
                         overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("eigendecomposition of the Gram matrix failed") from exc
    lam, vecs = lam[::-1], vecs[:, ::-1]
    lam = np.where(lam > d * np.finfo(float).eps * lam[0], lam, 0.0)

    # V(k) = ||X||_F^2 minus the top-k eigenvalues; guard tiny negative
    # round-off from the subtraction.
    v_values = np.maximum(total - np.cumsum(lam), 0.0)

    penalty = (n + p) / (n * p) * np.log(n * p / (n + p))
    ks = np.arange(1, k_max + 1)
    with np.errstate(divide="ignore"):
        ic_values = np.log(v_values) + ks * penalty

    k_hat = int(np.argmin(ic_values)) + 1
    U = vecs[:, :k_hat] if n <= p else X @ vecs[:, :k_hat] / np.sqrt(lam[:k_hat])
    F_hat = np.sqrt(n) * U
    return FactorEstimate(k_hat=k_hat, F_hat=F_hat, ic_values=ic_values,
                          v_values=v_values)


def complement_projection(F_hat: np.ndarray | None, A: np.ndarray) -> np.ndarray:
    """Project A onto the orthogonal complement of the columns of F_hat.

    Returns (I - F (F^T F)^{-1} F^T) A. An empty (or None) F_hat means no
    factors: A is returned unchanged. Raises SingularMatrixError if F_hat
    is rank deficient.
    """
    A = np.asarray(A, dtype=float)
    if F_hat is None:
        return A.copy()
    F_hat = np.asarray(F_hat, dtype=float)
    if F_hat.ndim != 2 or F_hat.shape[1] == 0:
        return A.copy()
    if F_hat.shape[0] != A.shape[0]:
        raise ValueError("F_hat and A must have the same number of rows")

    Q, R = np.linalg.qr(F_hat)
    diag = np.abs(np.diag(R))
    if diag.min() <= diag.max() * np.finfo(float).eps * max(F_hat.shape):
        raise SingularMatrixError("F_hat is rank deficient")
    # Two projection passes keep the result orthogonal to F_hat at the
    # 1e-10 level even for ill-scaled inputs.
    out = A - Q @ (Q.T @ A)
    out -= Q @ (Q.T @ out)
    return out

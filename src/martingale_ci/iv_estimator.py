"""Factor-projected instrumental-variable estimation on a selected column set.

The selected columns are projected onto the orthogonal complement of the
estimated factors, the coefficients solve the normal equations of the
projected design, and the residuals are taken against the *unprojected*
columns (they keep the factor component, which the resampler needs).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .factor_model import complement_projection

# Beyond this condition number the projected gram is treated as singular.
CONDITION_LIMIT = 1e12


class SingularGramError(np.linalg.LinAlgError):
    """Projected gram matrix is numerically singular.

    Carries the offending condition-number estimate in ``condition``.
    """

    def __init__(self, condition: float):
        self.condition = condition
        super().__init__(
            f"projected gram matrix is singular (condition estimate {condition:.3e})"
        )


@dataclass
class IvEstimate:
    """Projected-design coefficient estimate for one selected set."""

    j: np.ndarray
    beta_tilde: np.ndarray
    x_tilde: np.ndarray
    gram: np.ndarray
    residuals: np.ndarray


def iv_estimate(
    X: np.ndarray,
    Y: np.ndarray,
    J: np.ndarray,
    F_hat: np.ndarray | None,
) -> IvEstimate:
    """Estimate coefficients for columns J after projecting out F_hat.

    With an empty F_hat the projection is the identity and the result is
    the ordinary least-squares fit on X_J. Residuals are Y - X_J beta.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    J = np.asarray(J, dtype=int)
    n = X.shape[0]
    k = 0 if F_hat is None else np.asarray(F_hat).shape[1]
    if len(J) > n - k:
        raise ValueError(f"|J|={len(J)} exceeds n - k = {n - k}")
    if len(J) == 0:
        return IvEstimate(j=J, beta_tilde=np.zeros(0), x_tilde=np.zeros((n, 0)),
                          gram=np.zeros((0, 0)), residuals=Y.copy())

    X_J = X[:, J]
    x_tilde = complement_projection(F_hat, X_J)
    gram = x_tilde.T @ x_tilde
    beta = solve_gram(gram, x_tilde.T @ Y)
    residuals = Y - X_J @ beta
    return IvEstimate(j=J, beta_tilde=beta, x_tilde=x_tilde, gram=gram,
                      residuals=residuals)


def solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ beta = rhs with a condition-number guard.

    Raises SingularGramError instead of silently regularizing when the
    gram matrix is ill conditioned.
    """
    gram = np.asarray(gram, dtype=float)
    eigs = np.linalg.eigvalsh(gram)
    if eigs[-1] <= 0.0 or eigs[0] <= 0.0:
        raise SingularGramError(np.inf)
    condition = eigs[-1] / eigs[0]
    if condition > CONDITION_LIMIT:
        raise SingularGramError(condition)
    try:
        c = cho_factor(gram, lower=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularGramError(condition) from exc
    return cho_solve(c, rhs)


"""Factor-projected instrumental-variable estimation on a selected column set.

The selected columns are projected onto the orthogonal complement of the
estimated factors, the coefficients solve the normal equations of the
projected design, and the residuals are taken against the *unprojected*
columns (they keep the factor component, which the resampler needs).
:func:`fit_selected` is the one guarded least-squares fit behind every
selected-set estimate: ``StatisticEngine.estimate``, the cross-fit
(:func:`iv_estimate`), ``generate_w``, ``t_interval`` and ``ps_interval``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .factor_model import complement_projection

# Beyond this condition number the projected gram is treated as singular.
CONDITION_LIMIT = 1e12
# A projected column that keeps less than this share of its norm is the
# projection's rounding, not a column: its set is treated as singular.
PROJECTED_NORM_FLOOR = 1e-8


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

    beta_tilde: np.ndarray
    x_tilde: np.ndarray
    inv_gram: np.ndarray  # (x_tilde'x_tilde)^-1, the sandwich's bread
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
    X_J = X[:, J]
    return fit_selected(complement_projection(F_hat, X_J), X_J, Y)


def fit_selected(x_tilde: np.ndarray, X_J: np.ndarray, Y: np.ndarray) -> IvEstimate:
    """Least squares of Y on x_tilde, the projected columns X_J of a set.

    One guarded factorization of x_tilde'x_tilde (:func:`factor_gram`,
    ``SingularGramError`` otherwise) gives the coefficients and the inverse
    gram; the residuals are Y - X_J beta. A column of x_tilde that keeps
    less than ``PROJECTED_NORM_FLOOR`` of its norm in X_J raises it too
    (condition inf). ``Y`` is one response (n,) or a
    block (n, b) of responses, giving coefficients (m,) or (m, b). An
    empty set gives empty coefficients and residuals equal to Y.
    """
    m = x_tilde.shape[1]
    beta, inv_gram = np.zeros((0,) + Y.shape[1:]), np.zeros((0, 0))
    if m:
        gram = x_tilde.T @ x_tilde
        if not (np.diag(gram) >= PROJECTED_NORM_FLOOR**2 * (X_J**2).sum(axis=0)).all():
            raise SingularGramError(np.inf)
        factor = factor_gram(gram)
        beta = cho_solve(factor, x_tilde.T @ Y, check_finite=False)
        inv_gram = cho_solve(factor, np.eye(m), check_finite=False)
    return IvEstimate(beta_tilde=beta, x_tilde=x_tilde, inv_gram=inv_gram,
                      residuals=Y - X_J @ beta)


def factor_gram(gram: np.ndarray) -> tuple:
    """Cholesky factor of a projected gram matrix, behind a condition guard.

    Raises SingularGramError instead of silently regularizing when the
    gram matrix is ill conditioned, indefinite, or not finite.
    """
    gram = np.asarray(gram, dtype=float)
    eigs = np.linalg.eigvalsh(gram) if np.isfinite(gram).all() else [np.nan]
    condition = eigs[-1] / eigs[0] if eigs[0] > 0.0 else np.inf
    if not condition <= CONDITION_LIMIT:  # also catches NaN
        raise SingularGramError(condition)
    return cho_factor(gram, lower=False, check_finite=False)

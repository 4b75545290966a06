import numpy as np
import pytest
from scipy.linalg import cho_solve

from martingale_ci import iv_estimator
from martingale_ci.dgp import DgpConfig, generate, make_beta
from martingale_ci.factor_model import estimate_factors
from martingale_ci.harness import interval
from martingale_ci.hybrid import StatisticEngine
from martingale_ci.inference import StatConfig, t_interval
from martingale_ci.iv_estimator import (
    SingularGramError,
    factor_gram,
    iv_estimate,
)
from martingale_ci.ps import ps_interval


def orthogonal_factor_instance(seed, n=60, m=4, k=2):
    """Selected columns F lam + E with E exactly orthogonal to F."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, k))
    q, _ = np.linalg.qr(F)
    E = rng.standard_normal((n, m))
    E -= q @ (q.T @ E)
    lam = rng.standard_normal((k, m))
    X_J = F @ lam + E
    return F, E, X_J


class TestIvEstimate:
    def test_empty_factor_equals_ols(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 8))
        Y = rng.standard_normal(50)
        J = np.array([1, 4, 6])
        est = iv_estimate(X, Y, J, None)
        ols, *_ = np.linalg.lstsq(X[:, J], Y, rcond=None)
        assert np.allclose(est.beta_tilde, ols, atol=1e-10)

    def test_exact_recovery_with_orthogonal_noise(self):
        F, E, X_J = orthogonal_factor_instance(1)
        beta = np.array([0.5, -1.0, 2.0, 0.25])
        Y = X_J @ beta
        n = X_J.shape[0]
        X = np.hstack([X_J, np.random.default_rng(2).standard_normal((n, 3))])
        est = iv_estimate(X, Y, np.arange(4), F)
        assert np.allclose(est.beta_tilde, beta, atol=1e-8)
        assert np.max(np.abs(est.residuals)) < 1e-8

    def test_residuals_use_unprojected_columns(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 10))
        Y = rng.standard_normal(50)
        fe = estimate_factors(X, 3)
        J = np.array([0, 2, 5])
        est = iv_estimate(X, Y, J, fe.F_hat)
        assert np.allclose(est.residuals, Y - X[:, J] @ est.beta_tilde,
                           atol=1e-12)

    def test_projected_design_orthogonal_to_factors(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 12))
        Y = rng.standard_normal(60)
        fe = estimate_factors(X, 4)
        est = iv_estimate(X, Y, np.array([1, 3]), fe.F_hat)
        assert np.linalg.norm(fe.F_hat.T @ est.x_tilde) < 1e-8

    def test_square_interpolation_zero_residual(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 6)) + 4 * np.eye(6)
        Y = rng.standard_normal(6)
        est = iv_estimate(X, Y, np.arange(6), None)
        assert np.max(np.abs(est.residuals)) < 1e-8

    def test_invariant_to_factor_span_shift(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 8))
        Y = rng.standard_normal(60)
        fe = estimate_factors(X, 2)
        J = np.array([0, 3, 4])
        base = iv_estimate(X, Y, J, fe.F_hat)
        shift = fe.F_hat @ rng.standard_normal((fe.k_hat, len(J)))
        X2 = X.copy()
        X2[:, J] += shift
        shifted = iv_estimate(X2, Y, J, fe.F_hat)
        assert np.allclose(base.beta_tilde, shifted.beta_tilde, atol=1e-8)

    def test_singular_gram_raises_with_condition(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 4))
        X[:, 3] = X[:, 0]
        Y = rng.standard_normal(40)
        with pytest.raises(SingularGramError) as err:
            iv_estimate(X, Y, np.array([0, 3]), None)
        assert err.value.condition > 1e12 or np.isinf(err.value.condition)

    def test_selection_too_large_rejected(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 12))
        with pytest.raises(ValueError):
            iv_estimate(X, rng.standard_normal(10), np.arange(11), None)

    def test_empty_selection(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 5))
        Y = rng.standard_normal(20)
        est = iv_estimate(X, Y, np.array([], dtype=int), None)
        assert est.beta_tilde.shape == (0,)
        assert np.array_equal(est.residuals, Y)


class TestSolveGram:
    """Gram systems solved through the guarded factorization."""

    def test_solves_well_conditioned(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((6, 6))
        gram = A.T @ A + 6 * np.eye(6)
        rhs = rng.standard_normal(6)
        x = cho_solve(factor_gram(gram), rhs)
        assert np.allclose(gram @ x, rhs, atol=1e-9)

    def test_condition_guard(self):
        gram = np.diag([1.0, 1e-14])
        with pytest.raises(SingularGramError):
            factor_gram(gram)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        # Comparisons with NaN are False, so the guard must be written to
        # fail closed rather than rely on the factorization to notice.
        for where in ((0, 0), (0, 1), (1, 1)):
            gram = np.diag([2.0, 3.0])
            gram[where] = gram[where[::-1]] = bad
            with pytest.raises(SingularGramError):
                factor_gram(gram)


class TestOneGuard:
    """Every selected-set fit goes through ``iv_estimator.factor_gram``."""

    @pytest.fixture()
    def refused(self, monkeypatch):
        """An observed fit, after which the guard refuses every gram."""
        ds = generate(DgpConfig(setting="IID", n=80, p=30, seed=1), make_beta(30))
        engine = StatisticEngine(ds.X, StatConfig())
        fit = engine.fit(ds.Y)
        assert len(fit.j_hat)

        def refuse(gram):
            raise SingularGramError(np.inf)

        monkeypatch.setattr(iv_estimator, "factor_gram", refuse)
        return ds, engine, fit

    def test_every_fit_raises(self, refused):
        ds, engine, fit = refused
        j = int(fit.j_hat[0])
        fits = [
            lambda: engine.fit(ds.Y),
            lambda: iv_estimate(ds.X, ds.Y, fit.j_hat, engine.factors.F_hat),
            lambda: t_interval(ds.X, ds.Y, fit.j_hat, j, 0.2),
            lambda: ps_interval(ds.X, ds.Y, fit.selection, j, 0.2, 1.0),
        ]
        for call in fits:
            with pytest.raises(SingularGramError):
                call()

    @pytest.mark.parametrize("method", ["t", "ps"])
    def test_interval_flags_the_failure(self, refused, method):
        ds, engine, fit = refused
        lb, ub, flags = interval(method, int(fit.j_hat[0]), ds, fit.selection,
                                 None, None, "one", 0.2, ps_sigma=1.0)
        assert (np.isnan(lb), ub, flags) == (True, np.inf,
                                             "failed:SingularGramError")

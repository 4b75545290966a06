import math

import numpy as np
import pytest
from scipy.stats import norm, t as t_dist

from martingale_ci.hybrid import fit_pipeline, test_statistic as eval_statistic
from martingale_ci.inference import (
    CovEstimate,
    InvalidTruncationError,
    SIDE_ONE,
    SIDE_TWO,
    StatConfig,
    covariance,
    iv_interval,
    t_interval,
    truncnorm_sf,
)
from martingale_ci.iv_estimator import IvEstimate


def make_estimate(seed=0, n=40, m=3):
    rng = np.random.default_rng(seed)
    x_tilde = rng.standard_normal((n, m))
    resid = rng.standard_normal(n)
    return IvEstimate(j=np.arange(m), beta_tilde=rng.standard_normal(m),
                      x_tilde=x_tilde, gram=x_tilde.T @ x_tilde,
                      residuals=resid)


class TestCovariance:
    def test_hac_q0_equals_uncorrelated_squared(self):
        # q = 0 is the sandwich with meat X~' diag(w^2) X~.
        est = make_estimate()
        a = covariance(est, q=0)
        S = est.x_tilde.T @ (est.x_tilde * est.residuals[:, None] ** 2)
        bread = np.linalg.inv(est.gram)
        expect = len(est.residuals) * bread @ S @ bread
        assert np.max(np.abs(a.V - expect)) < 1e-10

    def test_bartlett_weight_q1(self):
        est = make_estimate(1)
        G = est.x_tilde * est.residuals[:, None]
        gamma0 = G.T @ G
        A = G[1:].T @ G[:-1]
        expect_S = gamma0 + 0.5 * (A + A.T)
        got = covariance(est, q=1)
        assert np.allclose(got.S, expect_S, atol=1e-12)

    def test_scalar_hand_computation(self):
        n = 12
        resid = np.arange(1.0, n + 1.0)
        ones = np.ones((n, 1))
        est = IvEstimate(j=np.array([0]), beta_tilde=np.array([1.0]),
                         x_tilde=ones, gram=ones.T @ ones, residuals=resid)
        cov = covariance(est, q=0)
        assert np.isclose(cov.V[0, 0], n * np.sum(resid**2) / n**2)


class TestTestStatistic:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.X = rng.standard_normal((80, 12))
        self.Y = 1.5 * self.X[:, 4] + 0.9 * self.X[:, 7] + rng.standard_normal(80)
        self.cfg = StatConfig(kmax=3, q=1, side=SIDE_TWO)

    def test_zero_at_point_estimate(self):
        fit = fit_pipeline(self.X, self.Y, self.cfg)
        j = int(fit.j_hat[0])
        beta_j = fit.estimate.beta_tilde[0]
        assert eval_statistic(self.X, self.Y, j, beta_j, self.cfg) == 0.0

    def test_sentinels_for_unselected(self):
        X = self.X.copy()
        X[:, 9] = 0.0
        assert eval_statistic(X, self.Y, 9, 0.0, self.cfg) == 0.0
        one_sided = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        assert eval_statistic(X, self.Y, 9, 0.0, one_sided) == -np.inf

    def test_matches_hand_computation(self):
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        fit = fit_pipeline(self.X, self.Y, cfg)
        j = int(fit.j_hat[0])
        sigma = fit.sigma[0]
        theta = 0.3
        expect = (fit.estimate.beta_tilde[0] - theta) / sigma
        assert np.isclose(eval_statistic(self.X, self.Y, j, theta, cfg), expect)

    def test_antisymmetric_around_estimate(self):
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        fit = fit_pipeline(self.X, self.Y, cfg)
        j = int(fit.j_hat[0])
        b = float(fit.estimate.beta_tilde[0])
        for d in (0.05, 0.2, 1.0):
            s1 = eval_statistic(self.X, self.Y, j, b - d, cfg)
            s2 = eval_statistic(self.X, self.Y, j, b + d, cfg)
            assert abs(s1 + s2) < 1e-9


class TestBaselineIntervals:
    def test_t_interval_orthonormal_unit_scale(self):
        rng = np.random.default_rng(4)
        n, m = 30, 3
        q, _ = np.linalg.qr(rng.standard_normal((n, m + 1)))
        X_J, extra = q[:, :m], q[:, m]
        beta = np.array([1.0, -0.5, 2.0])
        # Residual orthogonal to X_J with squared norm n - m makes s = 1.
        resid = extra * math.sqrt(n - m)
        Y = X_J @ beta + resid
        X = np.hstack([X_J, rng.standard_normal((n, 2))])
        rep = t_interval(X, Y, np.arange(m), 1, alpha=0.2)
        beta_hat = X_J.T @ Y
        expect = beta_hat[1] - t_dist.ppf(0.8, n - m) * 1.0
        assert np.isclose(rep.lower, expect, atol=1e-8)
        assert rep.upper == np.inf

    def test_t_interval_two_sided(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 6))
        Y = rng.standard_normal(40)
        rep = t_interval(X, Y, np.array([0, 2]), 2, 0.1, side=SIDE_TWO)
        assert rep.lower <= rep.upper < np.inf

    def test_iv_interval_unit_variance(self):
        n, m = 25, 2
        est = make_estimate(6, n=n, m=m)
        V = np.eye(m) * n  # V_jj = n so sigma_j = 1
        cov = CovEstimate(V=V, S=V, q=0)
        rep = iv_interval(est, cov, 1, alpha=0.1)
        assert np.isclose(rep.lower, est.beta_tilde[1] - 1.2816, atol=5e-5)
        assert rep.upper == np.inf


class TestTruncnorm:
    def test_untruncated_is_normal_sf(self):
        for x in (-2.0, -0.5, 0.0, 1.3):
            assert np.isclose(truncnorm_sf(x, 0, 1, -np.inf, np.inf),
                              norm.sf(x), atol=1e-12)

    def test_boundary_values(self):
        assert truncnorm_sf(-1.0, 0, 1, -1, 2) == 1.0
        assert truncnorm_sf(2.0, 0, 1, -1, 2) == 0.0

    def test_half_normal_hand_value(self):
        # (1 - Phi(1)) / 0.5 with Phi(1) = 0.84134 -> 0.31731.
        got = truncnorm_sf(1.0, 0.0, 1.0, 0.0, np.inf)
        assert abs(got - 0.31731) < 1e-5

    def test_nonincreasing_in_x(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu = rng.normal()
            a = mu - abs(rng.normal()) - 0.5
            b = mu + abs(rng.normal()) + 0.5
            xs = np.sort(rng.uniform(a, b, size=15))
            vals = [truncnorm_sf(x, mu, 1.0, a, b) for x in xs]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_strictly_increasing_in_mu(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = -1.5, 2.5
            x = rng.uniform(a + 0.1, b - 0.1)
            mus = np.linspace(-3, 3, 9)
            vals = [truncnorm_sf(x, mu, 1.0, a, b) for mu in mus]
            assert np.all(np.diff(vals) > 0)

    def test_extreme_tail_stability(self):
        # Deep in the upper tail, against the ratio of normal tail
        # probabilities (which norm.sf still resolves at 8 to 9).
        s = truncnorm_sf(8.5, 0.0, 1.0, 8.0, 9.0)
        assert 0.0 < s < 1.0
        assert np.isclose(s, (norm.sf(8.5) - norm.sf(9.0))
                          / (norm.sf(8.0) - norm.sf(9.0)), rtol=1e-9)
        # Far-tail mean parameters keep returning finite probabilities.
        assert truncnorm_sf(1.0, -40.0, 1.0, 0.0, np.inf) >= 0.0
        assert truncnorm_sf(1.0, 40.0, 1.0, 0.0, np.inf) <= 1.0

    def test_invalid_truncation_rejected(self):
        with pytest.raises(InvalidTruncationError):
            truncnorm_sf(0.5, 0, 1, 2.0, 1.0)
        with pytest.raises(InvalidTruncationError):
            truncnorm_sf(0.5, 0, 1, 1.0, 1.0)
        with pytest.raises(InvalidTruncationError):
            truncnorm_sf(0.5, 0, 0.0, -1.0, 1.0)

import numpy as np
import pytest

from martingale_ci.dgp import DgpConfig, generate, make_beta
from martingale_ci.factor_model import (
    NumericInputError,
    SingularMatrixError,
    complement_projection,
    estimate_factors,
)


def factor_data(rng, n, p, r, noise_scale):
    F = rng.standard_normal((n, r))
    lam = rng.standard_normal((p, r))
    E = noise_scale * rng.standard_normal((n, p))
    return F @ lam.T + E, F


class TestEstimateFactors:
    def test_noiseless_rank3_recovers_rank(self):
        rng = np.random.default_rng(0)
        X, _ = factor_data(rng, 100, 100, 3, 0.0)
        fe = estimate_factors(X, 5)
        assert fe.k_hat == 3
        assert fe.v_values[2] <= 1e-6 * np.sum(X**2)

    def test_single_column_exact_fit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 1))
        fe = estimate_factors(x, 1)
        # F proportional to the column, zero residual.
        c = np.corrcoef(fe.F_hat[:, 0], x[:, 0])[0, 1]
        assert abs(abs(c) - 1.0) < 1e-12
        assert fe.v_values[0] <= 1e-10 * np.sum(x**2)

    def test_lai_setting_single_factor(self):
        beta = make_beta(250)
        hits = 0
        for seed in range(100):
            ds = generate(DgpConfig(setting="LAI", n=200, p=250, seed=seed), beta)
            if estimate_factors(ds.X, 5).k_hat == 1:
                hits += 1
        assert hits >= 90

    def test_normalization_invariant(self):
        rng = np.random.default_rng(2)
        X, _ = factor_data(rng, 80, 60, 2, 1.0)
        fe = estimate_factors(X, 4)
        gram = fe.F_hat.T @ fe.F_hat / 80
        assert np.max(np.abs(gram - np.eye(fe.k_hat))) < 1e-8

    def test_v_nonincreasing(self):
        rng = np.random.default_rng(3)
        X, _ = factor_data(rng, 60, 40, 2, 1.0)
        fe = estimate_factors(X, 6)
        assert np.all(np.diff(fe.v_values) <= 1e-9)

    def test_k_hat_is_argmin(self):
        rng = np.random.default_rng(4)
        X, _ = factor_data(rng, 60, 40, 2, 0.5)
        fe = estimate_factors(X, 6)
        assert fe.k_hat == int(np.argmin(fe.ic_values)) + 1

    def test_non_finite_rejected(self):
        X = np.ones((10, 4))
        X[3, 2] = np.nan
        with pytest.raises(NumericInputError):
            estimate_factors(X, 2)

    def test_kmax_bounds(self):
        with pytest.raises(ValueError):
            estimate_factors(np.ones((5, 4)), 5)

    def test_factor_space_convergence_rate(self):
        # Subspace distance between estimated and true factor spans shrinks
        # with n (median over 50 seeds, r = k = 2). The cross-section must
        # grow alongside n or the estimate hits an averaging floor.
        r = 2
        medians = []
        for n in (100, 400, 1600):
            p = n // 2
            dists = []
            for seed in range(50):
                rng = np.random.default_rng(seed)
                X, F = factor_data(rng, n, p, r, 0.5)
                fe = estimate_factors(X, 5)
                qf, _ = np.linalg.qr(F)
                qh, _ = np.linalg.qr(fe.F_hat[:, :r])
                proj_diff = qf @ qf.T - qh @ qh.T
                dists.append(np.linalg.norm(proj_diff))
            medians.append(np.median(dists))
        assert medians[0] > medians[1] > medians[2]

    def test_projected_gram_approaches_idiosyncratic_gram(self):
        # ||X~_J' X~_J / n - E_J' E_J / n||_F shrinks from n=200 to n=800.
        p, r = 80, 2
        J = np.arange(6)
        meds = []
        for n in (200, 800):
            vals = []
            for seed in range(50):
                rng = np.random.default_rng(1000 + seed)
                F = rng.standard_normal((n, r))
                lam = rng.standard_normal((p, r))
                E = rng.standard_normal((n, p))
                X = F @ lam.T + E
                fe = estimate_factors(X, 5)
                xt = complement_projection(fe.F_hat, X[:, J])
                diff = xt.T @ xt / n - E[:, J].T @ E[:, J] / n
                vals.append(np.linalg.norm(diff))
            meds.append(np.median(vals))
        assert meds[1] < meds[0]


def svd_factors(X, k_max):
    """The full-SVD estimate: ``(k_hat, F_hat, v_values)`` by definition."""
    n, p = X.shape
    U, sv, _ = np.linalg.svd(X, full_matrices=False)
    v_values = np.maximum(np.sum(sv**2) - np.cumsum(sv[:k_max] ** 2), 0.0)
    penalty = (n + p) / (n * p) * np.log(n * p / (n + p))
    with np.errstate(divide="ignore"):
        ic_values = np.log(v_values) + np.arange(1, k_max + 1) * penalty
    k_hat = int(np.argmin(ic_values)) + 1
    return k_hat, np.sqrt(n) * U[:, :k_hat], v_values


def projector(F):
    return np.eye(F.shape[0]) - F @ np.linalg.solve(F.T @ F, F.T)


class TestAgainstSvd:
    # (n, p, k_max): n < p, n > p and n = p, each with k_max = 5 and with
    # k_max = min(n, p).
    SHAPES = [(30, 50, 5), (50, 30, 5), (40, 40, 5),
              (9, 12, 9), (12, 9, 9), (10, 10, 10)]

    @pytest.mark.parametrize("n,p,k_max", SHAPES)
    @pytest.mark.parametrize("rank,noise", [(2, 0.5), (3, 0.0)],
                             ids=["noisy", "exact_rank3"])
    def test_matches_svd(self, n, p, k_max, rank, noise):
        for seed in range(5):
            X, _ = factor_data(np.random.default_rng(seed), n, p, rank, noise)
            k_svd, F_svd, v_svd = svd_factors(X, k_max)
            fe = estimate_factors(X, k_max)
            assert fe.k_hat == k_svd
            # V(k) is ||X||_F^2 minus k eigenvalues, so either way it is
            # known only to about min(n, p) eps ||X||_F^2.
            roundoff = 10 * min(n, p) * np.finfo(float).eps * np.sum(X**2)
            np.testing.assert_allclose(fe.v_values, v_svd, rtol=1e-10,
                                       atol=roundoff)
            assert np.max(np.abs(projector(fe.F_hat) - projector(F_svd))) < 1e-10

    def test_zero_design_rejected(self):
        for shape in ((5, 8), (8, 5)):
            with pytest.raises(NumericInputError):
                estimate_factors(np.zeros(shape), 2)


class TestComplementProjection:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.F = rng.standard_normal((50, 3))
        self.A = rng.standard_normal((50, 8))

    def test_annihilates_own_range(self):
        out = complement_projection(self.F, self.F)
        assert np.max(np.abs(out)) < 1e-10

    def test_fixes_orthogonal_complement(self):
        q, _ = np.linalg.qr(self.F)
        a_perp = self.A - q @ (q.T @ self.A)
        out = complement_projection(self.F, a_perp)
        assert np.allclose(out, a_perp, atol=1e-10)

    def test_orthogonality(self):
        out = complement_projection(self.F, self.A)
        assert np.linalg.norm(self.F.T @ out) < 1e-8

    def test_idempotent(self):
        once = complement_projection(self.F, self.A)
        twice = complement_projection(self.F, once)
        assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)

    def test_empty_factor_is_identity(self):
        out = complement_projection(None, self.A)
        assert np.array_equal(out, self.A)
        out2 = complement_projection(np.zeros((50, 0)), self.A)
        assert np.array_equal(out2, self.A)

    def test_rank_deficient_rejected(self):
        F = np.column_stack([self.F[:, 0], self.F[:, 0]])
        with pytest.raises(SingularMatrixError):
            complement_projection(F, self.A)

import numpy as np
import pytest

import martingale_ci.resampler as resampler_mod
from martingale_ci.dgp import DgpConfig, generate, make_beta
from martingale_ci.factor_model import estimate_factors
from martingale_ci.iv_estimator import SingularGramError
from martingale_ci.oga import SelectionResult, oga_hdbic
from martingale_ci.resampler import (
    combine_beta,
    combined_estimate,
    generate_w,
    halves,
)


def lai_dataset(seed=0, n=200, p=60):
    beta = make_beta(p)
    return generate(DgpConfig(setting="LAI", n=n, p=p, seed=seed), beta), beta


class TestSplit:
    def test_even_split(self):
        assert halves(200) == (slice(0, 100), slice(100, 200))

    def test_odd_split(self):
        assert halves(201) == (slice(0, 100), slice(100, 201))

    def test_concatenation_reproduces_dataset(self):
        ds, _ = lai_dataset(2, n=50)
        train, test = halves(ds.n)
        assert np.array_equal(np.vstack([ds.X[train], ds.X[test]]), ds.X)
        assert np.array_equal(np.concatenate([ds.Y[train], ds.Y[test]]), ds.Y)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="need n >= 8 to split, got 6"):
            halves(6)


class TestCombineBeta:
    def test_average_when_in_both(self):
        out = combine_beta(np.array([3]), {3: 0.5}, {3: 0.7})
        assert np.isclose(out[0], 0.6)

    def test_zero_when_in_neither(self):
        out = combine_beta(np.array([3]), {}, {})
        assert out[0] == 0.0

    def test_train_only_uses_test_side_estimate(self):
        # Index selected only on the train half: its (cross-fitted,
        # test-data) estimate is the one reported.
        out = combine_beta(np.array([3]), {3: 0.4}, {})
        assert np.isclose(out[0], 0.4)

    def test_test_only_uses_train_side_estimate(self):
        out = combine_beta(np.array([3]), {}, {3: -0.2})
        assert np.isclose(out[0], -0.2)

    def test_order_follows_j_hat(self):
        out = combine_beta(np.array([5, 1]), {5: 1.0}, {1: 2.0})
        assert np.allclose(out, [1.0, 2.0])


class TestGenerateW:
    def setup_method(self):
        self.ds, self.beta = lai_dataset(7)
        self.sel = oga_hdbic(self.ds.X, self.ds.Y)
        self.F = estimate_factors(self.ds.X, 5).F_hat
        self.rs = generate_w(self.ds, self.sel.j_hat, self.F, B=8, seed=11, kmax=5)

    def test_shapes(self):
        assert self.rs.w_b.shape == (8, self.ds.n)
        assert len(self.rs.beta_tilde) == len(self.sel.j_hat)
        assert self.rs.eps_hat.shape == (self.ds.n,)

    def test_disturbance_identity(self):
        # w^(b) - w~ + eps^ must reproduce the resampled errors exactly,
        # and every resampled error value must come from eps^ itself.
        values = set(self.rs.eps_hat.tolist())
        for b in range(8):
            eps_b = self.rs.w_b[b] - self.rs.w_tilde + self.rs.eps_hat
            assert set(np.round(eps_b, 12).tolist()) <= set(
                np.round(list(values), 12))

    def test_w_tilde_definition(self):
        expect = self.ds.Y - self.ds.X[:, self.sel.j_hat] @ self.rs.beta_tilde
        assert np.allclose(self.rs.w_tilde, expect, atol=1e-12)

    def test_j_plus_identity(self):
        union = set(self.rs.diagnostics["j_train"].tolist()) | set(
            self.rs.diagnostics["j_test"].tolist())
        expect = set(self.sel.j_hat.tolist()) & union
        assert set(self.rs.j_plus.tolist()) == expect
        zero = self.rs.beta_tilde == 0.0
        assert set(self.sel.j_hat[~zero].tolist()) == set(self.rs.j_plus.tolist())

    def test_determinism(self):
        again = generate_w(self.ds, self.sel.j_hat, self.F, B=8, seed=11, kmax=5)
        assert np.array_equal(self.rs.w_b, again.w_b)
        assert np.array_equal(self.rs.beta_tilde, again.beta_tilde)

    def test_identity_bootstrap_reproduces_w_tilde(self, monkeypatch):
        monkeypatch.setattr(resampler_mod, "double_block_bootstrap",
                            lambda eps, rng: eps.copy())
        rs = generate_w(self.ds, self.sel.j_hat, self.F, B=1, seed=3, kmax=5)
        assert np.allclose(rs.w_b[0], rs.w_tilde, atol=1e-12)

    def test_empty_common_selection_uses_w_tilde(self, monkeypatch):
        calls = {"n": 0}
        real = resampler_mod.oga_hdbic

        def fake(X, Y):
            # The only oga_hdbic calls inside generate_w are the
            # residual-structure selections; force them to pick disjoint
            # singletons so the intersection is empty.
            res = real(X, Y)
            calls["n"] += 1
            j = calls["n"] % X.shape[1]
            return SelectionResult(
                j_hat=np.array([j]), Q=res.Q[:, :1], R=res.R[:1, :1],
                beta_q=res.beta_q[:1], beta_oga=res.beta_oga,
                residual_norms=res.residual_norms[:1], m=1)

        monkeypatch.setattr(resampler_mod, "oga_hdbic", fake)
        rs = generate_w(self.ds, self.sel.j_hat, self.F, B=2, seed=5, kmax=5)
        assert rs.diagnostics["empty_j_w"]
        assert np.allclose(rs.eps_hat, rs.w_tilde)

    def test_singular_half_selection_raises(self, monkeypatch):
        # Both residual-structure selections hold a column twice: each
        # half's fit on the other half's columns is singular, and the
        # guarded fit says so rather than returning a minimum-norm fit.
        real = resampler_mod.oga_hdbic

        def repeated(X, Y):
            res = real(X, Y)
            return SelectionResult(
                j_hat=np.array([0, 0, 1]), Q=res.Q, R=res.R, beta_q=res.beta_q,
                beta_oga=res.beta_oga, residual_norms=res.residual_norms,
                m=3)

        monkeypatch.setattr(resampler_mod, "oga_hdbic", repeated)
        with pytest.raises(SingularGramError):
            generate_w(self.ds, self.sel.j_hat, self.F, B=2, seed=5, kmax=5)

    def test_projected_columns_orthogonal_to_factors(self):
        comp = np.setdiff1d(np.arange(self.ds.p), self.rs.j_plus)
        from martingale_ci.factor_model import complement_projection
        xt = complement_projection(self.F, self.ds.X[:, comp])
        assert np.linalg.norm(self.F.T @ xt) < 1e-8

    def test_eps_hat_centers_on_noise(self):
        # With every relevant column selected on i.i.d. data the error
        # estimate recovers mean-zero noise.
        beta = make_beta(12)
        ds = generate(DgpConfig(setting="IID", n=2000, p=12, seed=3), beta)
        j_hat = np.arange(10)
        F = estimate_factors(ds.X, 3).F_hat
        rs = generate_w(ds, j_hat, F, B=1, seed=1, kmax=5)
        se = rs.eps_hat.std() / np.sqrt(len(rs.eps_hat))
        assert abs(rs.eps_hat.mean()) < 4 * se


class TestCombinedEstimate:
    def test_recovers_strong_signals_iid(self):
        beta = make_beta(40)
        ds = generate(DgpConfig(setting="IID", n=400, p=40, seed=21), beta)
        sel = oga_hdbic(ds.X, ds.Y)
        bt, diag = combined_estimate(ds, sel.j_hat, kmax=5)
        for pos, j in enumerate(sel.j_hat):
            if beta[j] >= 0.4:
                assert abs(bt[pos] - beta[j]) < 0.2

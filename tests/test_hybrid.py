import numpy as np
import pytest
from scipy.stats import norm

from martingale_ci.dgp import DgpConfig, generate, make_beta
from martingale_ci.hybrid import (
    BISECT_WIDTH,
    StatisticEngine,
    _synthetic_batch,
    fit_pipeline,
    hybrid_ci_one_sided,
    hybrid_ci_two_sided,
    invert_lower_bound,
    test_statistic as eval_statistic,
)
from martingale_ci.inference import SIDE_ONE, SIDE_TWO, StatConfig
from martingale_ci.iv_estimator import CONDITION_LIMIT, SingularGramError
from martingale_ci.oga import hdbic, oga_hdbic, oga_path_batch
from martingale_ci.resampler import ResampleSet, generate_w


def small_problem(seed=0, n=120, p=30, setting="LAI"):
    beta = make_beta(p)
    ds = generate(DgpConfig(setting=setting, n=n, p=p, seed=seed), beta)
    return ds, beta


class TestStatisticEngine:
    def test_batch_matches_scalar_statistic(self):
        ds, _ = small_problem(1)
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        engine = StatisticEngine(ds.X, cfg)
        fit = engine.fit(ds.Y)
        j = int(fit.j_hat[0])
        theta = 0.25
        batch, selected, failures = engine.statistics_batch(ds.Y[:, None], j, theta)
        scalar = eval_statistic(ds.X, ds.Y, j, theta, cfg)
        assert failures == 0
        assert np.isclose(batch[0], scalar, rtol=1e-6)

    def test_sentinel_for_unselected_column(self):
        ds, _ = small_problem(2)
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        engine = StatisticEngine(ds.X, cfg)
        dead = ds.p - 1  # a zero-coefficient column, never first choice
        X = ds.X.copy()
        X[:, dead] = 0.0
        engine_dead = StatisticEngine(X, cfg)
        stats, selected, _ = engine_dead.statistics_batch(ds.Y[:, None], dead, 0.0)
        assert stats[0] == -np.inf
        assert not selected[0]

    def test_engine_fit_matches_pipeline(self):
        ds, _ = small_problem(3)
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        engine = StatisticEngine(ds.X, cfg)
        a = engine.fit(ds.Y)
        b = fit_pipeline(ds.X, ds.Y, cfg)
        assert a.j_hat.tolist() == b.j_hat.tolist()
        assert np.allclose(a.estimate.beta_tilde, b.estimate.beta_tilde,
                           atol=1e-9)
        assert np.allclose(a.sigma, b.sigma, rtol=1e-6)


    def test_ill_conditioned_gram_fails_in_batch_as_in_fit(self, ill_conditioned_design):
        X, Y = ill_conditioned_design
        engine = StatisticEngine(X, StatConfig(kmax=1, q=1, side=SIDE_ONE))
        J = oga_hdbic(X, Y, engine.kn).j_hat
        xt = engine.x_tilde[:, J]
        eigs = np.linalg.eigvalsh(xt.T @ xt)
        assert sorted(J.tolist()) == [0, 1]
        assert eigs[-1] / eigs[0] > CONDITION_LIMIT
        with pytest.raises(SingularGramError):
            engine.fit(Y)
        stats, selected, failures = engine.statistics_batch(Y[:, None], 0, 0.0)
        assert np.isnan(stats[0]) and selected[0]
        assert failures == 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_fails_in_batch_as_in_fit(self, bad):
        ds, _ = small_problem(1)
        engine = StatisticEngine(ds.X, StatConfig(kmax=3, q=1, side=SIDE_ONE))
        j = int(engine.fit(ds.Y).j_hat[0])
        engine.x_tilde[:, j] = bad
        with pytest.raises(SingularGramError):
            engine.fit(ds.Y)
        Yb = np.column_stack([ds.Y, ds.Y])
        stats, selected, failures = engine.statistics_batch(Yb, j, 0.0)
        assert np.isnan(stats).all() and selected.all()
        assert failures == 2

    @pytest.mark.parametrize("side", [SIDE_ONE, SIDE_TWO])
    @pytest.mark.parametrize("q", [0, 2])
    def test_grouped_batch_matches_scalar_statistic(self, side, q):
        ds, _ = small_problem(4, n=120, p=30)
        cfg = StatConfig(kmax=3, q=q, side=side)
        engine = StatisticEngine(ds.X, cfg)
        fit = engine.fit(ds.Y)
        j = int(fit.j_hat[0])
        rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, B=40, seed=3)
        theta = float(fit.estimate.beta_tilde[0] - fit.sigma[0])
        Yb = _synthetic_batch(ds.X, rs, j, theta)
        sel, rn, m = oga_path_batch(ds.X, Yb, engine.kn)
        sets = {tuple(sel[b, :hdbic(rn[b, :m[b]], ds.n, ds.p)]) for b in range(40)}
        assert len(sets) >= 3
        stats, selected, failures = engine.statistics_batch(Yb, j, theta)
        assert failures == 0 and selected.sum() >= 30
        for b in range(40):
            scalar = eval_statistic(ds.X, Yb[:, b], j, theta, cfg)
            assert np.isclose(stats[b], scalar, rtol=1e-10, atol=0.0), b


class TestInvertLowerBound:
    def test_converges_to_unique_crossing(self):
        # Observed statistic rises as theta falls; quantile is flat at 1.2,
        # so the crossing sits exactly at start - 1.2 * sigma.
        sigma = 0.5
        start = 2.0
        observed = lambda theta: (start - theta) / sigma
        u_upper = lambda theta: 1.2
        lower, diag = invert_lower_bound(observed, u_upper, start, sigma)
        assert diag["converged"]
        assert not diag["start_capped"]
        assert diag["bisection_iterations"] <= 40
        assert abs(lower - (start - 1.2 * sigma)) < BISECT_WIDTH * sigma

    def test_delta_tolerance_respected(self):
        sigma = 1.0
        observed = lambda theta: -theta
        u_upper = lambda theta: 2.7
        lower, diag = invert_lower_bound(observed, u_upper, 0.0, sigma)
        assert diag["converged"]
        assert diag["bracket_width"] < BISECT_WIDTH * sigma

    def test_nonconvergence_flagged(self):
        # A quantile that always dominates never produces a crossing.
        observed = lambda theta: -theta
        u_upper = lambda theta: abs(theta) + 100.0
        lower, diag = invert_lower_bound(observed, u_upper, 0.0, 1.0)
        assert not diag["converged"]

    def test_start_cap_flagged(self):
        # A quantile below the observed statistic everywhere: the start
        # walks up its ten bumps and stops there, flagged, without an
        # extra evaluation.
        calls = []

        def u_upper(theta):
            calls.append(theta)
            return -np.inf

        lower, diag = invert_lower_bound(lambda theta: -theta, u_upper, 0.0,
                                         1.0)
        assert diag["start_capped"]
        assert diag["start_bumps"] == 10
        assert calls[:12] == [0.5 * i for i in range(11)] + [3.0]


class TestHybridOneSided:
    def setup_method(self):
        self.ds, self.beta = small_problem(5, n=160, p=30)
        self.cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        self.engine = StatisticEngine(self.ds.X, self.cfg)
        self.fit = self.engine.fit(self.ds.Y)
        self.rs = generate_w(self.ds, self.fit.j_hat,
                             self.engine.factors.F_hat, B=40, seed=9)

    def test_report_structure(self):
        j = int(self.fit.j_hat[0])
        rep = hybrid_ci_one_sided(self.engine, self.fit, j, self.rs, 0.2)
        assert rep.method == "hr"
        assert rep.upper == np.inf
        assert rep.lower < self.fit.estimate.beta_tilde[0]
        assert rep.diagnostics["evaluations"] > 0

    def test_lower_bound_nondecreasing_in_alpha(self):
        j = int(self.fit.j_hat[0])
        lowers = []
        for alpha in (0.05, 0.1, 0.2):
            rep = hybrid_ci_one_sided(self.engine, self.fit, j, self.rs, alpha)
            lowers.append(rep.lower)
        assert lowers[0] <= lowers[1] + 1e-9
        assert lowers[1] <= lowers[2] + 1e-9

    def test_requires_membership_and_enough_resamples(self):
        missing = int(np.setdiff1d(np.arange(self.ds.p), self.rs.j_hat)[0])
        with pytest.raises(ValueError):
            hybrid_ci_one_sided(self.engine, self.fit, missing, self.rs, 0.2)
        rs_small = ResampleSet(
            j_hat=self.rs.j_hat, beta_tilde=self.rs.beta_tilde,
            j_plus=self.rs.j_plus, w_tilde=self.rs.w_tilde,
            eps_hat=self.rs.eps_hat, w_b=self.rs.w_b[:5])
        with pytest.raises(ValueError):
            hybrid_ci_one_sided(self.engine, self.fit, int(self.rs.j_hat[0]),
                                rs_small, 0.2)

    def test_empty_conditioning_never_rejects(self, monkeypatch):
        j = int(self.fit.j_hat[0])
        sentinel = np.full(self.rs.w_b.shape[0], -np.inf)

        def starve(Y_batch, jj, theta):
            return sentinel.copy(), np.zeros(len(sentinel), dtype=bool), 0

        monkeypatch.setattr(self.engine, "statistics_batch", starve)
        rep = hybrid_ci_one_sided(self.engine, self.fit, j, self.rs, 0.2)
        # With no conditioned resamples anywhere, no theta is ever
        # rejected: the search exhausts its step budget and flags itself.
        assert rep.diagnostics["empty_conditioning"] == rep.diagnostics["evaluations"]
        assert not rep.diagnostics["converged"]
        sigma = float(self.fit.sigma[0])
        beta_j = float(self.fit.estimate.beta_tilde[0])
        assert rep.lower < beta_j - 10 * sigma


class TestHybridTwoSided:
    def test_degenerate_resamples_collapse_interval(self):
        ds, _ = small_problem(6, n=140, p=25)
        cfg = StatConfig(kmax=3, q=1, side=SIDE_TWO)
        engine = StatisticEngine(ds.X, cfg)
        fit = engine.fit(ds.Y)
        j = int(fit.j_hat[0])
        sel = oga_hdbic(ds.X, ds.Y)
        w_tilde = ds.Y - ds.X[:, sel.j_hat] @ fit.estimate.beta_tilde
        rs = ResampleSet(
            j_hat=sel.j_hat, beta_tilde=fit.estimate.beta_tilde.copy(),
            j_plus=sel.j_hat, w_tilde=w_tilde, eps_hat=w_tilde,
            w_b=np.tile(w_tilde, (25, 1)))
        rep = hybrid_ci_two_sided(engine, fit, j, rs, 0.1)
        sigma = float(fit.sigma[0])
        beta_j = float(fit.estimate.beta_tilde[0])
        assert rep.diagnostics["empty_region"]
        assert abs(rep.lower - beta_j) < 4 * sigma
        assert rep.upper - rep.lower < 0.5 * sigma

    def test_normal_oracle_agreement(self):
        # Strong orthogonal-ish signals, i.i.d. Gaussian disturbances fed
        # straight into the resample set: the resampled statistic is close
        # to standard normal, so the bounds should sit near the
        # normal-theory ones at B = 2000.
        rng = np.random.default_rng(7)
        n, p = 150, 6
        X = rng.standard_normal((n, p))
        beta = np.array([1.2, -0.9, 0.7, 0.0, 0.0, 0.0])
        Y = X @ beta + rng.standard_normal(n)
        engine = StatisticEngine(X, StatConfig(kmax=1, q=0, side=SIDE_TWO))
        fit = engine.fit(Y)
        j = int(fit.j_hat[0])
        pos = fit.position(j)
        w_tilde = Y - X[:, fit.j_hat] @ fit.estimate.beta_tilde
        B = 2000
        rs = ResampleSet(
            j_hat=fit.j_hat, beta_tilde=fit.estimate.beta_tilde.copy(),
            j_plus=fit.j_hat, w_tilde=w_tilde, eps_hat=w_tilde,
            w_b=rng.standard_normal((B, n)))
        alpha = 0.1
        rep = hybrid_ci_two_sided(engine, fit, j, rs, alpha)
        sigma = float(fit.sigma[pos])
        beta_j = float(fit.estimate.beta_tilde[pos])
        half = norm.ppf(1 - alpha / 2) * sigma
        lo_normal, hi_normal = beta_j - half, beta_j + half
        assert abs(rep.lower - lo_normal) < 0.1 * half
        assert abs(rep.upper - hi_normal) < 0.1 * half

    def test_clipped_ends_flagged(self, monkeypatch):
        # Same oracle problem at B = 40, every evaluation conditioning on 40
        # statistics, half 0 and half `top`. The observed |statistic| is 4
        # at both grid ends: inside the quantiles (0, 100) there, outside
        # (0, 2).
        rng = np.random.default_rng(7)
        n, p = 150, 6
        X = rng.standard_normal((n, p))
        Y = X @ np.array([1.2, -0.9, 0.7, 0.0, 0.0, 0.0]) + rng.standard_normal(n)
        engine = StatisticEngine(X, StatConfig(kmax=1, q=0, side=SIDE_TWO))
        fit = engine.fit(Y)
        j = int(fit.j_hat[0])
        w_tilde = Y - X[:, fit.j_hat] @ fit.estimate.beta_tilde
        rs = ResampleSet(
            j_hat=fit.j_hat, beta_tilde=fit.estimate.beta_tilde.copy(),
            j_plus=fit.j_hat, w_tilde=w_tilde, eps_hat=w_tilde,
            w_b=rng.standard_normal((40, n)))
        for top, clipped in ((100.0, True), (2.0, False)):
            stats = np.repeat([0.0, top], 20)

            def fixed(Y_batch, jj, theta, stats=stats):
                return stats.copy(), np.ones(len(stats), dtype=bool), 0

            monkeypatch.setattr(engine, "statistics_batch", fixed)
            rep = hybrid_ci_two_sided(engine, fit, j, rs, 0.1)
            assert rep.diagnostics["clipped_low"] is clipped
            assert rep.diagnostics["clipped_high"] is clipped
            assert rep.diagnostics["fallbacks"] == 0

    @pytest.mark.parametrize("engine_side", [SIDE_ONE, SIDE_TWO])
    def test_engine_side_must_match_bound(self, engine_side):
        # The side comes from the engine, so a bound handed the other
        # side's engine refuses rather than mixing the two statistics.
        ds, _ = small_problem(3, n=120, p=20, setting="IID")
        engine = StatisticEngine(ds.X, StatConfig(side=engine_side))
        fit = engine.fit(ds.Y)
        rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, B=30, seed=3)
        other = hybrid_ci_two_sided if engine_side == SIDE_ONE else hybrid_ci_one_sided
        with pytest.raises(ValueError, match="sided statistic"):
            other(engine, fit, int(fit.j_hat[0]), rs, 0.1)

    def test_two_sided_tail_convention(self):
        # Nominal 80% two-sided coverage means alpha = 0.1 in each tail.
        assert np.isclose(norm.ppf(1 - 0.1 / 2), 1.6449, atol=1e-4)

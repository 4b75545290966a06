from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from _oracles import fit_pipeline, synthetic_batch, test_statistic as eval_statistic
from martingale_ci import hybrid
from martingale_ci.dgp import DgpConfig, generate, make_beta
from martingale_ci.hybrid import (
    BISECT_WIDTH,
    GRID_HALF_WIDTH,
    GRID_POINTS,
    MIN_CONDITIONED,
    StatisticEngine,
    _order_statistic,
    _Scan,
    _ThetaTest,
    hybrid_ci_one_sided,
    hybrid_ci_two_sided,
    invert_lower_bound,
)
from martingale_ci.inference import SIDE_ONE, SIDE_TWO, PipelineFit, StatConfig
from martingale_ci.iv_estimator import CONDITION_LIMIT, SingularGramError
from martingale_ci.oga import hdbic, oga_hdbic, oga_path_batch
from martingale_ci.resampler import ResampleSet, generate_w


def small_problem(seed=0, n=120, p=30, setting="LAI"):
    beta = make_beta(p)
    ds = generate(DgpConfig(setting=setting, n=n, p=p, seed=seed), beta)
    return ds, beta


def selected_sets(paths, n, p):
    """The HDBIC-truncated set of every path in ``paths``, as
    ``oga_path_batch`` returns them."""
    sel, resid_norms, _ = paths
    m = hdbic(resid_norms, n, p)
    return [tuple(sel[b, :m[b]].tolist()) for b in range(len(sel))]


def batch_statistics(engine, Y_batch, j, theta):
    """``engine.statistics_batch`` on the selected sets of Y_batch, with the
    number of statistics that failed: selected, but NaN."""
    paths = oga_path_batch(engine.X, Y_batch, engine.kn, engine.col_norms,
                           engine.gram)
    stats, selected = engine.statistics_batch(
        Y_batch, j, theta, selected_sets(paths, *engine.X.shape))
    return stats, selected, int(np.count_nonzero(selected & np.isnan(stats)))


class TestStatisticEngine:
    def test_batch_matches_scalar_statistic(self):
        ds, _ = small_problem(1)
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        engine = StatisticEngine(ds.X, cfg)
        fit = engine.fit(ds.Y)
        j = int(fit.j_hat[0])
        theta = 0.25
        batch, selected, failures = batch_statistics(engine, ds.Y[:, None], j, theta)
        scalar = eval_statistic(ds.X, ds.Y, j, theta, cfg)
        assert failures == 0
        assert np.isclose(batch[0], scalar, rtol=1e-6)

    def test_set_without_the_column_gives_nan(self):
        ds, _ = small_problem(2)
        cfg = StatConfig(kmax=3, q=1, side=SIDE_ONE)
        dead = ds.p - 1  # a zero-coefficient column, never first choice
        X = ds.X.copy()
        X[:, dead] = 0.0
        engine_dead = StatisticEngine(X, cfg)
        stats, selected, failures = batch_statistics(engine_dead, ds.Y[:, None],
                                                     dead, 0.0)
        assert np.isnan(stats[0]) and not selected[0] and failures == 0
        # Beside sets that hold the column, only the set without it is NaN.
        engine = StatisticEngine(ds.X, cfg)
        J = tuple(engine.fit(ds.Y).j_hat.tolist())
        j, others = J[0], J[1:]
        Yb = np.column_stack([ds.Y] * 3)
        stats, selected = engine.statistics_batch(Yb, j, 0.0, [J, others, J])
        assert selected.tolist() == [True, False, True]
        assert np.isnan(stats[1]) and np.isfinite(stats[[0, 2]]).all()
        assert np.isclose(stats[0], eval_statistic(ds.X, ds.Y, j, 0.0, cfg),
                          rtol=1e-10, atol=0.0)
        assert stats[0] == stats[2]

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
        J = oga_hdbic(X, Y).j_hat
        xt = engine.x_tilde[:, J]
        eigs = np.linalg.eigvalsh(xt.T @ xt)
        assert sorted(J.tolist()) == [0, 1]
        assert eigs[-1] / eigs[0] > CONDITION_LIMIT
        with pytest.raises(SingularGramError):
            engine.fit(Y)
        stats, selected, failures = batch_statistics(engine, Y[:, None], 0, 0.0)
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
        stats, selected, failures = batch_statistics(engine, Yb, j, 0.0)
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
        rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, B=40, seed=3, kmax=5)
        theta = float(fit.estimate.beta_tilde[0] - fit.sigma[0])
        Yb = synthetic_batch(ds.X, rs, j, theta)
        sel, rn, m = oga_path_batch(ds.X, Yb, engine.kn)
        sets = {tuple(sel[b, :hdbic(rn[b, :m[b]], ds.n, ds.p)]) for b in range(40)}
        assert len(sets) >= 3
        stats, selected, failures = batch_statistics(engine, Yb, j, theta)
        assert failures == 0 and selected.sum() >= 30
        # The engine's statistic is signed on either side; the reference
        # takes its magnitude two-sided and gives unselected columns its
        # side's sentinel, where the engine gives NaN.
        for b in range(40):
            scalar = eval_statistic(ds.X, Yb[:, b], j, theta, cfg)
            if not selected[b]:
                assert np.isnan(stats[b]), b
                assert scalar == (-np.inf if side == SIDE_ONE else 0.0), b
                continue
            got = abs(stats[b]) if side == SIDE_TWO else stats[b]
            assert np.isclose(got, scalar, rtol=1e-10, atol=0.0), b


class TestStatisticConstantInTheta:
    """A resample's statistic moves with theta only through its selected set."""

    @pytest.mark.parametrize("setting", ["IID", "LAI", "GARCH"])
    def test_fixed_set_estimate_and_variance_constant(self, setting):
        # y_b(theta) = a_b + theta x_j and X~_J'x_j = X~_J'X~_J e_j, so on a
        # fixed J that holds j, beta_j - theta, the residuals and the
        # sandwich do not move with theta.
        ds, _ = small_problem(8, n=120, p=40, setting=setting)
        engine = StatisticEngine(ds.X, StatConfig(kmax=3, q=1, side=SIDE_ONE))
        fit = engine.fit(ds.Y)
        rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, B=20, seed=8, kmax=5)
        J = fit.j_hat
        for pos, j in enumerate(J.tolist()):
            thetas = fit.estimate.beta_tilde[pos] + fit.sigma[pos] * np.linspace(-4, 4, 7)
            for b in (0, 9, 19):
                got = []
                for theta in thetas:
                    Y = synthetic_batch(ds.X, rs, j, theta, [b])
                    est, V = engine.estimate(J, Y)
                    got.append((est.beta_tilde[pos, 0] - theta, V[0, pos, pos]))
                got = np.array(got)
                assert np.allclose(got, got[0], rtol=1e-12, atol=0.0), (j, b)


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
                             self.engine.factors.F_hat, B=40, seed=9, kmax=5)

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

        def starve(Y_batch, jj, theta, sets):
            b = Y_batch.shape[1]
            return np.full(b, np.nan), np.zeros(b, dtype=bool)

        monkeypatch.setattr(self.engine, "statistics_batch", starve)
        rep = hybrid_ci_one_sided(self.engine, self.fit, j, self.rs, 0.2)
        # With no conditioned resamples anywhere, no theta is ever
        # rejected: the search exhausts its step budget and flags itself.
        assert rep.diagnostics["empty_conditioning"] == rep.diagnostics["evaluations"]
        assert not rep.diagnostics["converged"]
        sigma = float(self.fit.sigma[0])
        beta_j = float(self.fit.estimate.beta_tilde[0])
        assert rep.lower < beta_j - 10 * sigma


def _unit_fit(j):
    """An observed fit that selects column j alone, with estimate 0 and
    standard error 1."""
    return PipelineFit(selection=SimpleNamespace(j_hat=np.array([j])),
                       estimate=SimpleNamespace(beta_tilde=np.zeros(1)),
                       sigma=np.ones(1))


def _orthogonal_design():
    """A 16x12 design of orthogonal +-1 columns; its path length is 4."""
    H = np.array([[1.0]])
    while H.shape[0] < 16:
        H = np.block([[H, H], [H, -H]])
    return H[:, 1:13]


def _per_theta_lower(engine, fit, j, rs, alpha):
    """The one-sided bound with fresh paths at every theta.

    One ``oga_path_batch`` and one ``statistics_batch`` call per theta the
    bisection visits, as the bound ran before paths were reused between
    bracket ends. Returns the bound, its flags and ``(theta, paths)`` of
    every evaluation in order.
    """
    pos = fit.position(j)
    beta_obs, sigma = float(fit.estimate.beta_tilde[pos]), float(fit.sigma[pos])
    visits = []
    flags = {"evaluations": 0, "empty_conditioning": 0,
             "min_conditioned": np.inf, "failures": 0}

    def u_upper(theta):
        Y = synthetic_batch(engine.X, rs, j, theta)
        paths = oga_path_batch(engine.X, Y, engine.kn, engine.col_norms)
        visits.append((theta, paths))
        stats, selected = engine.statistics_batch(
            Y, j, theta, selected_sets(paths, *engine.X.shape))
        flags["evaluations"] += 1
        flags["failures"] += int(np.count_nonzero(selected & np.isnan(stats)))
        cond = stats[selected & np.isfinite(stats)]
        flags["min_conditioned"] = min(flags["min_conditioned"], len(cond))
        if len(cond) == 0:
            flags["empty_conditioning"] += 1
            return np.inf
        return _order_statistic(cond, 1.0 - alpha)

    lower, diag = invert_lower_bound(lambda theta: (beta_obs - theta) / sigma,
                                     u_upper, beta_obs, sigma)
    flags.update(converged=diag["converged"], start_capped=diag["start_capped"])
    return lower, flags, visits


def _statistic_counts(visits, j, n, p):
    """Distinct (resample, HDBIC set) pairs that hold column j, and the
    (resample, theta) evaluations that hold it, over ``visits``, the greedy
    paths of every theta a bound evaluates."""
    pairs, conditioned = set(), 0
    for sel, resid, _ in visits:
        m = hdbic(resid, n, p)
        for b in range(len(sel)):
            if j in sel[b, :m[b]]:
                pairs.add((b, tuple(sel[b, :m[b]].tolist())))
                conditioned += 1
    return len(pairs), conditioned


class TestBracketReuse:
    """Paths reused between bracket ends against recomputation at every theta."""

    @pytest.mark.parametrize("setting", ["IID", "AR", "LAI"])
    def test_bisection_matches_per_theta_recomputation(self, setting):
        n, p, B, alpha = 200, 250, 50, 0.2
        reused = evaluated = 0
        for rep in range(7):
            ds = generate(DgpConfig(setting=setting, n=n, p=p, seed=400 + rep),
                          make_beta(p))
            engine = StatisticEngine(ds.X, StatConfig(kmax=5, q=1, side=SIDE_ONE))
            fit = engine.fit(ds.Y)
            rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, B=B, seed=rep, kmax=5)
            j = int(fit.j_hat[rep % len(fit.j_hat)])
            lower, flags, fresh = _per_theta_lower(engine, fit, j, rs, alpha)

            sweep = _ThetaTest(engine, fit, j, rs)
            for theta, (want_sel, want_resid, want_m) in fresh:
                sel, resid, m_actual = sweep.bracketed(theta)
                assert np.array_equal(m_actual, want_m)
                assert np.array_equal(sel, want_sel)
                assert np.array_equal(hdbic(resid, n, p), hdbic(want_resid, n, p))

            report = hybrid_ci_one_sided(engine, fit, j, rs, alpha)
            assert report.lower.hex() == lower.hex()
            diag = report.diagnostics
            assert {key: diag[key] for key in flags} == flags
            assert diag["paths"] + diag["paths_reused"] == diag["evaluations"] * B
            pairs, conditioned = _statistic_counts([v for _, v in fresh], j, n, p)
            assert diag["statistics"] == pairs
            assert diag["statistics"] + diag["statistics_reused"] == conditioned
            reused += diag["paths_reused"]
            evaluated += diag["evaluations"] * B
        assert reused > 0.3 * evaluated

    @staticmethod
    def _orthogonal_sweep(y):
        """The test of column 0 on a 16x12 orthogonal +-1 design (path
        length 4), with observed estimate 0 and standard error 1, whose one
        resample's response at theta is y + theta x_0. One resample is
        below the bounds' minimum, which the paths do not need."""
        X = _orthogonal_design()
        rs = ResampleSet(j_hat=np.array([0]), beta_tilde=np.zeros(1),
                         j_plus=np.array([0]), w_tilde=y(X), eps_hat=y(X),
                         w_b=y(X)[None, :])
        engine = StatisticEngine(X, StatConfig(kmax=1, q=0, side=SIDE_ONE))
        assert engine.kn == 4
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hybrid, "MIN_RESAMPLES", 1)
            return engine, _ThetaTest(engine, _unit_fit(0), 0, rs)

    def test_sign_change_between_ends_recomputes(self):
        # The paths at theta = -3 and 3 pick the same columns, but the first
        # pick's sign differs, and at theta = 0 column 0 is not picked first.
        noise = 0.1 * np.random.default_rng(23).standard_normal(16)
        engine, sweep = self._orthogonal_sweep(
            lambda X: X[:, 1:4] @ [2.0, 1.0, 0.5] + noise)
        ends = [sweep.bracketed(theta)[0].tolist() for theta in (-3.0, 3.0)]
        assert ends[0] == ends[1] == [[0, 1, 2, 3]]
        sel, _, m_actual = sweep.bracketed(0.0)
        y = sweep.rs.w_b.T
        want_sel, _, want_m = oga_path_batch(engine.X, y, engine.kn)
        assert sweep.paths == 3
        assert sel.tolist() == want_sel.tolist() and sel[0, 0] != 0
        assert m_actual.tolist() == want_m.tolist()

    def test_residual_cancelling_between_ends_recomputes(self):
        # The paths at theta = 0.75 and 1.25 pick columns 1-4 with the same
        # signs; at theta = 1 the response lies in their span, so the last
        # residual cancels and takes the n-space step, ending at 0.
        engine, sweep = self._orthogonal_sweep(
            lambda X: X[:, 1:5] @ [2.0, 1.5, 1.0, 0.5] - X[:, 0])
        ends = [sweep.bracketed(theta)[0].tolist() for theta in (0.75, 1.25)]
        assert ends[0] == ends[1] == [[1, 2, 3, 4]]
        _, resid, _ = sweep.bracketed(1.0)
        assert sweep.paths == 3
        assert resid[0, -1] == 0.0 and hdbic(resid, 16, 12).tolist() == [4]


def _per_theta_interval(engine, fit, j, rs, alpha):
    """The two-sided grid bound with fresh paths at every theta.

    One ``oga_path_batch`` and one ``statistics_batch`` call at every grid
    point and at both midpoints, as the bound ran before paths were reused
    along theta and before it stopped scanning at the hull. Returns the
    bounds, the flags (``fallback``: any evaluation fell back) and, by
    theta, ``(paths, fell_back, failures)``.
    """
    pos = fit.position(j)
    beta_obs, sigma = float(fit.estimate.beta_tilde[pos]), float(fit.sigma[pos])
    fallback = (norm.ppf(0.5 * (1 + alpha)), norm.ppf(1 - 0.5 * alpha))
    at = {}

    def accepted(theta):
        Y = synthetic_batch(engine.X, rs, j, theta)
        paths = oga_path_batch(engine.X, Y, engine.kn, engine.col_norms)
        stats, selected = engine.statistics_batch(
            Y, j, theta, selected_sets(paths, *engine.X.shape))
        failures = int(np.count_nonzero(selected & np.isnan(stats)))
        cond = np.abs(stats[selected & np.isfinite(stats)])
        u = fallback
        if len(cond) >= MIN_CONDITIONED:
            u = (_order_statistic(cond, alpha), _order_statistic(cond, 1 - alpha))
        at[theta] = (paths, len(cond) < MIN_CONDITIONED, failures)
        t_obs = abs(beta_obs - theta) / sigma
        return u[0] < t_obs < u[1], max(u[0] - t_obs, t_obs - u[1])

    half = GRID_HALF_WIDTH * sigma
    grid = np.linspace(beta_obs - half, beta_obs + half, GRID_POINTS)
    results = [accepted(theta) for theta in grid]
    inside = np.array([r[0] for r in results])
    flags = dict(clipped_low=bool(inside[0]), clipped_high=bool(inside[-1]),
                 empty_region=not inside.any())
    if flags["empty_region"]:
        best = float(grid[np.argmin([r[1] for r in results])])
        bounds = (best, best)
    else:
        lo_idx = int(np.argmax(inside))
        hi_idx = len(inside) - 1 - int(np.argmax(inside[::-1]))
        lower, upper = float(grid[lo_idx]), float(grid[hi_idx])
        if lo_idx > 0 and accepted(mid := 0.5 * (grid[lo_idx - 1] + lower))[0]:
            lower = float(mid)
        if hi_idx < len(grid) - 1 and accepted(mid := 0.5 * (upper + grid[hi_idx + 1]))[0]:
            upper = float(mid)
        bounds = (lower, upper)
    flags["fallback"] = any(fell_back for _, fell_back, _ in at.values())
    return bounds, flags, at


def _bound_against_per_theta(engine, fit, j, rs, alpha, monkeypatch):
    """Run the two-sided bound and check it against ``_per_theta_interval``.

    The bounds and flags must be the oracle's. Every theta the bound
    evaluates must be one the oracle evaluated, with the same paths, and
    the bound's counts must be the oracle's over those thetas. Returns
    the bound's diagnostics.
    """
    n, p = engine.X.shape
    B = rs.w_b.shape[0]
    bounds, flags, at = _per_theta_interval(engine, fit, j, rs, alpha)
    seen, bracketed = {}, _ThetaTest.bracketed

    def record(sweep, theta):
        seen[theta] = bracketed(sweep, theta)
        return seen[theta]

    with monkeypatch.context() as patch:
        patch.setattr(_ThetaTest, "bracketed", record)
        report = hybrid_ci_two_sided(engine, fit, j, rs, alpha)
    diag = report.diagnostics
    assert (report.lower, report.upper) == bounds
    edges = ("clipped_low", "clipped_high", "empty_region")
    assert {key: diag[key] for key in edges} == {key: flags[key] for key in edges}
    assert bool(diag["fallbacks"]) == flags["fallback"]
    assert set(seen) <= set(at)
    for theta, (sel, resid, m_actual) in seen.items():
        want_sel, want_resid, want_m = at[theta][0]
        assert np.array_equal(m_actual, want_m)
        assert np.array_equal(sel, want_sel)
        assert np.array_equal(hdbic(resid, n, p), hdbic(want_resid, n, p))
    assert diag["evaluations"] == len(seen)
    assert diag["paths"] + diag["paths_reused"] == len(seen) * B
    assert diag["fallbacks"] == sum(at[theta][1] for theta in seen)
    assert diag["failures"] == sum(at[theta][2] for theta in seen)
    pairs, conditioned = _statistic_counts([at[theta][0] for theta in seen], j, n, p)
    assert diag["statistics"] == pairs
    assert diag["statistics"] + diag["statistics_reused"] == conditioned
    return diag


def _strong_signal_problem(B):
    """Three strong columns of six, n = 150, i.i.d. Gaussian resampled
    disturbances fed straight into the resample set; returns the two-sided
    engine, its fit, the first selected column and the resample set."""
    rng = np.random.default_rng(7)
    n, p = 150, 6
    X = rng.standard_normal((n, p))
    Y = X @ np.array([1.2, -0.9, 0.7, 0.0, 0.0, 0.0]) + rng.standard_normal(n)
    engine = StatisticEngine(X, StatConfig(kmax=1, q=0, side=SIDE_TWO))
    fit = engine.fit(Y)
    w_tilde = Y - X[:, fit.j_hat] @ fit.estimate.beta_tilde
    rs = ResampleSet(
        j_hat=fit.j_hat, beta_tilde=fit.estimate.beta_tilde.copy(),
        j_plus=fit.j_hat, w_tilde=w_tilde, eps_hat=w_tilde,
        w_b=rng.standard_normal((B, n)))
    return engine, fit, int(fit.j_hat[0]), rs


def _fixed_statistics(stats):
    """A ``statistics_batch`` stub under which every resample conditions,
    with the statistics ``stats`` in order."""
    def fixed(Y_batch, jj, theta, sets):
        b = Y_batch.shape[1]
        return stats[:b].copy(), np.ones(b, dtype=bool)
    return fixed


def _two_sided_case(setting, rep, B=50):
    """Replication ``rep`` of the 200x250 two-sided corpus of TestGridSweep:
    its engine, fit and resample set."""
    ds = generate(DgpConfig(setting=setting, n=200, p=250, seed=300 + rep),
                  make_beta(250))
    engine = StatisticEngine(ds.X, StatConfig(kmax=5, q=1, side=SIDE_TWO))
    fit = engine.fit(ds.Y)
    rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, B=B, seed=rep, kmax=5)
    return engine, fit, rs


class TestGridSweep:
    """The scans from both grid ends against recomputation at every theta."""

    @pytest.mark.parametrize("setting", ["IID", "AR", "LAI"])
    def test_sweep_matches_per_theta_recomputation(self, setting, monkeypatch):
        B, alpha = 50, 0.1
        reused = evaluated = 0
        for rep in range(7):
            engine, fit, rs = _two_sided_case(setting, rep, B)
            j = int(fit.j_hat[rep % len(fit.j_hat)])
            diag = _bound_against_per_theta(engine, fit, j, rs, alpha, monkeypatch)
            reused += diag["paths_reused"]
            evaluated += diag["evaluations"] * B
        assert reused > 0.5 * evaluated

    @pytest.mark.parametrize("setting, col, fallbacks", [("IID", 1, 0), ("AR", 1, 1)])
    def test_interior_scanned_while_the_fallback_flag_is_open(
            self, setting, col, fallbacks, monkeypatch):
        # No evaluation at either end of the hull or at its midpoints falls
        # back, so the fallback flag needs the interior: the IID bound
        # scans all of it and finds no fallback, the AR one stops at its
        # first.
        engine, fit, rs = _two_sided_case(setting, 0)
        diag = _bound_against_per_theta(engine, fit, col, rs, 0.1, monkeypatch)
        assert diag["interior_scanned"]
        assert diag["fallbacks"] == fallbacks
        assert (diag["evaluations"] == GRID_POINTS + 2) is (fallbacks == 0)

    @pytest.mark.parametrize("short, reused", [(0.5, False), (2.0, True)])
    def test_path_reused_only_a_margin_short_of_its_hold(self, short, reused):
        # The path anchored at -3 holds for ``hold`` above it. A scan point
        # ``short`` margins below that end reuses it only when it lies more
        # than one margin below; otherwise it is recomputed there.
        noise = 0.1 * np.random.default_rng(23).standard_normal(16)
        y = lambda X: X[:, 1:4] @ [2.0, 1.0, 0.5] + noise
        _, probe = TestBracketReuse._orthogonal_sweep(y)
        seg = probe._compute(np.array([0]), np.array([-3.0]), 1)
        hold = float(probe.seg["hold"][seg[0]])
        _, sweep = TestBracketReuse._orthogonal_sweep(y)
        assert sweep.margin == hybrid.REUSE_MARGIN > 0.0
        thetas = np.array([-3.0, -3.0 + hold - short * sweep.margin])
        scan = _Scan(thetas, 1)
        for _ in thetas:
            sweep.visit([(scan, 1)])
        assert scan.i == 2
        assert sweep.paths == (1 if reused else 2)
        assert (sweep.visits[thetas[1]][0] == sweep.visits[thetas[0]][0]) == reused

    @pytest.mark.parametrize("lookahead", [0, GRID_POINTS])
    def test_lookahead_changes_only_the_paths_computed(self, lookahead, monkeypatch):
        # The AR bound stops its interior scan early, so a longer
        # lookahead computes paths past its stop.
        engine, fit, rs = _two_sided_case("AR", 0)
        want = hybrid_ci_two_sided(engine, fit, 1, rs, 0.1)
        monkeypatch.setattr(hybrid, "_LOOKAHEAD", lookahead)
        diag = _bound_against_per_theta(engine, fit, 1, rs, 0.1, monkeypatch)
        got = hybrid_ci_two_sided(engine, fit, 1, rs, 0.1)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        counts = ("paths", "paths_reused")
        assert {k: v for k, v in diag.items() if k not in counts} == \
            {k: v for k, v in want.diagnostics.items() if k not in counts}

    @pytest.mark.parametrize("top, flag, evaluations", [
        (100.0, "clipped_low", 2), (0.0, "empty_region", GRID_POINTS)])
    def test_stubbed_clipped_and_empty_stop_early(self, top, flag, evaluations,
                                                  monkeypatch):
        # Every evaluation conditions on 40 statistics, half 0 and half
        # `top`. With top = 100 every grid point but the estimate is
        # accepted, so each scan stops at its first point and the flag is
        # clipped; with top = 0 the quantiles of the magnitudes, (0, 0),
        # accept no point.
        engine, fit, j, rs = _strong_signal_problem(40)
        monkeypatch.setattr(engine, "statistics_batch",
                            _fixed_statistics(np.tile([0.0, top], 20)))
        diag = _bound_against_per_theta(engine, fit, j, rs, 0.1, monkeypatch)
        assert diag[flag] and not diag["interior_scanned"]
        assert diag["evaluations"] == evaluations

    def test_mixed_directions_match_separate_calls(self):
        # One batch of upward and downward members (the latter as -y) gives
        # each member the picks, signs and flags of y's own path and the
        # hold of a call for its own direction; a hold may move by rounding
        # (see TestBatchComposition).
        engine, fit, rs = _two_sided_case("GARCH", 0)
        j, B = int(fit.j_hat[0]), rs.w_b.shape[0]
        rng = np.random.default_rng(42)
        members, toward = rng.permutation(B), rng.choice([-1, 1], B)
        mixed = _ThetaTest(engine, fit, j, rs)
        thetas = mixed.beta_obs + mixed.sigma * rng.uniform(-4.0, 4.0, B)
        got = mixed._compute(members, thetas, toward)
        assert np.array_equal(mixed.synthetic(thetas, members),
                              synthetic_batch(engine.X, rs, j, thetas, members))
        upward = _ThetaTest(engine, fit, j, rs)
        plain = upward._compute(members, thetas, 1)
        for key in ("theta", "sel", "m", "sign", "exact"):
            assert np.array_equal(mixed.seg[key][got], upward.seg[key][plain]), key
        apart, want = _ThetaTest(engine, fit, j, rs), np.empty(B, dtype=int)
        for side in (1, -1):
            part = toward == side
            want[part] = apart._compute(members[part], thetas[part], side)
        hold = apart.seg["hold"][want]
        assert np.allclose(mixed.seg["hold"][got], hold, rtol=1e-12, atol=0.0)
        assert all(np.count_nonzero(hold[toward == side] > 0.0) >= 10 for side in (1, -1))

    def test_one_batch_per_lockstep_round(self, monkeypatch):
        # A round batches the paths both ends are due in one oga_path_batch
        # call; the same rounds with one batch per end make more calls.
        engine, fit, rs = _two_sided_case("GARCH", 0)
        j = int(fit.j_hat[0])
        calls, rounds = [], []
        batch, visit = hybrid.oga_path_batch, _ThetaTest.visit

        def counted_batch(*args, **kwargs):
            calls.append(args[1].shape[1])
            return batch(*args, **kwargs)

        def counted_visit(sweep, scans):
            before = len(calls)
            visit(sweep, scans)
            rounds.append((len(scans), len(calls) - before))

        monkeypatch.setattr(hybrid, "oga_path_batch", counted_batch)
        monkeypatch.setattr(_ThetaTest, "visit", counted_visit)
        want = hybrid_ci_two_sided(engine, fit, j, rs, 0.1)
        lockstep = len(calls)
        assert all(made <= 1 for _, made in rounds)
        assert sum(ends == 2 and made == 1 for ends, made in rounds) >= 5
        monkeypatch.setattr(_ThetaTest, "visit",
                            lambda sweep, scans: [visit(sweep, [scan]) for scan in scans])
        calls.clear()
        got = hybrid_ci_two_sided(engine, fit, j, rs, 0.1)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        counts = ("paths", "paths_reused")
        assert {k: v for k, v in got.diagnostics.items() if k not in counts} == \
            {k: v for k, v in want.diagnostics.items() if k not in counts}
        assert lockstep < len(calls)

    def test_residual_cancelling_on_the_grid_recomputes(self, monkeypatch):
        # Resample b's response at theta is X[:, 1:5] c_b + (theta - c0_b)
        # x_0 with c0_b a grid point: there its last residual cancels and
        # takes the n-space step. A path anchored at an earlier grid point
        # still holds there, but its rss formula cancels too.
        X, B = _orthogonal_design(), 20
        grid = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, GRID_POINTS)
        rng = np.random.default_rng(24)
        c = rng.uniform(0.5, 2.0, (B, 4)) * rng.choice([-1.0, 1.0], (B, 4))
        c0 = grid[rng.integers(20, 61, B)]
        W = c @ X[:, 1:5].T - c0[:, None] * X[:, 0]
        rs = ResampleSet(j_hat=np.array([0]), beta_tilde=np.zeros(1),
                         j_plus=np.array([0]), w_tilde=W[0], eps_hat=W[0], w_b=W)
        engine = StatisticEngine(X, StatConfig(kmax=1, q=0, side=SIDE_TWO))
        # An observed estimate 0 with standard error 1 puts the bound's grid
        # at ``grid``.
        fit = _unit_fit(0)
        # Conditioned statistics half 0 and half 1 (or normal quantiles
        # where fewer than 10 condition) reject both grid ends, so the
        # scans run inward over rescue points.
        seen, bracketed = {}, _ThetaTest.bracketed

        def record(sweep, theta):
            seen[theta] = bracketed(sweep, theta)
            return seen[theta]

        monkeypatch.setattr(engine, "statistics_batch",
                            _fixed_statistics(np.tile([0.0, 1.0], B // 2)))
        monkeypatch.setattr(_ThetaTest, "bracketed", record)
        hybrid_ci_two_sided(engine, fit, 0, rs, 0.1)
        assert set(c0.tolist()) & set(seen)
        for theta, (sel, resid, _) in seen.items():
            Y_batch = synthetic_batch(X, rs, 0, theta)
            want_sel, want_resid, _ = oga_path_batch(X, Y_batch, engine.kn)
            assert np.array_equal(sel, want_sel)
            assert np.array_equal(hdbic(resid, 16, 12), hdbic(want_resid, 16, 12))


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
        engine, fit, j, rs = _strong_signal_problem(2000)
        pos = fit.position(j)
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
        engine, fit, j, rs = _strong_signal_problem(40)
        for top, clipped in ((100.0, True), (2.0, False)):
            monkeypatch.setattr(engine, "statistics_batch",
                                _fixed_statistics(np.tile([0.0, top], 20)))
            rep = hybrid_ci_two_sided(engine, fit, j, rs, 0.1)
            assert rep.diagnostics["clipped_low"] is clipped
            assert rep.diagnostics["clipped_high"] is clipped
            assert rep.diagnostics["fallbacks"] == 0

    def test_two_sided_tail_convention(self):
        # Nominal 80% two-sided coverage means alpha = 0.1 in each tail.
        assert np.isclose(norm.ppf(1 - 0.1 / 2), 1.6449, atol=1e-4)


class TestThetaTest:
    """One test at theta per bound, on a statistic that has no side."""

    @staticmethod
    def _case(setting):
        """A 150x120 dataset and its resample set, and the engine of a side."""
        ds, _ = small_problem(5, n=150, p=120, setting=setting)
        engine = lambda side: StatisticEngine(ds.X, StatConfig(kmax=5, q=1, side=side))
        one = engine(SIDE_ONE)
        fit = one.fit(ds.Y)
        rs = generate_w(ds, fit.j_hat, one.factors.F_hat, B=50, seed=5, kmax=5)
        return ds, rs, engine

    @pytest.mark.parametrize("setting", ["IID", "GARCH"])
    @pytest.mark.parametrize("shared_side", [SIDE_ONE, SIDE_TWO])
    def test_one_engine_serves_both_sides(self, setting, shared_side):
        ds, rs, engine = self._case(setting)
        shared = engine(shared_side)
        shared_fit = shared.fit(ds.Y)
        for side, bound, alpha in ((SIDE_ONE, hybrid_ci_one_sided, 0.2),
                                   (SIDE_TWO, hybrid_ci_two_sided, 0.1)):
            own = engine(side)
            own_fit = own.fit(ds.Y)
            for j in shared_fit.j_hat.tolist():
                got = bound(shared, shared_fit, j, rs, alpha)
                want = bound(own, own_fit, j, rs, alpha)
                assert (got.lower, got.upper) == (want.lower, want.upper), (side, j)
                assert got.diagnostics == want.diagnostics, (side, j)

    @pytest.mark.parametrize("side", [SIDE_ONE, SIDE_TWO])
    def test_one_test_and_one_hdbic_per_evaluation(self, side, monkeypatch):
        ds, rs, make_engine = self._case("LAI")
        engine = make_engine(side)
        fit = engine.fit(ds.Y)
        bound = hybrid_ci_one_sided if side == SIDE_ONE else hybrid_ci_two_sided
        hdbic_calls, tests = [], []

        def spy(*args):
            hdbic_calls.append(args)
            return hdbic(*args)

        class Counted(_ThetaTest):
            def __init__(self, *args):
                tests.append(args)
                super().__init__(*args)

        monkeypatch.setattr(hybrid, "hdbic", spy)
        monkeypatch.setattr(hybrid, "_ThetaTest", Counted)
        for j in fit.j_hat.tolist():
            hdbic_calls.clear()
            tests.clear()
            diag = bound(engine, fit, j, rs, 0.2 if side == SIDE_ONE else 0.1).diagnostics
            assert diag["statistics"] > 0
            assert len(tests) == 1
            assert len(hdbic_calls) == diag["evaluations"]


class TestCallOrder:
    """A bound depends on its column and inputs, not on the bounds before it."""

    @pytest.mark.parametrize("setting", ["LAI", "GARCH"])
    @pytest.mark.parametrize("side", [SIDE_ONE, SIDE_TWO])
    def test_bound_on_fresh_engine_matches_shared_engine(self, setting, side):
        ds, _ = small_problem(5, n=150, p=120, setting=setting)
        cfg = StatConfig(kmax=5, q=1, side=side)
        bound = hybrid_ci_one_sided if side == SIDE_ONE else hybrid_ci_two_sided
        alpha = 0.2 if side == SIDE_ONE else 0.1
        shared = StatisticEngine(ds.X, cfg)
        fit = shared.fit(ds.Y)
        assert len(fit.j_hat) >= 3
        rs = generate_w(ds, fit.j_hat, shared.factors.F_hat, B=50, seed=5, kmax=5)
        after = [bound(shared, fit, int(j), rs, alpha) for j in fit.j_hat]
        for j, want in zip(fit.j_hat[1:], after[1:]):
            fresh = StatisticEngine(ds.X, cfg)
            got = bound(fresh, fresh.fit(ds.Y), int(j), rs, alpha)
            assert (got.lower, got.upper) == (want.lower, want.upper)
            assert got.diagnostics == want.diagnostics

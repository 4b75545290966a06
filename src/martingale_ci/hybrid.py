"""Confidence intervals by inverting resampling-calibrated tests.

For a candidate value theta, synthetic responses are built from the
combined estimate and the resampled disturbances, each synthetic response
is pushed through the full statistic pipeline (selection included), and
the observed statistic is compared with quantiles of the synthetic ones,
conditioned on the target column having been selected. The one-sided bound
inverts that comparison by bisection; the two-sided bound scans a grid.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve
from scipy.stats import norm

from .factor_model import complement_projection, estimate_factors
from .inference import (
    CovEstimate,
    IntervalReport,
    IvEstimate,
    PipelineFit,
    SIDE_ONE,
    SIDE_TWO,
    StatConfig,
    covariance,
)
from .iv_estimator import factor_gram
from .oga import default_iterations, hdbic, oga_hdbic, oga_path_batch
from .resampler import ResampleSet

MIN_RESAMPLES = 20
MIN_CONDITIONED = 10
# One-sided search, every step in units of the observed standard error:
# the start walks up by START_BUMP at most START_MAX_BUMPS times, the
# rejected end starts R1_OFFSET below it and walks down by R1_STEP at most
# R1_MAX_STEPS times, and bisection stops at BISECT_WIDTH wide or after
# BISECT_MAX_ITERATIONS halvings.
START_BUMP = 0.5
START_MAX_BUMPS = 10
R1_OFFSET = 2.0
R1_STEP = 0.5
R1_MAX_STEPS = 40
BISECT_WIDTH = 1e-3
BISECT_MAX_ITERATIONS = 60
# Two-sided scan: GRID_POINTS points over +-GRID_HALF_WIDTH standard errors.
GRID_POINTS = 81
GRID_HALF_WIDTH = 4.0


class StatisticEngine:
    """Response-independent state for repeated statistic evaluation.

    Factor estimation, the factor-complement projection and the gram rows
    x_j'X of the columns greedy paths pick (``gram_cols``, never the full
    p x p gram) depend only on the design matrix, so they are computed once
    and shared by every response evaluated against this design.
    """

    def __init__(self, X: np.ndarray, cfg: StatConfig):
        self.X = np.asarray(X, dtype=float)
        self.cfg = cfg
        self.n, self.p = self.X.shape
        self.col_norms = np.linalg.norm(self.X, axis=0)
        self.kn = default_iterations(self.n, self.p)
        self.factors = estimate_factors(self.X, min(cfg.kmax, self.n, self.p))
        self.x_tilde = complement_projection(self.factors.F_hat, self.X)
        self.gram_cols: dict[int, np.ndarray] = {}

    def estimate(self, J: np.ndarray, Y: np.ndarray) -> tuple[IvEstimate, CovEstimate]:
        """Projected-design estimate and sandwich covariance on the set J.

        The one path for observed and synthetic responses alike. ``Y`` is
        one response (n,) or a block (n, b) of responses that share J; one
        guarded factorization of the projected gram (``factor_gram``,
        ``SingularGramError`` otherwise) gives both the coefficients and
        the bread, and a block gives coefficients (m, b) and V (b, m, m).
        """
        xt = self.x_tilde[:, J]
        gram = xt.T @ xt
        beta, inv_gram = np.zeros((0,) + Y.shape[1:]), None
        if len(J):
            factor = factor_gram(gram)
            beta = cho_solve(factor, xt.T @ Y, check_finite=False)
            inv_gram = cho_solve(factor, np.eye(len(J)), check_finite=False)
        est = IvEstimate(j=J, beta_tilde=beta, x_tilde=xt, gram=gram,
                         residuals=Y - self.X[:, J] @ beta)
        return est, covariance(est, self.cfg.q, inv_gram)

    def fit(self, Y: np.ndarray) -> PipelineFit:
        """Selection, projected estimate, and sandwich variance for one response."""
        sel = oga_hdbic(self.X, Y, self.kn)
        est, cov = self.estimate(sel.j_hat, Y)
        sigma = np.sqrt(np.diag(cov.V) / self.n)
        return PipelineFit(selection=sel, estimate=est, cov=cov, sigma=sigma)

    def statistics_batch(
        self, Y_batch: np.ndarray, j: int, theta: float
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Statistic for each column of Y_batch, with a selection mask.

        Returns ``(stats, selected, failures)``: unselected responses carry
        the sentinel and ``selected`` False; resamples whose gram fails the
        guard or whose variance is not positive carry NaN (still marked
        selected) and count as failures. Resamples that select the same
        set are estimated together, with one factorization.
        """
        sel, resid_norms, m_actual = oga_path_batch(
            self.X, Y_batch, self.kn, self.col_norms, self.gram_cols
        )
        out = np.full(Y_batch.shape[1], self.cfg.sentinel)
        selected = np.zeros(Y_batch.shape[1], dtype=bool)
        groups: dict[tuple, list[int]] = {}
        m = hdbic(resid_norms, self.n, self.p)
        for b in np.flatnonzero(m_actual):
            J = sel[b, :m[b]]
            if j in J:
                groups.setdefault(tuple(J.tolist()), []).append(b)

        failures = 0
        for J, members in groups.items():
            selected[members] = True
            pos = J.index(j)
            try:
                est, cov = self.estimate(np.array(J), Y_batch[:, members])
                beta, v_jj = est.beta_tilde[pos], cov.V[:, pos, pos]
            except np.linalg.LinAlgError:
                beta, v_jj = np.nan, np.full(len(members), np.nan)
            ok = v_jj > 0.0
            failures += len(members) - int(np.count_nonzero(ok))
            value = (beta - theta) / np.sqrt(np.where(ok, v_jj, np.nan) / self.n)
            out[members] = np.abs(value) if self.cfg.side == SIDE_TWO else value
        return out, selected, failures


def fit_pipeline(X: np.ndarray, Y: np.ndarray, cfg: StatConfig) -> PipelineFit:
    """Selection, factor projection, estimate and variance for one response."""
    return StatisticEngine(X, cfg).fit(Y)


def test_statistic(
    X: np.ndarray, Y: np.ndarray, j: int, theta: float, cfg: StatConfig
) -> float:
    """Standardized statistic for the hypothesis that coefficient j equals theta.

    Selection is part of the statistic: when column j is not selected the
    sentinel is returned (0 two-sided, -inf one-sided).
    """
    fit = fit_pipeline(X, Y, cfg)
    pos = fit.position(j)
    if pos is None:
        return cfg.sentinel
    value = (fit.estimate.beta_tilde[pos] - theta) / fit.sigma[pos]
    return abs(value) if cfg.side == SIDE_TWO else value


def _order_statistic(values: np.ndarray, level: float) -> float:
    """Conservative order-statistic quantile: index ceil(level * (B + 1)).

    The +1 errs toward wider acceptance regions, the standard convention
    for Monte-Carlo tests with a small number of resamples.
    """
    k = int(math.ceil(level * (len(values) + 1)))
    k = min(max(k, 1), len(values))
    return float(np.sort(values)[k - 1])


def _synthetic_batch(
    X: np.ndarray, rs: ResampleSet, j: int, theta: float
) -> np.ndarray:
    pos = int(np.flatnonzero(rs.j_hat == j)[0])
    base = X[:, rs.j_hat] @ rs.beta_tilde
    shift = theta - rs.beta_tilde[pos]
    return base[:, None] + rs.w_b.T + shift * X[:, j][:, None]


def _observed(engine: StatisticEngine, fit: PipelineFit, j: int,
              rs: ResampleSet, side: str) -> tuple[float, float]:
    """Observed estimate and standard error for a bound on column j."""
    if j not in set(int(v) for v in rs.j_hat):
        raise ValueError(f"column {j} is not in the selected set")
    if rs.w_b.shape[0] < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples")
    if engine.cfg.side != side:
        raise ValueError(f"a {side}-sided interval needs a {side}-sided statistic")
    pos = fit.position(j)
    if pos is None:
        raise ValueError(f"column {j} not selected on the observed response")
    return float(fit.estimate.beta_tilde[pos]), float(fit.sigma[pos])


def _conditioned(engine: StatisticEngine, rs: ResampleSet, j: int,
                 theta: float, diag: dict) -> np.ndarray:
    """Resampled statistics at theta that enter the quantile.

    Those are the resamples that selected column j and did not fail;
    ``diag`` counts the evaluation and its failures.
    """
    stats, selected, failures = engine.statistics_batch(
        _synthetic_batch(engine.X, rs, j, theta), j, theta
    )
    diag["evaluations"] += 1
    diag["failures"] += failures
    return stats[selected & np.isfinite(stats)]


def invert_lower_bound(observed_stat, u_upper, start: float,
                       sigma: float) -> tuple[float, dict]:
    """Bisection for the boundary where the observed statistic meets u_upper.

    ``observed_stat(theta)`` must be increasing as theta decreases and
    ``u_upper(theta)`` bounded for the crossing to be unique. Walks down
    from ``start`` in sigma-scaled steps until the observed statistic
    exceeds the quantile, then bisects the bracket to width
    sigma * BISECT_WIDTH (or the iteration cap, flagged non-converged).
    """
    diag: dict = {}
    a = start
    bumps = 0
    while (below := u_upper(a) <= observed_stat(a)) and bumps < START_MAX_BUMPS:
        a += START_BUMP * sigma
        bumps += 1
    diag["start_bumps"] = bumps
    diag["start_capped"] = below  # still below the quantile after every bump

    r = a - R1_OFFSET * sigma
    found = False
    for _ in range(R1_MAX_STEPS):
        if u_upper(r) < observed_stat(r):
            found = True
            break
        r -= R1_STEP * sigma
    if not found:
        diag["converged"] = False
        diag["bisection_iterations"] = 0
        return float(0.5 * (a + r)), diag

    delta = BISECT_WIDTH * sigma
    iterations = 0
    while (a - r) >= delta and iterations < BISECT_MAX_ITERATIONS:
        mid = 0.5 * (a + r)
        if u_upper(mid) > observed_stat(mid):
            a = mid
        else:
            r = mid
        iterations += 1
    diag["bisection_iterations"] = iterations
    diag["converged"] = (a - r) < delta
    diag["bracket_width"] = a - r
    return float(0.5 * (a + r)), diag


def hybrid_ci_one_sided(engine: StatisticEngine, fit: PipelineFit, j: int,
                        rs: ResampleSet, alpha: float) -> IntervalReport:
    """Lower confidence bound by bisecting the test-inversion boundary.

    ``engine`` must hold a one-sided statistic and ``fit`` be its fit of
    the observed response. Walks down from the point estimate until the
    observed statistic exceeds the resampled (1-alpha)-quantile, then
    bisects the bracketing interval to within sigma * BISECT_WIDTH.
    """
    beta_obs, sigma = _observed(engine, fit, j, rs, SIDE_ONE)
    level = 1.0 - alpha
    diag = {"evaluations": 0, "empty_conditioning": 0,
            "min_conditioned": np.inf, "failures": 0}

    def observed_stat(theta: float) -> float:
        return (beta_obs - theta) / sigma

    def u_upper(theta: float) -> float:
        cond = _conditioned(engine, rs, j, theta, diag)
        diag["min_conditioned"] = min(diag["min_conditioned"], len(cond))
        if len(cond) == 0:
            # No resample selected the column at this theta: there is no
            # conditional evidence against it, so it cannot be rejected.
            diag["empty_conditioning"] += 1
            return np.inf
        return _order_statistic(cond, level)

    lower, bisect_diag = invert_lower_bound(observed_stat, u_upper, beta_obs, sigma)
    diag.update(bisect_diag)
    return IntervalReport(j=j, method="hr", lower=lower, upper=np.inf,
                          alpha=alpha, diagnostics=diag)


def hybrid_ci_two_sided(engine: StatisticEngine, fit: PipelineFit, j: int,
                        rs: ResampleSet, alpha: float) -> IntervalReport:
    """Two-sided interval as the hull of the grid acceptance region.

    ``engine`` must hold a two-sided statistic and ``fit`` be its fit of
    the observed response. A grid point is accepted when the observed
    |statistic| lies between the alpha and (1-alpha) resample quantiles;
    the reported bounds are the outermost accepted points, tightened by one
    midpoint refinement on each side; ``clipped_low``/``clipped_high`` flag
    an accepted grid end.
    """
    beta_obs, sigma = _observed(engine, fit, j, rs, SIDE_TWO)
    lo_fallback = float(norm.ppf(0.5 * (1.0 + alpha)))
    hi_fallback = float(norm.ppf(1.0 - 0.5 * alpha))
    diag = {"evaluations": 0, "fallbacks": 0, "failures": 0}

    def bounds_at(theta: float) -> tuple[float, float]:
        cond = _conditioned(engine, rs, j, theta, diag)
        if len(cond) < MIN_CONDITIONED:
            diag["fallbacks"] += 1
            return lo_fallback, hi_fallback
        return (_order_statistic(cond, alpha), _order_statistic(cond, 1.0 - alpha))

    def accepted(theta: float) -> tuple[bool, float]:
        u_lo, u_hi = bounds_at(theta)
        t_obs = abs(beta_obs - theta) / sigma
        inside = u_lo < t_obs < u_hi
        violation = max(u_lo - t_obs, t_obs - u_hi)
        return inside, violation

    half = GRID_HALF_WIDTH * sigma
    grid = np.linspace(beta_obs - half, beta_obs + half, GRID_POINTS)
    results = [accepted(theta) for theta in grid]
    inside = np.array([r[0] for r in results])
    diag.update(clipped_low=bool(inside[0]), clipped_high=bool(inside[-1]))

    if not inside.any():
        violations = np.array([r[1] for r in results])
        best = float(grid[int(np.argmin(violations))])
        diag["empty_region"] = True
        return IntervalReport(j=j, method="hr", lower=best, upper=best,
                              alpha=alpha, diagnostics=diag)

    lo_idx = int(np.argmax(inside))
    hi_idx = int(len(inside) - 1 - np.argmax(inside[::-1]))
    theta_l = float(grid[lo_idx])
    theta_u = float(grid[hi_idx])
    if lo_idx > 0:
        mid = 0.5 * (grid[lo_idx - 1] + theta_l)
        if accepted(mid)[0]:
            theta_l = float(mid)
    if hi_idx < len(grid) - 1:
        mid = 0.5 * (theta_u + grid[hi_idx + 1])
        if accepted(mid)[0]:
            theta_u = float(mid)
    diag["empty_region"] = False
    return IntervalReport(j=j, method="hr", lower=theta_l, upper=theta_u,
                          alpha=alpha, diagnostics=diag)

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
from dataclasses import dataclass

import numpy as np
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
from .iv_estimator import solve_gram
from .oga import default_iterations, hdbic, oga_hdbic, oga_path_batch
from .resampler import ResampleSet

MIN_RESAMPLES = 20
MIN_CONDITIONED = 10


@dataclass(frozen=True)
class BisectConfig:
    """Controls for the one-sided bound search (all steps in sigma units)."""

    delta_scale: float = 1e-3
    max_iterations: int = 60
    r1_offset: float = 2.0
    r1_step: float = 0.5
    r1_max_steps: int = 40


@dataclass(frozen=True)
class GridConfig:
    """Controls for the two-sided grid scan."""

    n_points: int = 81
    half_width_sigmas: float = 4.0
    min_conditioned: int = MIN_CONDITIONED


class StatisticEngine:
    """Response-independent state for repeated statistic evaluation.

    Factor estimation and the factor-complement projection depend only on
    the design matrix, so they are computed once and shared by every
    observed and synthetic response evaluated against this design.
    """

    def __init__(self, X: np.ndarray, cfg: StatConfig):
        self.X = np.asarray(X, dtype=float)
        self.cfg = cfg
        self.n, self.p = self.X.shape
        self.col_norms = np.linalg.norm(self.X, axis=0)
        self.kn = cfg.kn if cfg.kn is not None else default_iterations(self.n, self.p)
        self.factors = estimate_factors(self.X, min(cfg.kmax, self.n, self.p))
        self.x_tilde = complement_projection(self.factors.F_hat, self.X)

    def estimate(self, J: np.ndarray, y: np.ndarray) -> tuple[IvEstimate, CovEstimate]:
        """Projected-design estimate and sandwich covariance on the set J.

        The one path for observed and synthetic responses alike: the
        projected gram must pass the ``solve_gram`` condition guard
        (``SingularGramError`` otherwise).
        """
        xt = self.x_tilde[:, J]
        gram = xt.T @ xt
        beta = solve_gram(gram, xt.T @ y) if len(J) else np.zeros(0)
        est = IvEstimate(j=J, beta_tilde=beta, x_tilde=xt, gram=gram,
                         residuals=y - self.X[:, J] @ beta)
        return est, covariance(est, self.cfg.q)

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
        selected) and count as failures.
        """
        sel, resid_norms, m_actual = oga_path_batch(
            self.X, Y_batch, self.kn, self.col_norms
        )
        B = Y_batch.shape[1]
        out = np.full(B, self.cfg.sentinel)
        selected = np.zeros(B, dtype=bool)
        failures = 0

        for b in range(B):
            steps = m_actual[b]
            if steps == 0:
                continue
            J = sel[b, :hdbic(resid_norms[b, :steps], self.n, self.p)]
            hits = np.flatnonzero(J == j)
            if len(hits) == 0:
                continue
            selected[b] = True
            pos = int(hits[0])
            try:
                est, cov = self.estimate(J, Y_batch[:, b])
                v_jj = cov.V[pos, pos]
            except np.linalg.LinAlgError:
                v_jj = math.nan
            if not v_jj > 0.0:
                out[b] = np.nan
                failures += 1
                continue
            value = (est.beta_tilde[pos] - theta) / math.sqrt(v_jj / self.n)
            out[b] = abs(value) if self.cfg.side == SIDE_TWO else value
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


def _observed(
    X: np.ndarray, Y: np.ndarray, j: int, rs: ResampleSet, side: str,
    stat_cfg: StatConfig | None, engine: StatisticEngine | None,
) -> tuple[StatisticEngine, float, float]:
    """Engine, observed estimate and standard error for a bound on column j."""
    if j not in set(int(v) for v in rs.j_hat):
        raise ValueError(f"column {j} is not in the selected set")
    if rs.w_b.shape[0] < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples")
    stat_cfg = stat_cfg or StatConfig(side=side)
    if stat_cfg.side != side:
        raise ValueError(f"a {side}-sided interval needs a {side}-sided statistic")
    if engine is None:
        engine = StatisticEngine(X, stat_cfg)
    fit = engine.fit(Y)
    pos = fit.position(j)
    if pos is None:
        raise ValueError(f"column {j} not selected on the observed response")
    return engine, float(fit.estimate.beta_tilde[pos]), float(fit.sigma[pos])


def _conditioned(engine: StatisticEngine, X: np.ndarray, rs: ResampleSet,
                 j: int, theta: float, diag: dict) -> np.ndarray:
    """Resampled statistics at theta that enter the quantile.

    Those are the resamples that selected column j and did not fail;
    ``diag`` counts the evaluation and its failures.
    """
    stats, selected, failures = engine.statistics_batch(
        _synthetic_batch(X, rs, j, theta), j, theta
    )
    diag["evaluations"] += 1
    diag["failures"] += failures
    return stats[selected & np.isfinite(stats)]


def invert_lower_bound(
    observed_stat,
    u_upper,
    start: float,
    sigma: float,
    cfg: BisectConfig = BisectConfig(),
) -> tuple[float, dict]:
    """Bisection for the boundary where the observed statistic meets u_upper.

    ``observed_stat(theta)`` must be increasing as theta decreases and
    ``u_upper(theta)`` bounded for the crossing to be unique. Walks down
    from ``start`` in sigma-scaled steps until the observed statistic
    exceeds the quantile, then bisects the bracket to width
    sigma * delta_scale (or the iteration cap, flagged non-converged).
    """
    diag: dict = {}
    a = start
    bumps = 0
    while u_upper(a) <= observed_stat(a) and bumps < 10:
        a += 0.5 * sigma
        bumps += 1
    diag["start_bumps"] = bumps

    r = a - cfg.r1_offset * sigma
    found = False
    for _ in range(cfg.r1_max_steps):
        if u_upper(r) < observed_stat(r):
            found = True
            break
        r -= cfg.r1_step * sigma
    if not found:
        diag["converged"] = False
        diag["bisection_iterations"] = 0
        return float(0.5 * (a + r)), diag

    delta = cfg.delta_scale * sigma
    iterations = 0
    while (a - r) >= delta and iterations < cfg.max_iterations:
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


def hybrid_ci_one_sided(
    X: np.ndarray,
    Y: np.ndarray,
    j: int,
    rs: ResampleSet,
    alpha: float,
    stat_cfg: StatConfig | None = None,
    bisect_cfg: BisectConfig = BisectConfig(),
    engine: StatisticEngine | None = None,
) -> IntervalReport:
    """Lower confidence bound by bisecting the test-inversion boundary.

    Walks down from the point estimate until the observed statistic exceeds
    the resampled (1-alpha)-quantile, then bisects the bracketing interval
    to within delta = sigma * delta_scale.
    """
    engine, beta_obs, sigma = _observed(X, Y, j, rs, SIDE_ONE, stat_cfg, engine)
    level = 1.0 - alpha
    diag = {"evaluations": 0, "empty_conditioning": 0,
            "min_conditioned": np.inf, "failures": 0}

    def observed_stat(theta: float) -> float:
        return (beta_obs - theta) / sigma

    def u_upper(theta: float) -> float:
        cond = _conditioned(engine, X, rs, j, theta, diag)
        diag["min_conditioned"] = min(diag["min_conditioned"], len(cond))
        if len(cond) == 0:
            # No resample selected the column at this theta: there is no
            # conditional evidence against it, so it cannot be rejected.
            diag["empty_conditioning"] += 1
            return np.inf
        return _order_statistic(cond, level)

    lower, bisect_diag = invert_lower_bound(observed_stat, u_upper, beta_obs,
                                            sigma, bisect_cfg)
    diag.update(bisect_diag)
    return IntervalReport(j=j, method="hr", lower=lower, upper=np.inf,
                          alpha=alpha, diagnostics=diag)


def hybrid_ci_two_sided(
    X: np.ndarray,
    Y: np.ndarray,
    j: int,
    rs: ResampleSet,
    alpha: float,
    grid_cfg: GridConfig = GridConfig(),
    stat_cfg: StatConfig | None = None,
    engine: StatisticEngine | None = None,
) -> IntervalReport:
    """Two-sided interval as the hull of the grid acceptance region.

    A grid point is accepted when the observed |statistic| lies between the
    alpha and (1-alpha) resample quantiles; the reported bounds are the
    outermost accepted points, tightened by one midpoint refinement on
    each side.
    """
    engine, beta_obs, sigma = _observed(X, Y, j, rs, SIDE_TWO, stat_cfg, engine)
    lo_fallback = float(norm.ppf(0.5 * (1.0 + alpha)))
    hi_fallback = float(norm.ppf(1.0 - 0.5 * alpha))
    diag = {"evaluations": 0, "fallbacks": 0, "failures": 0}

    def bounds_at(theta: float) -> tuple[float, float]:
        cond = _conditioned(engine, X, rs, j, theta, diag)
        if len(cond) < grid_cfg.min_conditioned:
            diag["fallbacks"] += 1
            return lo_fallback, hi_fallback
        return (_order_statistic(cond, alpha), _order_statistic(cond, 1.0 - alpha))

    def accepted(theta: float) -> tuple[bool, float]:
        u_lo, u_hi = bounds_at(theta)
        t_obs = abs(beta_obs - theta) / sigma
        inside = u_lo < t_obs < u_hi
        violation = max(u_lo - t_obs, t_obs - u_hi)
        return inside, violation

    half = grid_cfg.half_width_sigmas * sigma
    grid = np.linspace(beta_obs - half, beta_obs + half, grid_cfg.n_points)
    results = [accepted(theta) for theta in grid]
    inside = np.array([r[0] for r in results])

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

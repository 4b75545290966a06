"""Confidence intervals by inverting resampling-calibrated tests.

For a candidate value theta, synthetic responses are built from the
combined estimate and the resampled disturbances, each synthetic response
is pushed through the full statistic pipeline (selection included), and
the observed statistic is compared with quantiles of the synthetic ones,
conditioned on the target column having been selected. Each bound builds
that test once, as a ``_ThetaTest``, which gives the signed statistics
(beta_j - theta) / se; the one-sided bound compares them, the two-sided
bound their magnitudes. The one-sided bound inverts the test by
bisection, reusing a resample's greedy path between two evaluated thetas
at which it is the same; the two-sided bound scans a grid inward from both
ends at once to the hull of its acceptance region, one greedy batch per
round for both ends, reusing each resample's greedy path over the
theta-interval on which it provably holds.

A resample's statistic depends on theta only through its selected set J.
Its response is y_b(theta) = a_b + theta x_j and the projected design
satisfies X~_J'x_j = X~_J'X~_J e_j for J holding j, so beta_j(theta) -
theta, the residuals y_b - X_J beta(theta) and with them the sandwich
variance do not move with theta. Each bound therefore estimates one
statistic per (resample, J) and reuses it wherever that resample selects
J again.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import ndtri

from .factor_model import complement_projection, estimate_factors
from .inference import IntervalReport, PipelineFit, StatConfig, covariance
from .iv_estimator import IvEstimate, fit_selected
from .oga import (RSS_RESCUE_TOL, column_norms, default_iterations, hdbic,
                  oga_hdbic, oga_path_batch)
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
# A greedy path is reused at theta only while theta stays REUSE_MARGIN
# standard errors inside the end of the interval on which it holds.
REUSE_MARGIN = 1e-9
# A grid scan computes a resample's next path early, in the batch of the
# round it is in, when that path's anchor is at most this many points
# ahead: fewer, larger batches, and few paths past where the scan stops.
_LOOKAHEAD = 4


class StatisticEngine:
    """Response-independent state for repeated statistic evaluation.

    Factor estimation, the factor-complement projection and the Gram
    matrix X'X (``gram``, which batch greedy paths gather their picks' rows
    from) depend only on the design matrix, so they are computed once and
    shared by every response evaluated against this design. ``gram`` is
    computed when a batch path first needs it, so an engine that only
    fits the observed response never pays its p x p cost.
    """

    def __init__(self, X: np.ndarray, cfg: StatConfig):
        self.X = np.asarray(X, dtype=float)
        self.cfg = cfg
        self.n, self.p = self.X.shape
        self.col_norms = column_norms(self.X)
        self.kn = default_iterations(self.n, self.p)
        self.factors = estimate_factors(self.X, min(cfg.kmax, self.n, self.p))
        self.x_tilde = complement_projection(self.factors.F_hat, self.X)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """X'X, the Gram rows x_j'X of every column."""
        return self.X.T @ self.X

    def estimate(self, J: np.ndarray, Y: np.ndarray) -> tuple[IvEstimate, np.ndarray]:
        """Projected-design estimate and sandwich covariance on the set J.

        The one path for observed and synthetic responses alike: the one
        guarded fit, ``iv_estimator.fit_selected``, on the projected columns
        and then :func:`covariance`. ``Y`` is one response (n,) or a block
        (n, b) that shares J, giving coefficients (m, b) and V (b, m, m).
        """
        est = fit_selected(self.x_tilde[:, J], self.X[:, J], Y)
        return est, covariance(est, self.cfg.q)

    def fit(self, Y: np.ndarray) -> PipelineFit:
        """Selection, projected estimate, and sandwich variance for one response."""
        sel = oga_hdbic(self.X, Y)
        est, V = self.estimate(sel.j_hat, Y)
        return PipelineFit(selection=sel, estimate=est,
                           sigma=np.sqrt(np.diag(V) / self.n))

    def statistics_batch(self, Y_batch: np.ndarray, j: int, theta: float,
                         sets: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Signed statistic (beta_j - theta) / se of each column of Y_batch.

        ``sets[b]`` is the selected set of column b, its ordered picks.
        Returns ``(stats, selected)``: a set without j gives NaN and
        ``selected`` False; a set whose gram fails the guard, or a variance
        that is not positive, gives NaN with ``selected`` True. Responses
        that share a set are estimated together, with one factorization.
        """
        out = np.full(Y_batch.shape[1], np.nan)
        selected = np.array([j in J for J in sets], dtype=bool)
        groups: dict[tuple, list[int]] = {}
        for b in np.flatnonzero(selected).tolist():
            groups.setdefault(tuple(sets[b]), []).append(b)
        for J, members in groups.items():
            pos = J.index(j)
            try:
                est, V = self.estimate(np.array(J), Y_batch[:, members])
                beta, v_jj = est.beta_tilde[pos], V[:, pos, pos]
            except np.linalg.LinAlgError:
                beta, v_jj = np.nan, np.full(len(members), np.nan)
            out[members] = (beta - theta) / np.sqrt(
                np.where(v_jj > 0.0, v_jj, np.nan) / self.n)
        return out, selected


def _order_statistic(values: np.ndarray, level: float) -> float:
    """Conservative order-statistic quantile: index ceil(level * (B + 1)).

    The +1 errs toward wider acceptance regions, the standard convention
    for Monte-Carlo tests with a small number of resamples.
    """
    k = int(math.ceil(level * (len(values) + 1)))
    k = min(max(k, 1), len(values))
    return float(np.sort(values)[k - 1])


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


class _Scan:
    """A walk over the points of a grid in order, for one ``_ThetaTest``.

    ``toward`` is +1 if ``thetas`` increase and -1 if they decrease,
    ``i`` the next point to visit, ``segs_at[i, b]`` the segment that
    serves resample b at point i, and ``nxt[b]`` the first point that its
    segments do not serve yet.
    """

    def __init__(self, thetas: np.ndarray, B: int):
        self.thetas, self.i = thetas, 0
        self.toward = -1 if len(thetas) > 1 and thetas[-1] < thetas[0] else 1
        self.segs_at = np.empty((len(thetas), B), dtype=int)
        self.nxt = np.zeros(B, dtype=int)


class _ThetaTest:
    """The resampling test at theta that one bound on column j inverts.

    Built once per bound, from the engine, its fit of the observed
    response and the resample set, after checking that j is selected in
    both and that there are at least MIN_RESAMPLES resamples. At theta it
    gives the signed observed statistic (``observed``) and the signed
    statistics of the resamples that select j there (``conditioned``); the
    bound applies its own acceptance rule to them and builds its report
    with ``report``, which adds the counts below.

    Resample b's response at theta is a_b + theta x_j. Each computed path
    is a segment of ``seg``, anchored at the theta it was computed at;
    where it holds, its residual norms at t = theta - anchor are
    sqrt(rss + 2 t C_d + t^2 D_d) (``oga_path_batch`` along column j).
    Every evaluation reads its paths from ``bracketed``; ``visit`` only
    fills the visits of the grid scans (``_Scan``) ahead of it. Two rules
    say where a path holds:

    - ``visit``: from the anchor for ``hold`` in the scan's direction, the
      end ``oga_path_batch`` bounds along x_j (see ``_compute``).
    - ``bracketed``: between two visited thetas at which the resample's
      paths are the same (same picks, same signs, all kn steps, no n-space
      step). Along a fixed path the normalized correlations move as
      a + t b. The pick J with sign s stays the argmax while every
      |a_i + t b_i| - s (a_J + t b_J) <= 0, and each of these is convex
      in t, so it holds between two points where it holds. The path goes
      on while s (a_J + t b_J) - RESIDUAL_TOL ||y + t x_j|| > 0, and this
      is concave in t. ``DEPENDENT_TOL`` and the n-space distance test
      depend on the design only. So the path holds everywhere in between,
      with no per-step bound.

    Neither rule covers the rss rescue test, which depends on theta: both
    reuse a path only where ``_holds`` says the loop would not rescue it.
    """

    def __init__(self, engine: StatisticEngine, fit: PipelineFit, j: int,
                 rs: ResampleSet):
        if j not in set(int(v) for v in rs.j_hat):
            raise ValueError(f"column {j} is not in the selected set")
        if rs.w_b.shape[0] < MIN_RESAMPLES:
            raise ValueError(f"need at least {MIN_RESAMPLES} resamples")
        pos = fit.position(j)
        if pos is None:
            raise ValueError(f"column {j} not selected on the observed response")
        self.beta_obs = float(fit.estimate.beta_tilde[pos])
        self.sigma = float(fit.sigma[pos])
        self.engine, self.rs, self.j = engine, rs, j
        self.margin = REUSE_MARGIN * self.sigma
        # The combined fit X_J beta~ and the coefficient on j it holds.
        self.base = engine.X[:, rs.j_hat] @ rs.beta_tilde
        self.beta_j = rs.beta_tilde[int(np.flatnonzero(rs.j_hat == j)[0])]
        self.seg: dict[str, np.ndarray] = {}  # segment fields, rows < paths
        self.paths = 0  # resample paths computed so far
        self.visits: dict[float, np.ndarray] = {}  # theta -> segments there
        self.statistics: dict[tuple, float] = {}  # (resample, J) -> statistic
        self.counts = dict(evaluations=0, failures=0, statistics=0,
                           statistics_reused=0)

    def observed(self, theta: float) -> float:
        """The observed statistic (beta_obs - theta) / sigma."""
        return (self.beta_obs - theta) / self.sigma

    def conditioned(self, theta: float) -> np.ndarray:
        """Resampled statistics at theta that enter the quantile.

        Those of the resamples whose HDBIC set J on their path at theta
        (from ``bracketed``) holds column j, less those that failed. Only
        (resample, J) pairs not seen before go to ``statistics_batch``; a
        failed one is kept as NaN. Counts the evaluation (``evaluations``),
        its failed statistics (``failures``), and the pairs estimated
        (``statistics``) and reused (``statistics_reused``).
        """
        e, j = self.engine, self.j
        sel, resid_norms, _ = self.bracketed(theta)
        m = hdbic(resid_norms, e.n, e.p)
        holds = ((sel == j) & (np.arange(sel.shape[1]) < m[:, None])).any(axis=1)
        keys = [(b, tuple(sel[b, :m[b]].tolist()))
                for b in np.flatnonzero(holds).tolist()]
        fresh = [key for key in keys if key not in self.statistics]
        if fresh:
            members = np.array([b for b, _ in fresh])
            stats, _ = e.statistics_batch(self.synthetic(theta, members), j,
                                          theta, [J for _, J in fresh])
            self.statistics.update(zip(fresh, stats))
        values = np.array([self.statistics[key] for key in keys])
        self.counts["evaluations"] += 1
        self.counts["failures"] += int(np.count_nonzero(np.isnan(values)))
        self.counts["statistics"] += len(fresh)
        self.counts["statistics_reused"] += len(keys) - len(fresh)
        return values[np.isfinite(values)]

    def report(self, lower: float, upper: float, alpha: float,
               **diag) -> IntervalReport:
        """The bound's report: the counts, ``diag``, and ``paths`` (resample
        paths computed) and ``paths_reused`` (resample evaluations that
        reused one)."""
        reused = self.counts["evaluations"] * self.rs.w_b.shape[0] - self.paths
        return IntervalReport(j=self.j, method="hr", lower=lower, upper=upper,
                              alpha=alpha, diagnostics=dict(
                                  self.counts, **diag, paths=self.paths,
                                  paths_reused=reused))

    def synthetic(self, theta: float | np.ndarray,
                  members: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Synthetic responses of the resamples ``members`` at theta.

        ``theta`` is one value or one per member; each column is computed
        with the same operations either way.
        """
        shift = np.asarray(theta) - self.beta_j
        return (self.base[:, None] + self.rs.w_b[members].T
                + shift * self.engine.X[:, self.j][:, None])

    def _compute(self, members: np.ndarray, thetas: np.ndarray,
                 toward: int | np.ndarray = 0) -> np.ndarray:
        """Paths of resamples ``members`` at ``thetas``; their segment ids.

        ``toward`` is one direction for every member or one per member.
        With +1 (-1) a segment's ``hold`` is how far above (below) its
        anchor it provably holds; with 0 its interval is its anchor alone.
        The path of y - t x_j is that of -y + t x_j, so a member held below
        enters the batch as -y, whose path has y's picks, residual norms,
        ``rss``, ``d_d`` and ``exact`` and the negated ``c_d`` and signs,
        which are negated back. Members of both directions share one
        batch; a path's bits depend on the batch it is computed in (see
        ``oga_path_batch``), its picks and signs do not.
        """
        e = self.engine
        Y = self.synthetic(thetas, members)
        flip = np.broadcast_to(np.where(np.asarray(toward) < 0, -1.0, 1.0),
                               len(members))
        found: dict = {}
        sel, _, m_actual = oga_path_batch(e.X, Y * flip, e.kn, e.col_norms,
                                          e.gram, direction=self.j, along=found,
                                          bounds=bool(np.any(toward)))
        new = dict(theta=thetas, hold=found.get("hi", np.zeros(len(members))),
                   sel=sel, m=m_actual, rss=found["rss"],
                   c_d=found["c_d"] * flip[:, None], d_d=found["d_d"],
                   sign=found["sign"] * flip[:, None], exact=found["exact"],
                   yy=np.einsum("nb,nb->b", Y, Y), xy=e.X[:, self.j] @ Y)
        start, end = self.paths, self.paths + len(members)
        if end > len(self.seg.get("theta", ())):  # grow by doubling
            old, size = self.seg, max(end, 2 * start)
            self.seg = {key: np.empty((size,) + value.shape[1:], value.dtype)
                        for key, value in new.items()}
            for key, value in old.items():
                self.seg[key][:start] = value[:start]
        for key, value in new.items():
            self.seg[key][start:end] = value
        self.paths = end
        return np.arange(start, end)

    def _rss(self, theta: float | np.ndarray, segs: np.ndarray) -> np.ndarray:
        """Per-step residual sums of squares of segments ``segs`` at theta."""
        t = (theta - self.seg["theta"][segs])[:, None]
        return self.seg["rss"][segs] + 2.0 * t * self.seg["c_d"][segs] \
            + t * t * self.seg["d_d"][segs]

    def _holds(self, theta: float | np.ndarray, segs: np.ndarray) -> np.ndarray:
        """Whether no step of segments ``segs`` takes the rss rescue at theta.

        The loop recomputes an rss below RSS_RESCUE_TOL ||y(theta)||^2 in
        n-space; ||y(theta)||^2 comes from ||y||^2 and x_j'y at the anchor.
        """
        t = theta - self.seg["theta"][segs]
        yy = self.seg["yy"][segs] + 2.0 * t * self.seg["xy"][segs] \
            + t * t * self.engine.col_norms[self.j] ** 2
        return np.all(self._rss(theta, segs) >= RSS_RESCUE_TOL * yy[:, None],
                      axis=1)

    def visit(self, rounds: list[tuple[_Scan, int]]) -> None:
        """Visit the next point of each scan in ``rounds``, one batch for all.

        ``rounds`` pairs each scan with the last of its points it may still
        visit. When some resample's segments do not serve some scan's next
        point, each scan computes the path of every resample whose first
        point not yet served lies within ``_LOOKAHEAD`` points of its next,
        and not past its last, at that point: all in one ``_compute`` call.
        From its anchor on, a path serves the scan's later points that lie
        before the end of its hold, up to the first where it does not hold.
        A path is anchored at the first point its resample's earlier paths
        do not serve, so how the rounds batch paths changes which are
        computed past where a scan stops, not where the others are anchored.
        """
        if any((scan.nxt == scan.i).any() for scan, _ in rounds):
            due = [np.flatnonzero(scan.nxt <= min(scan.i + _LOOKAHEAD, last))
                   for scan, last in rounds]
            sizes = [len(members) for members in due]
            segs = self._compute(
                np.concatenate(due),
                np.concatenate([scan.thetas[scan.nxt[members]]
                                for (scan, _), members in zip(rounds, due)]),
                np.repeat([scan.toward for scan, _ in rounds], sizes))
            for (scan, _), members, ids in zip(rounds, due,
                                               np.split(segs, np.cumsum(sizes)[:-1])):
                if len(members):
                    self._serve(scan, members, ids)
        for scan, _ in rounds:
            self.visits[float(scan.thetas[scan.i])] = scan.segs_at[scan.i]
            scan.i += 1

    def _serve(self, scan: _Scan, members: np.ndarray, segs: np.ndarray) -> None:
        """Mark the points of ``scan`` that segments ``segs`` of resamples
        ``members`` serve, from each anchor on."""
        thetas = scan.thetas
        t = scan.toward * (thetas - self.seg["theta"][segs][:, None])
        ahead = t > 0.0
        b, g = np.nonzero(ahead & (t < self.seg["hold"][segs][:, None] - self.margin))
        serves = ~ahead
        serves[b, g] = self._holds(thetas[g], segs[b])
        serves = np.logical_and.accumulate(serves, axis=1) & (t >= 0.0)
        scan.segs_at[:, members] = np.where(serves.T, segs, scan.segs_at[:, members])
        scan.nxt[members] += np.count_nonzero(serves, axis=1)

    def bracketed(self, theta: float) -> tuple[np.ndarray, ...]:
        """``(sel, resid_norms, m_actual)`` at theta, in any order of thetas.

        A visited theta returns its own segments. Otherwise a resample
        whose paths at the nearest visited thetas below and above are the
        same reuses the one anchored nearer theta where it holds; the
        others are recomputed in one batch.
        """
        if theta not in self.visits:
            segs = np.full(self.rs.w_b.shape[0], -1)
            below = max((v for v in self.visits if v < theta), default=None)
            above = min((v for v in self.visits if v > theta), default=None)
            if below is not None and above is not None:
                s1, s2 = self.visits[below], self.visits[above]
                seg = self.seg
                same = (seg["exact"][s1] & seg["exact"][s2]
                        & (seg["sel"][s1] == seg["sel"][s2]).all(axis=1)
                        & (seg["sign"][s1] == seg["sign"][s2]).all(axis=1))
                nearer = np.where(abs(theta - seg["theta"][s1])
                                  <= abs(theta - seg["theta"][s2]), s1, s2)
                kept = np.flatnonzero(same)
                kept = kept[self._holds(theta, nearer[kept])]
                segs[kept] = nearer[kept]
            stale = np.flatnonzero(segs < 0)
            if stale.size:
                segs[stale] = self._compute(stale, np.full(stale.size, theta))
            self.visits[theta] = segs
        segs = self.visits[theta]
        rss = self._rss(theta, segs)
        return self.seg["sel"][segs], np.sqrt(rss), self.seg["m"][segs]


def hybrid_ci_one_sided(engine: StatisticEngine, fit: PipelineFit, j: int,
                        rs: ResampleSet, alpha: float) -> IntervalReport:
    """Lower confidence bound by bisecting the test-inversion boundary.

    ``fit`` is ``engine``'s fit of the observed response. Walks down from
    the point estimate until the observed statistic exceeds the
    (1-alpha)-quantile of the conditioned resampled ones, then bisects the
    bracketing interval to within sigma * BISECT_WIDTH. A theta at which
    no resample conditions is accepted (quantile infinity) and counts in
    ``empty_conditioning``. The test at theta is one ``_ThetaTest``, which
    reuses a resample's greedy path between two evaluated thetas where it
    is the same and its statistic per (resample, selected set).
    """
    test = _ThetaTest(engine, fit, j, rs)
    level = 1.0 - alpha
    diag = {"empty_conditioning": 0, "min_conditioned": np.inf}

    def u_upper(theta: float) -> float:
        cond = test.conditioned(theta)
        diag["min_conditioned"] = min(diag["min_conditioned"], len(cond))
        if len(cond) == 0:
            # No resample selected the column at this theta: there is no
            # conditional evidence against it, so it cannot be rejected.
            diag["empty_conditioning"] += 1
            return np.inf
        return _order_statistic(cond, level)

    lower, bisect_diag = invert_lower_bound(test.observed, u_upper,
                                            test.beta_obs, test.sigma)
    return test.report(lower, np.inf, alpha, **diag, **bisect_diag)


def hybrid_ci_two_sided(engine: StatisticEngine, fit: PipelineFit, j: int,
                        rs: ResampleSet, alpha: float) -> IntervalReport:
    """Two-sided interval as the hull of the grid acceptance region.

    ``fit`` is ``engine``'s fit of the observed response. A grid point is
    accepted when the magnitude of the observed statistic lies between
    the alpha and (1-alpha) quantiles of the conditioned resampled
    magnitudes; the reported bounds are the outermost accepted points,
    tightened by one midpoint refinement on each side;
    ``clipped_low``/``clipped_high`` flag an accepted grid end and
    ``empty_region`` a grid with no accepted point. ``fallbacks`` counts
    the evaluations that used normal quantiles.

    The grid is scanned upward from its low end and downward from its high
    end in lockstep, each scan stopping at its first accepted point (an
    end that finds none stops where it meets the other), so the points
    between the hull's ends are evaluated only for what they can still
    change: whether some grid point or midpoint fell back. They are scanned
    upward, up to the first fallback, only when no evaluation so far fell
    back and no end was accepted (``interior_scanned``). The bounds and
    flags are those of evaluating every grid point; the counts are over
    the points evaluated. The test at theta is one ``_ThetaTest``, whose
    ``visit`` serves the grid, with one greedy batch per round for both
    ends, and reuses greedy paths and statistics as in
    :func:`hybrid_ci_one_sided`.
    """
    test = _ThetaTest(engine, fit, j, rs)
    lo_fallback = float(ndtri(0.5 * (1.0 + alpha)))
    hi_fallback = float(ndtri(1.0 - 0.5 * alpha))
    diag = {"fallbacks": 0}

    def accepted(theta: float) -> tuple[bool, float]:
        cond = np.abs(test.conditioned(theta))
        if len(cond) < MIN_CONDITIONED:
            diag["fallbacks"] += 1
            u_lo, u_hi = lo_fallback, hi_fallback
        else:
            u_lo = _order_statistic(cond, alpha)
            u_hi = _order_statistic(cond, 1.0 - alpha)
        t_obs = abs(test.observed(theta))
        inside = u_lo < t_obs < u_hi
        violation = max(u_lo - t_obs, t_obs - u_hi)
        return inside, violation

    half = GRID_HALF_WIDTH * test.sigma
    grid = np.linspace(test.beta_obs - half, test.beta_obs + half, GRID_POINTS)
    results: dict[int, tuple[bool, float]] = {}  # grid index -> accepted()

    def inside(i: int) -> bool:
        results[i] = accepted(float(grid[i]))
        return results[i][0]

    top, B = len(grid) - 1, rs.w_b.shape[0]
    up, down = _Scan(grid, B), _Scan(grid[::-1], B)
    lo_idx = hi_idx = None
    # The points not yet visited are up.i to top - down.i. Each round visits
    # the next point of each end still scanning, one batch for both; the
    # last point left is the low end's. An end scans until it accepts.
    while (lo_idx is None or hi_idx is None) and up.i <= top - down.i:
        u, d = up.i, top - down.i
        going_up = lo_idx is None
        going_down = hi_idx is None and (d > u or not going_up)
        rounds = []
        if going_up:
            rounds.append((up, d - going_down))
        if going_down:
            rounds.append((down, top - u - going_up))
        test.visit(rounds)
        if going_up and inside(u):
            lo_idx = u
        if going_down and inside(d):
            hi_idx = d
    if lo_idx is None and hi_idx is None:  # every grid point was evaluated
        best = float(grid[min(results, key=lambda i: results[i][1])])
        return test.report(best, best, alpha, **diag, clipped_low=False,
                           clipped_high=False, interior_scanned=False,
                           empty_region=True)
    # An end that met the other's accepted point ends there.
    lo_idx, hi_idx = (hi_idx if lo_idx is None else lo_idx,
                      lo_idx if hi_idx is None else hi_idx)
    diag.update(clipped_low=lo_idx == 0, clipped_high=hi_idx == top)

    theta_l = float(grid[lo_idx])
    theta_u = float(grid[hi_idx])
    if lo_idx > 0 and accepted(mid := 0.5 * (grid[lo_idx - 1] + theta_l))[0]:
        theta_l = float(mid)
    if hi_idx < top and accepted(mid := 0.5 * (theta_u + grid[hi_idx + 1]))[0]:
        theta_u = float(mid)
    diag["interior_scanned"] = not (diag["fallbacks"] or lo_idx == 0 or hi_idx == top)
    if diag["interior_scanned"]:
        while up.i < hi_idx:
            test.visit([(up, hi_idx - 1)])
            accepted(float(grid[up.i - 1]))
            if diag["fallbacks"]:
                break
    return test.report(theta_l, theta_u, alpha, **diag, empty_region=False)

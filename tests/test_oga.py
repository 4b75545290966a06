import functools
import importlib

import numpy as np
import pytest

from _oracles import greedy_paths, naive_forward_stepwise
from martingale_ci.oga import (
    _greedy_paths,
    default_iterations,
    hdbic,
    oga,
    oga_hdbic,
    oga_path_batch,
    truncate_selection,
)


class TestOga:
    def test_orthogonal_single_signal(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((30, 8)))
        X = q
        Y = 3.0 * X[:, 4]
        sel = oga(X, Y, 1)
        assert sel.j_hat.tolist() == [4]
        assert np.isclose(sel.beta_oga[4], 3.0)
        assert sel.residual_norms[0] < 1e-12

    def test_matches_naive_forward_stepwise(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n = int(rng.integers(12, 30))
            p = int(rng.integers(5, 15))
            m = int(min(rng.integers(2, 8), n // 2, p))
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal(n)
            sel = oga(X, Y, m)
            order, beta = naive_forward_stepwise(X, Y, m)
            assert sel.j_hat.tolist() == order
            assert np.allclose(sel.beta_oga, beta, atol=1e-8)

    def test_full_rank_exact_interpolation(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((9, 9)) + 3 * np.eye(9)
        Y = rng.standard_normal(9)
        sel = oga(X, Y, 9)
        assert sel.m == 9
        assert sel.residual_norms[-1] < 1e-8 * np.linalg.norm(Y)

    def test_qr_invariants(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 20))
        Y = rng.standard_normal(40)
        sel = oga(X, Y, 10)
        assert np.max(np.abs(sel.Q.T @ sel.Q - np.eye(10))) < 1e-8
        assert np.allclose(np.tril(sel.R, -1), 0.0)
        assert np.max(np.abs(sel.Q @ sel.R - X[:, sel.j_hat])) < 1e-8
        outside = np.setdiff1d(np.arange(20), sel.j_hat)
        assert np.all(sel.beta_oga[outside] == 0.0)
        assert np.all(np.diff(sel.residual_norms) <= 1e-10)

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((35, 12))
        Y = rng.standard_normal(35)
        sel = oga(X, Y, 8)
        lhs = np.linalg.norm(Y) ** 2
        rhs = np.sum(sel.beta_q**2) + sel.residual_norms[-1] ** 2
        assert abs(lhs - rhs) < 1e-8 * lhs

    def test_scaling_unselected_column_keeps_selection(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 10))
        Y = rng.standard_normal(30)
        sel = oga(X, Y, 4)
        unsel = [j for j in range(10) if j not in sel.j_hat][0]
        X2 = X.copy()
        X2[:, unsel] *= 7.5
        sel2 = oga(X2, Y, 4)
        assert sel.j_hat.tolist() == sel2.j_hat.tolist()

    def test_zero_columns_never_selected(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 6))
        X[:, 2] = 0.0
        Y = rng.standard_normal(20)
        sel = oga(X, Y, 5)
        assert 2 not in sel.j_hat

    def test_all_zero_candidates_early_stop(self):
        X = np.zeros((10, 4))
        X[:, 1] = np.arange(10, dtype=float)
        Y = 2.0 * X[:, 1]
        sel = oga(X, Y, 3)
        assert sel.m == 1
        assert sel.early_stopped
        assert sel.j_hat.tolist() == [1]

    def test_truncate_selection(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 12))
        Y = rng.standard_normal(30)
        sel = oga(X, Y, 6)
        cut = truncate_selection(sel, 3, 12)
        assert cut.j_hat.tolist() == sel.j_hat[:3].tolist()
        direct = oga(X, Y, 3)
        assert np.allclose(cut.beta_oga, direct.beta_oga, atol=1e-10)


class TestDefaultIterations:
    def test_formula_values(self):
        # 2 * floor(sqrt(n / log p)) in natural logs.
        assert default_iterations(400, 500) == 16
        assert default_iterations(200, 250) == 12

    def test_caps(self):
        assert default_iterations(10, 300) <= 5
        assert default_iterations(1000, 3) <= 3
        assert default_iterations(16, 1) == 1


class TestHdbic:
    def test_constant_residuals_pick_one(self):
        rn = np.full(6, 2.0)
        assert hdbic(rn, 100, 50) == 1

    def test_zero_residual_wins(self):
        rn = np.array([3.0, 1.0, 0.0, 0.0])
        assert hdbic(rn, 100, 50) == 3

    def test_tradeoff(self):
        # A big SS drop at step 2 and nothing after picks exactly 2.
        rn = np.array([10.0, 1.0, 0.999, 0.998])
        assert hdbic(rn, 60, 40) == 2

    def test_oga_hdbic_pipeline(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((100, 30))
        Y = X[:, 3] * 2.0 + X[:, 11] * 1.5 + 0.3 * rng.standard_normal(100)
        sel = oga_hdbic(X, Y)
        assert set(sel.j_hat[:2].tolist()) == {3, 11}
        assert sel.m <= default_iterations(100, 30)


class TestBatchPath:
    def test_matches_single_path(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 15))
        Yb = rng.standard_normal((40, 6))
        kn = 7
        sel, resid, m_act = oga_path_batch(X, Yb, kn)
        for b in range(6):
            single = oga(X, Yb[:, b], kn)
            assert m_act[b] == single.m
            assert sel[b, : single.m].tolist() == single.j_hat.tolist()
            assert np.allclose(resid[b, : single.m], single.residual_norms,
                               atol=1e-9)

    def test_handles_exact_fit_columns(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((20, 5))
        Yb = np.column_stack([X[:, 0] * 2.0, rng.standard_normal(20)])
        sel, resid, m_act = oga_path_batch(X, Yb, 4)
        assert sel[0, 0] == 0
        single = oga(X, Yb[:, 0], 4)
        assert m_act[0] == single.m


def _basis(n, k, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))[0]


def _residual_norm(A, y):
    # Householder projection: accurate to rounding whatever A's condition.
    Q = np.linalg.qr(A)[0]
    r = y - Q @ (Q.T @ y)
    return np.linalg.norm(r - Q @ (Q.T @ r))


def _check_batch(X, Yb, kn):
    """Batch paths against B=1 ``oga`` and the refitting oracle.

    Selections must agree exactly, and residual norms with the distance of
    the response to the span of the oracle's columns after every step.
    """
    sel, resid, m_act = oga_path_batch(X, Yb, kn)
    for b in range(Yb.shape[1]):
        y = Yb[:, b]
        single = oga(X, y, kn)
        order, _ = naive_forward_stepwise(X, y, m_act[b])
        assert m_act[b] == single.m
        assert sel[b, :m_act[b]].tolist() == single.j_hat.tolist() == order
        refit = [_residual_norm(X[:, order[:k]], y) for k in range(1, m_act[b] + 1)]
        for got in (resid[b, :m_act[b]], single.residual_norms):
            assert np.allclose(got, refit, rtol=1e-9,
                               atol=1e-12 * np.linalg.norm(y))
    return sel, resid, m_act


class TestGramSpaceRescues:
    """Cases where the Gram-space updates cancel and n-space takes over."""

    def test_dependent_column_stops_the_path(self):
        # Column 4 is column 1 plus 1e-12 along a direction the responses
        # load on. Column 4 wins the first step; then column 1 is the only
        # candidate with any correlation left, at a distance from the span
        # below DEPENDENT_TOL, so the path stops where the refitting oracle
        # (which has no such tolerance) would take it.
        E = _basis(30, 8, 11)
        X = E[:, :6].copy()
        X[:, 4] = X[:, 1] + 1e-12 * E[:, 6]
        Yb = np.column_stack([X[:, 1] + 10.0 * E[:, 6], X[:, 1] + 5.0 * E[:, 6]])
        sel, _, m_act = oga_path_batch(X, Yb, 4)
        for b in range(2):
            single = oga(X, Yb[:, b], 4)
            order, _ = naive_forward_stepwise(X, Yb[:, b], 2)
            assert m_act[b] == single.m == 1 and single.early_stopped
            assert sel[b, :1].tolist() == single.j_hat.tolist() == order[:1] == [4]
            assert order[1] == 1

    def test_near_dependent_column_measured_in_n_space(self):
        # The same pair 1e-4 apart: r2^2 = G_jj - |r1|^2 cancels to 1e-8
        # of G_jj, the n-space distance passes DEPENDENT_TOL, and the path
        # goes on as the oracle's does, with its residual norms.
        E = _basis(30, 8, 11)
        X = E[:, :6] * np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        X[:, 4] = X[:, 1] + 1e-4 * E[:, 6]
        rest = X[:, [0, 2, 3, 5]]
        Yb = np.column_stack([X[:, 1] + 10.0 * E[:, 6] + rest @ [1e-7, 2e-7, 3e-7, 4e-7],
                              X[:, 1] + 5.0 * E[:, 6] + rest @ [8e-7, 6e-7, 4e-7, 2e-7]])
        Yb += 0.3 * E[:, [7]]
        sel, _, _ = _check_batch(X, Yb, 4)
        assert sel[:, :2].tolist() == [[4, 1], [4, 1]]

    def test_identical_columns_tie_to_lowest_index(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((40, 10))
        X[:, 7] = X[:, 3]
        Yb = np.column_stack([2.0 * X[:, 3] + 0.1 * rng.standard_normal(40),
                              3.0 * X[:, 0] + X[:, 3] + 0.1 * rng.standard_normal(40)])
        sel, _, m_act = _check_batch(X, Yb, 5)
        assert sel[0, 0] == 3 and sel[1, :2].tolist() == [0, 3]
        assert 7 not in sel[:, :2]

    def test_zero_column(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((30, 9))
        X[:, 2] = 0.0
        Yb = rng.standard_normal((30, 5))
        sel, _, m_act = _check_batch(X, Yb, 8)
        assert 2 not in sel

    def test_exact_fits_zero_residual_and_hdbic_stops_there(self):
        # Responses in the span of two and three columns, on a +-1 design
        # whose columns are orthogonal, so the fits are exact in floating
        # point, and on a random design, where they are exact to rounding.
        H = np.array([[1.0]])
        while H.shape[0] < 16:
            H = np.block([[H, H], [H, -H]])
        rng = np.random.default_rng(14)
        for X, exact in ((H[:, 1:13], True), (rng.standard_normal((16, 12)), False)):
            Yb = np.column_stack([X[:, [2, 5]] @ [3.0, -2.0],
                                  X[:, [1, 4, 9]] @ [1.0, 2.0, 4.0],
                                  X[:, [2, 5]] @ [1.0, 1.0]])
            sel, resid, m_act = _check_batch(X, Yb, 6)
            for b, size in enumerate((2, 3, 2)):
                # Greedy steps may take a detour on the random design.
                m = m_act[b]
                assert m == size if exact else size <= m < 6
                last = resid[b, m - 1]
                assert last == 0.0 if exact else last < 1e-12 * np.linalg.norm(Yb[:, b])
                assert np.all(resid[b, :m - 1] > 1e-3)
                assert hdbic(resid[b, :m], 16, 12) == m


def _paths_along(X, Yb, kn, d):
    found = {}
    sel, resid, m_act = oga_path_batch(X, Yb, kn, direction=d, along=found,
                                       bounds=True)
    return sel, resid, m_act, found


class TestDirectionInterval:
    """How far along t >= 0 the path of y + t x_d stays the same."""

    @pytest.fixture(params=["IID", "LAI", "GARCH"])
    def design(self, request):
        from martingale_ci.dgp import DgpConfig, generate, make_beta

        ds = generate(DgpConfig(setting=request.param, n=90, p=60, seed=5),
                      make_beta(60))
        rng = np.random.default_rng(6)
        Yb = ds.Y[:, None] + 0.5 * rng.standard_normal((90, 12))
        return ds.X, Yb, default_iterations(90, 60), int(oga(ds.X, ds.Y, 1).j_hat[0])

    def test_same_work_without_direction(self, design):
        X, Yb, kn, d = design
        sel, resid, m_act, _ = _paths_along(X, Yb, kn, d)
        plain = oga_path_batch(X, Yb, kn)
        assert np.array_equal(sel, plain[0]) and np.array_equal(m_act, plain[2])
        assert np.array_equal(resid, plain[1], equal_nan=True)

    def test_paths_of_minus_y_mirror_those_of_y(self, design):
        # A downward grid scan reads y's paths from those of -y: the same
        # numbers bit for bit, with C_d and the signs negated.
        X, Yb, kn, d = design
        sel, resid, m_act, found = _paths_along(X, Yb, kn, d)
        msel, mresid, mm_act, mfound = _paths_along(X, -Yb, kn, d)
        assert np.array_equal(msel, sel) and np.array_equal(mm_act, m_act)
        assert np.array_equal(mresid, resid, equal_nan=True)
        for key in ("rss", "d_d", "exact"):
            assert np.array_equal(mfound[key], found[key], equal_nan=True)
        for key in ("c_d", "sign"):
            assert np.array_equal(mfound[key], -found[key], equal_nan=True)

    def test_path_and_residual_norms_hold_inside(self, design):
        # The path of y - t x_d is that of -y + t x_d, so the ends found
        # for -Yb check t below 0 as well.
        X, Yb, kn, d = design
        for Y in (Yb, -Yb):
            sel, _, m_act, found = _paths_along(X, Y, kn, d)
            hi = found["hi"]
            assert np.all(hi >= 0.0)
            assert np.count_nonzero(hi > 0.0) >= 9
            margin = 1e-9
            for b in np.flatnonzero(hi > 0.0):
                end = np.clip(hi[b], -10.0, 10.0)
                for t in (0.5 * end, 0.999 * end - margin):
                    y = Y[:, [b]] + t * X[:, [d]]
                    s2, r2, m2 = oga_path_batch(X, y, kn)
                    assert m2[0] == m_act[b] == kn
                    assert s2[0].tolist() == sel[b].tolist()
                    rss = found["rss"][b] + 2 * t * found["c_d"][b] \
                        + t * t * found["d_d"][b]
                    assert np.allclose(np.sqrt(rss), r2[0], rtol=1e-10, atol=0.0)

    def test_path_changes_just_past_the_ends(self, design):
        # Ends beyond 1e6 are rounding: once x_d is selected the path no
        # longer moves with t, and the stopping rule binds only near 1e13.
        # Every other end is a candidate overtaking a pick.
        # The ends found for -Yb are the lower ends of Yb's paths.
        X, Yb, kn, d = design
        checked = 0
        for Y in (Yb, -Yb):
            sel, _, _, found = _paths_along(X, Y, kn, d)
            for b in range(Y.shape[1]):
                end = found["hi"][b]
                if end == 0.0 or not abs(end) < 1e6:
                    continue
                t = end + 1e-6 * max(1.0, end)
                s2, _, _ = oga_path_batch(X, Y[:, [b]] + t * X[:, [d]], kn)
                assert s2[0].tolist() != sel[b].tolist()
                checked += 1
        assert checked >= 9

    def test_stopped_and_rescued_paths_get_empty_interval(self):
        # Orthogonal +-1 design: a response in the span of two columns
        # stops after two steps; with 1e-5 noise it goes on but its
        # residual takes the n-space rescue; a plain noisy response keeps
        # a nonempty interval.
        H = np.array([[1.0]])
        while H.shape[0] < 16:
            H = np.block([[H, H], [H, -H]])
        X = H[:, 1:13]
        noise = np.random.default_rng(15).standard_normal((16, 2))
        exact = X[:, [2, 5]] @ [3.0, -2.0]
        Yb = np.column_stack([exact, exact + 1e-5 * noise[:, 0], noise[:, 1]])
        _, _, m_act, found = _paths_along(X, Yb, 6, 2)
        assert m_act.tolist() == [2, 6, 6]
        assert found["hi"][:2].tolist() == [0.0, 0.0]
        assert 0.0 < found["hi"][2]
        assert np.isnan(found["rss"][0, 2:]).all()

    def test_distance_rescue_gets_empty_interval(self):
        # The near-dependent pair of TestGramSpaceRescues: the second step
        # measures r2 in n-space.
        E = _basis(30, 8, 11)
        X = E[:, :6] * np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        X[:, 4] = X[:, 1] + 1e-4 * E[:, 6]
        Yb = np.column_stack([X[:, 1] + 10.0 * E[:, 6] + 0.3 * E[:, 7],
                              X[:, [0, 2, 3, 5]] @ [1.0, 0.7, 0.5, 0.3] + 0.3 * E[:, 7]])
        sel, _, m_act, found = _paths_along(X, Yb, 4, 1)
        assert sel[0, :2].tolist() == [4, 1] and 1 not in sel[1, :2]
        assert m_act.tolist() == [4, 4]
        assert found["hi"][0] == 0.0
        assert 0.0 < found["hi"][1]


class TestPathBetweenEnds:
    """A plain path that is the same at t1 < t2 along x_d holds between."""

    def test_same_ends_hold_between(self):
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(6):
            n, p, B = 60, 40, 16
            F = rng.standard_normal((n, 2))
            X = F @ rng.standard_normal((2, p)) + rng.standard_normal((n, p))
            beta = np.zeros(p)
            beta[:4] = [1.0, -0.8, 0.6, 0.4]
            Yb = (X @ beta)[:, None] + rng.standard_normal((n, B))
            kn, d = default_iterations(n, p), int(trial % 4)
            t1, t2 = -0.05, 0.05
            ends = [_plain_along(X, Yb + t * X[:, [d]], kn, d) for t in (t1, t2)]
            (sel1, _, _, f1), (sel2, _, _, f2) = ends
            same = (f1["exact"] & f2["exact"] & (sel1 == sel2).all(axis=1)
                    & (f1["sign"] == f2["sign"]).all(axis=1))
            for b in np.flatnonzero(same):
                for t in rng.uniform(t1, t2, size=3):
                    s_t, r_t, m_t = oga_path_batch(X, Yb[:, [b]] + t * X[:, [d]], kn)
                    assert m_t[0] == kn and s_t[0].tolist() == sel1[b].tolist()
                    u = t - t1
                    rss = f1["rss"][b] + 2 * u * f1["c_d"][b] + u * u * f1["d_d"][b]
                    assert np.allclose(np.sqrt(rss), r_t[0], rtol=1e-10, atol=0.0)
                    checked += 1
        assert checked >= 60

    def test_sign_change_is_not_a_fixed_path(self):
        # Orthogonal +-1 design, coefficient 3 + t on the direction column:
        # the picks agree at t = -6 and t = 0 but the first pick's sign
        # does not, and at t = -3 the column is not picked first.
        H = np.array([[1.0]])
        while H.shape[0] < 16:
            H = np.block([[H, H], [H, -H]])
        X = H[:, 1:13]
        y = X[:, :4] @ [3.0, 2.0, 1.0, 0.5] \
            + 0.1 * np.random.default_rng(22).standard_normal(16)
        ends = [_plain_along(X, (y + t * X[:, 0])[:, None], 4, 0) for t in (-6.0, 0.0)]
        (sel1, _, _, f1), (sel2, _, _, f2) = ends
        assert f1["exact"][0] and f2["exact"][0]
        assert sel1[0].tolist() == sel2[0].tolist() == [0, 1, 2, 3]
        assert (f1["sign"][0] != f2["sign"][0]).tolist() == [True, False, False, False]
        mid, _, _ = oga_path_batch(X, (y - 3.0 * X[:, 0])[:, None], 4)
        assert mid[0, 0] != 0

    @pytest.mark.parametrize("setting", ["IID", "LAI", "GARCH"])
    def test_steps_agree_with_and_without_bounds(self, setting):
        from martingale_ci.dgp import DgpConfig, generate, make_beta

        ds = generate(DgpConfig(setting=setting, n=90, p=60, seed=8), make_beta(60))
        Yb = ds.Y[:, None] + 0.5 * np.random.default_rng(9).standard_normal((90, 12))
        kn, d = default_iterations(90, 60), int(oga(ds.X, ds.Y, 1).j_hat[0])
        plain, bounded = _plain_along(ds.X, Yb, kn, d), _paths_along(ds.X, Yb, kn, d)
        for got, want in zip(plain[:3], bounded[:3]):
            assert np.array_equal(got, want, equal_nan=True)
        for key in ("rss", "c_d", "d_d"):
            assert np.allclose(plain[3][key], bounded[3][key], rtol=1e-12,
                               atol=0.0, equal_nan=True)
        for key in ("sign", "exact"):
            assert np.array_equal(plain[3][key], bounded[3][key])
        assert "hi" not in plain[3]


def _plain_along(X, Yb, kn, d):
    found = {}
    sel, resid, m_act = oga_path_batch(X, Yb, kn, direction=d, along=found)
    return sel, resid, m_act, found


class TestGramRows:
    """The Gram rows of picked columns: gathered from the engine's X'X, or
    computed per call without it."""

    @staticmethod
    def _batches(setting):
        from martingale_ci.dgp import DgpConfig, generate, make_beta

        ds = generate(DgpConfig(setting=setting, n=90, p=60, seed=10), make_beta(60))
        rng = np.random.default_rng(11)
        batches = [ds.Y[:, None] + s * rng.standard_normal((90, b))
                   for s, b in ((0.3, 12), (1.0, 5), (0.5, 1), (2.0, 20))]
        return ds.X, batches, default_iterations(90, 60), int(oga(ds.X, ds.Y, 1).j_hat[0])

    @staticmethod
    def _engine(X):
        from martingale_ci.hybrid import StatisticEngine
        from martingale_ci.inference import StatConfig

        return StatisticEngine(X, StatConfig(kmax=5, q=1, side="one"))

    @pytest.mark.parametrize("setting", ["IID", "LAI", "GARCH"])
    def test_shared_buffer_matches_fresh_calls(self, setting):
        # A row x_j'X that BLAS computes together with other rows may differ
        # in its last bits from the same row computed alone, so residual
        # norms and the along-x_d steps agree to rounding; picks, signs and
        # path lengths agree exactly.
        X, batches, kn, d = self._batches(setting)
        gram = self._engine(X).gram
        for Yb in batches:
            shared, fresh = {}, {}
            got = oga_path_batch(X, Yb, kn, None, gram, direction=d, along=shared)
            want = oga_path_batch(X, Yb, kn, direction=d, along=fresh)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
            assert np.allclose(got[1], want[1], rtol=1e-12, atol=0.0, equal_nan=True)
            assert shared.keys() == fresh.keys()
            for key in ("sign", "exact"):
                assert np.array_equal(shared[key], fresh[key]), key
            y, x_d = np.linalg.norm(Yb, axis=0).max(), np.linalg.norm(X[:, d])
            for key, scale in (("rss", y * y), ("c_d", y * x_d), ("d_d", x_d * x_d)):
                assert np.allclose(shared[key], fresh[key], rtol=1e-12,
                                   atol=1e-12 * scale, equal_nan=True), key

    @pytest.mark.parametrize("setting", ["IID", "LAI", "GARCH"])
    def test_paths_do_not_depend_on_call_order(self, setting):
        # Batches A then B on one engine, B then A on a fresh one: every
        # batch gets the same bits either way.
        X, batches, kn, d = self._batches(setting)
        for a, b in ((0, 3), (1, 2)):
            runs = []
            for order in ((a, b), (b, a)):
                gram, out = self._engine(X).gram, {}
                for i in order:
                    along = {}
                    out[i] = (oga_path_batch(X, batches[i], kn, None, gram,
                                             direction=d, along=along), along)
                runs.append(out)
            for i in (a, b):
                (got, got_along), (want, want_along) = runs[0][i], runs[1][i]
                for x, y in zip(got, want):
                    assert np.array_equal(x, y, equal_nan=True)
                assert got_along.keys() == want_along.keys()
                for key in want_along:
                    assert np.array_equal(got_along[key], want_along[key],
                                          equal_nan=True), key


def _pm1_design():
    """A 16x12 design of orthogonal +-1 columns."""
    H = np.array([[1.0]])
    while H.shape[0] < 16:
        H = np.block([[H, H], [H, -H]])
    return H[:, 1:13]


@functools.cache
def _oracle_cases():
    """name -> (X, Yb, kn, d): paths that stop early, meet a zero column and
    take both n-space steps, along a direction column d."""
    from martingale_ci.dgp import DgpConfig, generate, make_beta

    rng = np.random.default_rng(40)
    cases = {}
    for setting in ("IID", "LAI", "GARCH"):
        ds = generate(DgpConfig(setting=setting, n=90, p=60, seed=5), make_beta(60))
        Yb = ds.Y[:, None] + 0.5 * rng.standard_normal((90, 12))
        cases[setting] = (ds.X, Yb, default_iterations(90, 60),
                          int(oga(ds.X, ds.Y, 1).j_hat[0]))
    # A zero column; a zero response stops before its first step, one in the
    # span of two columns once it is fitted.
    X = rng.standard_normal((30, 9))
    X[:, 2] = 0.0
    Yb = np.column_stack([rng.standard_normal((30, 3)), np.zeros(30),
                          X[:, [0, 5]] @ [1.0, -2.0]])
    cases["zero column"] = (X, Yb, 8, 0)
    # TestGramSpaceRescues: a dependent column stops the path, a
    # near-dependent one is measured in n-space.
    E = _basis(30, 8, 11)
    X = E[:, :6] * np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    X[:, 4] = X[:, 1] + 1e-4 * E[:, 6]
    Yb = np.column_stack([X[:, 1] + 10.0 * E[:, 6] + 0.3 * E[:, 7],
                          X[:, [0, 2, 3, 5]] @ [1.0, 0.7, 0.5, 0.3] + 0.3 * E[:, 7]])
    cases["distance rescue"] = (X, Yb, 4, 1)
    X = E[:, :6].copy()
    X[:, 4] = X[:, 1] + 1e-12 * E[:, 6]
    cases["dependent column"] = (X, np.column_stack(
        [X[:, 1] + 10.0 * E[:, 6], X[:, 1] + 5.0 * E[:, 6]]), 4, 1)
    # The +-1 designs of TestBracketReuse and TestGridSweep along x_0: a
    # first pick that changes sign, and residuals that cancel (the rss
    # rescue) where theta puts the response in the span of its picks.
    X = _pm1_design()
    noise = 0.1 * np.random.default_rng(23).standard_normal(16)
    sign = X[:, 1:4] @ [2.0, 1.0, 0.5] + noise
    cancel = X[:, 1:5] @ [2.0, 1.5, 1.0, 0.5] - X[:, 0]
    c = rng.uniform(0.5, 2.0, (6, 4)) * rng.choice([-1.0, 1.0], (6, 4))
    W = c @ X[:, 1:5].T - np.array([1.0, 1.0, 1.0, 0.5, 0.5, -0.5])[:, None] * X[:, 0]
    Yb = np.column_stack([sign + t * X[:, 0] for t in (-3.0, 0.0, 3.0)]
                         + [cancel + t * X[:, 0] for t in (0.75, 1.0, 1.25)]
                         + [W.T + X[:, [0]]])
    cases["rss rescue"] = (X, Yb, 4, 0)
    return cases


class TestStepOracle:
    """``_greedy_paths`` against the step-by-step reference in
    ``_oracles.greedy_paths``: every output and along-entry bit for bit."""

    @pytest.mark.parametrize("mode", ["plain", "along", "bounds"])
    @pytest.mark.parametrize("case", ["IID", "LAI", "GARCH", "zero column",
                                      "distance rescue", "dependent column",
                                      "rss rescue"])
    def test_matches_reference(self, case, mode):
        X, Yb, kn, d = _oracle_cases()[case]
        direction = None if mode == "plain" else d
        # The whole batch and each response alone (B = 1), with the Gram
        # rows gathered from X'X and computed per step.
        for cols in [slice(None)] + [[b] for b in range(Yb.shape[1])]:
            for gram in (X.T @ X, None):
                got, want = ({}, {}) if direction is not None else (None, None)
                args = (X, Yb[:, cols], kn, None, gram, direction)
                out = _greedy_paths(*args, got, mode == "bounds")
                ref = greedy_paths(*args, want, mode == "bounds")
                for x, y in zip(out, ref):
                    assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
                if direction is not None:
                    assert got.keys() == want.keys()
                    for key in want:
                        assert np.array_equal(got[key], want[key], equal_nan=True), key

    def test_corpus_takes_every_rare_step(self, monkeypatch):
        oga_module = importlib.import_module("martingale_ci.oga")
        steps = {"distance": 0, "rss": 0}

        def counted(name, f):
            def call(*args, **kwargs):
                steps[name] += 1
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "qr", counted("distance", np.linalg.qr))
        monkeypatch.setattr(oga_module, "solve_triangular",
                            counted("rss", oga_module.solve_triangular))
        stopped = zero = 0
        for X, Yb, kn, d in _oracle_cases().values():
            _, _, m_actual, *_ = _greedy_paths(X, Yb, kn)
            stopped += int(np.count_nonzero(m_actual < kn))
            zero += int(np.any(np.linalg.norm(X, axis=0) == 0.0))
        assert stopped >= 3 and zero == 1
        assert steps["distance"] >= 1 and steps["rss"] >= 3


class TestBatchComposition:
    """A path's bits depend on which responses share its batch: C = Y'X is
    one GEMM, whose rounding changes with the batch width. Its picks,
    signs and flags do not, and its residual norms move only by rounding
    (here by up to 1.1e-13 relative, at width 1, where y'X is a
    matrix-vector product)."""

    def test_split_and_merged_batches_agree(self):
        from martingale_ci.dgp import DgpConfig, generate, make_beta

        ds = generate(DgpConfig(setting="GARCH", n=200, p=250, seed=300),
                      make_beta(250))
        X, kn = ds.X, default_iterations(200, 250)
        d = int(oga(X, ds.Y, 1).j_hat[0])
        Yb = ds.Y[:, None] + 0.5 * np.random.default_rng(41).standard_normal((200, 60))
        gram = X.T @ X

        def paths(Y):
            found = {}
            sel, resid, m_actual = oga_path_batch(X, Y, kn, None, gram, direction=d,
                                                  along=found, bounds=True)
            return sel, resid, m_actual, found

        sel, resid, m_actual, found = paths(Yb)
        for width in (1, 7, 25, 50):
            parts = [paths(Yb[:, start:start + width]) for start in range(0, 60, width)]
            assert np.array_equal(np.concatenate([q[0] for q in parts]), sel)
            assert np.array_equal(np.concatenate([q[2] for q in parts]), m_actual)
            for key in ("sign", "exact"):
                assert np.array_equal(np.concatenate([q[3][key] for q in parts]),
                                      found[key]), key
            assert np.allclose(np.concatenate([q[1] for q in parts]), resid,
                               rtol=1e-12, atol=0.0, equal_nan=True)


class TestSelectionScale:
    def test_selected_size_large_factor_design(self):
        # Monte-Carlo check at the main experiment scale: the chosen m
        # reliably covers the three strongest signals plus the factor
        # proxies (m >= 4), and the 0.4-signal is essentially always kept.
        from martingale_ci.dgp import DgpConfig, generate, make_beta

        beta = make_beta(500)
        ms, kept_04, kept_02 = [], 0, 0
        for seed in range(30):
            ds = generate(DgpConfig(setting="LAI", n=400, p=500, seed=seed),
                          beta)
            sel = oga_hdbic(ds.X, ds.Y)
            ms.append(sel.m)
            kept_04 += int(2 in sel.j_hat)
            kept_02 += sum(int(j in sel.j_hat) for j in (3, 4, 5))
        assert sum(m >= 4 for m in ms) >= 24  # >= 80% of seeds
        assert kept_04 >= 29
        # 0.2-signals selected at roughly the 40% per-variable rate.
        assert 0.2 <= kept_02 / 90 <= 0.7

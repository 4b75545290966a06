import numpy as np
import pytest

from _oracles import naive_forward_stepwise
from martingale_ci.oga import (
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

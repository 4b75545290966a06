import numpy as np
import pytest
from scipy.stats import norm

from martingale_ci.inference import truncnorm_sf
from martingale_ci.oga import oga
from martingale_ci.ps import (
    SelectionPolytope,
    ps_interval,
    truncation_bounds,
)


def random_instance(rng, n=25, p=8, m=3, signal=True):
    X = rng.standard_normal((n, p))
    if signal:
        beta = np.zeros(p)
        beta[rng.choice(p, size=2, replace=False)] = rng.normal(0, 1.5, size=2)
        Y = X @ beta + rng.standard_normal(n)
    else:
        Y = rng.standard_normal(n)
    return X, Y


class TestSelectionPolytope:
    def test_observed_response_satisfies_constraints(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            X, Y = random_instance(rng)
            sel = oga(X, Y, 3)
            poly = SelectionPolytope.from_selection(X, sel)
            vals = poly.apply(Y)
            assert np.all(vals <= 1e-9), vals.max()

    def test_row_count(self):
        rng = np.random.default_rng(1)
        X, Y = random_instance(rng, n=20, p=6, m=3)
        sel = oga(X, Y, 3)
        poly = SelectionPolytope.from_selection(X, sel)
        # Step k has p - k losers, two rows each.
        expect = 2 * sum(6 - k for k in range(1, sel.m + 1))
        assert poly.n_rows == expect
        assert poly.apply(Y).shape == (expect,)

    def test_in_polytope_perturbations_reproduce_selection(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(20):
            X, Y = random_instance(rng)
            sel = oga(X, Y, 3)
            poly = SelectionPolytope.from_selection(X, sel)
            signs = np.sign(sel.beta_q)
            perturbations = Y[:, None] + 0.3 * rng.standard_normal((len(Y), 200))
            inside = np.all(poly.apply(perturbations) <= 0.0, axis=0)
            for col in np.flatnonzero(inside)[:30]:
                y2 = perturbations[:, col]
                sel2 = oga(X, y2, 3)
                assert sel2.j_hat.tolist() == sel.j_hat.tolist()
                assert np.array_equal(np.sign(sel2.beta_q), signs)
                checked += 1
        assert checked >= 100

    def test_truncation_bounds_bracket_observation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X, Y = random_instance(rng)
            sel = oga(X, Y, 3)
            poly = SelectionPolytope.from_selection(X, sel)
            X_J = X[:, sel.j_hat]
            eta = X_J @ np.linalg.solve(X_J.T @ X_J, np.eye(3))[:, 0]
            v_lo, v_up = truncation_bounds(poly, eta, Y)
            obs = float(eta @ Y)
            assert v_lo <= obs <= v_up

    def test_empty_polytope_when_no_losers(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((15, 1))
        Y = 0.8 * X[:, 0] + 0.2 * rng.standard_normal(15)
        sel = oga(X, Y, 1)
        poly = SelectionPolytope.from_selection(X, sel)
        assert poly.n_rows == 0
        v_lo, v_up = truncation_bounds(poly, X[:, 0], Y)
        assert v_lo == -np.inf and v_up == np.inf


class TestPsInterval:
    def test_reduces_to_normal_without_competitors(self):
        # Single column, single step: no selection constraints, so the
        # bound is the known-sigma normal lower bound.
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 1))
        Y = 1.1 * X[:, 0] + rng.standard_normal(40)
        sel = oga(X, Y, 1)
        alpha, sigma = 0.2, 1.0
        rep = ps_interval(X, Y, sel, 0, alpha, sigma)
        X_J = X[:, :1]
        v = X_J @ np.linalg.inv(X_J.T @ X_J)[:, 0]
        beta_hat = float(v @ Y)
        expect = beta_hat - norm.ppf(1 - alpha) * sigma * np.linalg.norm(v)
        assert abs(rep.lower - expect) < 1e-4
        assert rep.upper == np.inf

    def test_delta_equation_solved_tightly(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, Y = random_instance(rng)
            sel = oga(X, Y, 3)
            alpha = 0.2
            rep = ps_interval(X, Y, sel, int(sel.j_hat[0]), alpha, 1.0)
            d = rep.diagnostics
            achieved = truncnorm_sf(d["observed"], rep.lower, d["scale"],
                                    d["v_lo"], d["v_up"])
            assert abs(achieved - alpha) < 1e-6

    def test_unselected_column_rejected(self):
        rng = np.random.default_rng(7)
        X, Y = random_instance(rng)
        sel = oga(X, Y, 3)
        missing = int(np.setdiff1d(np.arange(8), sel.j_hat)[0])
        with pytest.raises(ValueError):
            ps_interval(X, Y, sel, missing, 0.2, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        rng = np.random.default_rng(7)
        X, Y = random_instance(rng)
        sel = oga(X, Y, 3)
        with pytest.raises(ValueError, match="sigma must be positive"):
            ps_interval(X, Y, sel, int(sel.j_hat[0]), 0.2, sigma)

    def test_truncation_tightens_bound(self):
        # With competitors the truncated-normal bound differs from the
        # naive normal bound for at least some instances.
        rng = np.random.default_rng(8)
        diffs = []
        for _ in range(20):
            X, Y = random_instance(rng, signal=False)
            sel = oga(X, Y, 3)
            j = int(sel.j_hat[0])
            rep = ps_interval(X, Y, sel, j, 0.2, 1.0)
            X_J = X[:, sel.j_hat]
            v = X_J @ np.linalg.inv(X_J.T @ X_J)[:, 0]
            naive = float(v @ Y) - norm.ppf(0.8) * np.linalg.norm(v)
            diffs.append(abs(rep.lower - naive))
        assert max(diffs) > 0.05

import numpy as np
import pytest

from martingale_ci.block_bootstrap import BlockPlan, double_block_bootstrap


def sample_ac1(x):
    x = x - x.mean()
    denom = np.sum(x**2)
    return float(np.sum(x[1:] * x[:-1]) / denom) if denom > 0 else 0.0


class TestBlockPlan:
    def test_n200_geometry(self):
        plan = BlockPlan.for_length(200)
        assert (plan.l, plan.n_prime, plan.a, plan.k, plan.l_prime, plan.c) == (
            5, 204, 40, 2, 4, 100)

    def test_integer_cube_root_edges(self):
        assert BlockPlan.for_length(8).l == 2
        assert BlockPlan.for_length(63).l == 3
        assert BlockPlan.for_length(64).l == 4
        assert BlockPlan.for_length(1000).l == 10

    def test_small_series_rejected(self):
        with pytest.raises(ValueError, match="need n >= 8"):
            BlockPlan.for_length(7)

    def test_invariant_ck(self):
        for n in (8, 50, 199, 200, 1234):
            plan = BlockPlan.for_length(n)
            assert plan.c * plan.k <= n + plan.k


class TestDoubleBlockBootstrap:
    def test_output_length(self):
        rng = np.random.default_rng(0)
        for n in (8, 50, 200, 333, 1000):
            eps = rng.standard_normal(n)
            out = double_block_bootstrap(eps, np.random.default_rng(1))
            assert out.shape == (n,)

    def test_constant_series_fixed_point(self):
        eps = np.full(100, 3.7)
        out = double_block_bootstrap(eps, np.random.default_rng(2))
        assert np.all(out == 3.7)

    def test_membership(self):
        rng = np.random.default_rng(3)
        eps = rng.standard_normal(150)
        values = set(eps.tolist())
        for b in range(100):
            out = double_block_bootstrap(eps, np.random.default_rng(100 + b))
            assert set(out.tolist()) <= values

    def test_deterministic_under_fixed_stream(self):
        eps = np.random.default_rng(4).standard_normal(90)
        a = double_block_bootstrap(eps, np.random.default_rng(77))
        b = double_block_bootstrap(eps, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_small_series_rejected(self):
        eps = np.arange(7, dtype=float)
        with pytest.raises(ValueError, match="need n >= 8"):
            double_block_bootstrap(eps, np.random.default_rng(5))

    def test_preserves_short_range_dependence(self):
        # AR(1) with phi = 0.6: the mean resampled lag-1 autocorrelation
        # stays positive and above half the sample value.
        rng = np.random.default_rng(6)
        n = 2000
        e = rng.standard_normal(n + 200)
        x = np.empty(n + 200)
        prev = 0.0
        for t in range(n + 200):
            prev = 0.6 * prev + e[t]
            x[t] = prev
        x = x[200:]
        ac_sample = sample_ac1(x)
        boots = [
            sample_ac1(double_block_bootstrap(x, np.random.default_rng(1000 + b)))
            for b in range(200)
        ]
        mean_boot = float(np.mean(boots))
        assert mean_boot > 0.0
        assert mean_boot > 0.5 * ac_sample

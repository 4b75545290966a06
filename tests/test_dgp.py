import json

import numpy as np
import pytest

from _oracles import generate_design
from martingale_ci.dgp import (
    DgpConfig,
    GARCH_STATIONARY_VAR,
    InvalidConfigError,
    SETTINGS,
    generate,
    load_dataset,
    make_beta,
    save_dataset,
)


def long_run_se(x: np.ndarray, q: int = 50) -> float:
    """Bartlett-window standard error of the sample mean."""
    x = x - x.mean()
    n = len(x)
    v = np.mean(x**2)
    for nu in range(1, q + 1):
        w = 1.0 - nu / (q + 1.0)
        v += 2.0 * w * np.mean(x[nu:] * x[:-nu])
    return np.sqrt(max(v, 0.0) / n)


class TestMakeBeta:
    def test_multiset_counts_p250(self):
        beta = make_beta(250)
        values = beta[beta != 0]
        assert np.sum(np.isclose(values, 0.6)) == 2
        assert np.sum(np.isclose(values, 0.4)) == 1
        assert np.sum(np.isclose(values, 0.2)) == 3
        assert np.sum(np.isclose(values, 0.1)) == 4
        assert len(values) == 10

    def test_placement(self):
        beta = make_beta(20)
        expect = [0.6, 0.6, 0.4, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1]
        assert np.allclose(beta[:10], expect)
        assert np.all(beta[10:] == 0.0)

    def test_minimal_p_support(self):
        beta = make_beta(10)
        assert set(np.flatnonzero(beta).tolist()) == set(range(10))

    def test_l1_norm(self):
        # 2(0.6) + 0.4 + 3(0.2) + 4(0.1) = 2.6 by hand.
        assert np.isclose(np.abs(make_beta(250)).sum(), 2.6)

    def test_too_small_p_rejected(self):
        with pytest.raises(InvalidConfigError):
            make_beta(9)


class TestGenerate:
    def test_shapes_and_meta(self):
        cfg = DgpConfig(setting="LAI", n=50, p=12, seed=3)
        ds = generate(cfg, make_beta(12))
        assert ds.X.shape == (50, 12)
        assert ds.Y.shape == (50,)
        assert ds.meta["setting"] == "LAI"
        assert ds.meta["seed"] == 3

    def test_garch_stationary_variance(self):
        # Unconditional GARCH variance 0.1/(1-0.3-0.3) = 0.25, checked by
        # the long-run sample variance of the simulated errors.
        assert np.isclose(GARCH_STATIONARY_VAR, 0.25)
        cfg = DgpConfig(setting="GARCH", n=100_000, p=10, seed=11)
        ds = generate(cfg, make_beta(10))
        assert abs(ds.noise.var() - 0.25) < 0.015

    def test_iid_column_variance(self):
        cfg = DgpConfig(setting="IID", n=100_000, p=10, seed=5)
        ds = generate(cfg, make_beta(10))
        v = ds.X.var(axis=0)
        assert np.all(np.abs(v - 2.0) < 0.1)

    def test_zero_beta_gives_pure_noise(self):
        beta = np.zeros(10)
        cfg = DgpConfig(setting="IID", n=100, p=10, seed=2)
        ds = generate(cfg, beta)
        assert np.array_equal(ds.Y, ds.noise)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_columns_mean_zero(self, setting):
        cfg = DgpConfig(setting=setting, n=100_000, p=10, seed=17)
        ds = generate(cfg, make_beta(10))
        for col in range(ds.p):
            x = ds.X[:, col]
            assert abs(x.mean()) < 4.0 * long_run_se(x), (setting, col)

    def test_mvn_pairwise_correlation(self):
        cfg = DgpConfig(setting="MVN", n=100_000, p=6, seed=23)
        ds = generate(cfg, np.zeros(6))
        c = np.corrcoef(ds.X, rowvar=False)
        off = c[np.triu_indices(6, k=1)]
        assert np.all(np.abs(off - 0.2) < 0.02)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_deterministic(self, setting):
        cfg = DgpConfig(setting=setting, n=60, p=12, seed=99)
        a = generate(cfg, make_beta(12))
        b = generate(cfg, make_beta(12))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_arrays_hold_only_the_kept_rows(self, setting):
        # A view on the burn-in array would keep its 200 extra rows alive.
        ds = generate(DgpConfig(setting=setting, n=60, p=12, seed=99), make_beta(12))
        assert ds.X.base is None and ds.Y.base is None and ds.noise.base is None

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("n, p", [(60, 12), (300, 400)])
    def test_matches_formulas(self, setting, n, p):
        # X is built in place, the GARCH and AR draws a row at a time, with
        # the same bits as the formulas term by term.
        cfg = DgpConfig(setting=setting, n=n, p=p, seed=7)
        ds = generate(cfg, make_beta(p))
        expected = generate_design(cfg, make_beta(p))
        for got, want in zip((ds.X, ds.Y, ds.noise), expected):
            assert np.array_equal(got, want)

    def test_ar_regeneration_identity(self):
        cfg = DgpConfig(setting="AR", n=120, p=15, seed=31)
        beta = make_beta(15)
        ds = generate(cfg, beta)
        rebuilt = (beta[0] * ds.X[:, 0]
                   + ds.X[:, 1:] @ beta[1:] + ds.noise)
        assert np.allclose(rebuilt, ds.Y, atol=1e-12)

    def test_ar_lag_column_is_lagged_response(self):
        cfg = DgpConfig(setting="AR", n=80, p=12, seed=8)
        ds = generate(cfg, make_beta(12))
        assert np.allclose(ds.X[1:, 0], ds.Y[:-1])

    def test_beta_length_mismatch(self):
        with pytest.raises(InvalidConfigError):
            generate(DgpConfig(setting="IID", n=40, p=12, seed=0), make_beta(10))

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfigError):
            DgpConfig(setting="AR", n=40, p=1, seed=0)
        with pytest.raises(InvalidConfigError):
            DgpConfig(setting="nope", n=40, p=12, seed=0)
        with pytest.raises(InvalidConfigError):
            DgpConfig(setting="IID", n=3, p=12, seed=0)


class TestDatasetIo:
    def test_csv_roundtrip(self, tmp_path):
        cfg = DgpConfig(setting="GARCH", n=30, p=11, seed=77)
        ds = generate(cfg, make_beta(11))
        path = tmp_path / "data.csv"
        sidecar = save_dataset(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "y," + ",".join(f"x{j}" for j in range(1, 12))
        meta = json.loads(sidecar.read_text())
        assert meta["setting"] == "GARCH"
        assert meta["seed"] == 77
        assert meta["burn_in"] == 200
        assert np.allclose(meta["beta"], ds.truth)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.Y, ds.Y)
        assert np.array_equal(loaded.truth, ds.truth)

"""Synthetic data generating processes for the simulation studies.

Five designs are supported, all of the form ``Y = X beta + eps``:

- ``LAI``:   x_tj = f_t + e_tj with f_t, e_tj, eps_t i.i.d. standard normal.
- ``GARCH``: eps follows a GARCH(1,1) recursion, predictors load on an AR(1)
  common factor with per-column loadings 1 + |a_j|.
- ``AR``:    same predictors as GARCH but column 1 of X holds the lagged
  response y_{t-1}; errors are i.i.d. standard normal.
- ``IID``:   x_tj ~ N(0, 2) i.i.d., eps ~ N(0, 1).
- ``MVN``:   rows of X ~ N(0, Sigma) with unit diagonal and 0.2 off-diagonal.

All generators are pure functions of (config, seed): identical inputs give
bit-identical outputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SETTINGS = ("LAI", "GARCH", "AR", "IID", "MVN")

# GARCH(1,1) recursion sigma_t^2 = OMEGA + B*sigma_{t-1}^2 + A*eps_{t-1}^2.
GARCH_OMEGA = 0.1
GARCH_ALPHA = 0.3
GARCH_BETA = 0.3
# Stationary error variance OMEGA / (1 - A - B); also the recursion start.
GARCH_STATIONARY_VAR = GARCH_OMEGA / (1.0 - GARCH_ALPHA - GARCH_BETA)

FACTOR_AR_COEF = 0.9
MVN_OFF_DIAGONAL = 0.2
# Rows simulated and discarded before the kept sample in GARCH and AR.
BURN_IN = 200


class InvalidConfigError(ValueError):
    """Raised when a DGP configuration violates its preconditions."""


@dataclass(frozen=True)
class DgpConfig:
    """Configuration for one synthetic dataset."""

    setting: str
    n: int
    p: int
    seed: int

    def __post_init__(self) -> None:
        if self.setting not in SETTINGS:
            raise InvalidConfigError(
                f"unknown setting {self.setting!r}; expected one of {SETTINGS}"
            )
        if self.p < 1:
            raise InvalidConfigError("p must be >= 1")
        if self.setting == "AR" and self.p < 2:
            raise InvalidConfigError("AR setting needs p >= 2 (column 1 is the lag)")
        if self.n < 4:
            raise InvalidConfigError("n must be >= 4")
        if self.seed < 0:
            raise InvalidConfigError(f"--seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    """A design matrix, response, and optional generation ground truth.

    ``truth`` is the coefficient vector the data were generated with;
    ``noise`` keeps the realized error sequence when the dataset was
    simulated; it is None for datasets loaded from disk.
    """

    X: np.ndarray
    Y: np.ndarray
    truth: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    noise: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2:
            raise InvalidConfigError("X must be 2-dimensional")
        if self.X.shape[0] != self.Y.shape[0]:
            raise InvalidConfigError("row count of X must equal length of Y")
        if self.X.shape[0] < 4:
            raise InvalidConfigError("need n >= 4 rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def make_beta(p: int) -> np.ndarray:
    """Canonical sparse coefficient vector used in all simulation settings.

    First 10 entries (1-based): 0.6, 0.6, 0.4, 0.2, 0.2, 0.2, 0.1, 0.1,
    0.1, 0.1; the rest are zero.
    """
    if p < 10:
        raise InvalidConfigError(f"need p >= 10 to place 10 nonzero entries, got {p}")
    values = np.zeros(p)
    values[0:2] = 0.6
    values[2] = 0.4
    values[3:6] = 0.2
    values[6:10] = 0.1
    return values


def _garch_errors(rng: np.random.Generator, total: int) -> np.ndarray:
    """GARCH(1,1) errors started from the stationary variance."""
    xi = rng.standard_normal(total)
    eps = np.empty(total)
    sigma2 = GARCH_STATIONARY_VAR
    eps[0] = np.sqrt(sigma2) * xi[0]
    for t in range(1, total):
        sigma2 = GARCH_OMEGA + GARCH_BETA * sigma2 + GARCH_ALPHA * eps[t - 1] ** 2
        eps[t] = np.sqrt(sigma2) * xi[t]
    return eps


def _factor_ar_path(rng: np.random.Generator, total: int) -> np.ndarray:
    """AR(1) common-factor path f_t = 0.9 f_{t-1} + b_t, f_0 = 0."""
    b = rng.standard_normal(total)
    f = np.empty(total)
    prev = 0.0
    for t in range(total):
        prev = FACTOR_AR_COEF * prev + b[t]
        f[t] = prev
    return f


def _factor_loaded_design(
    rng: np.random.Generator, total: int, n_cols: int
) -> np.ndarray:
    """Predictors x_tj = f_t (1 + |a_j|) + e_tj over ``total`` rows."""
    a = rng.standard_normal(n_cols)
    f = _factor_ar_path(rng, total)
    e = rng.standard_normal((total, n_cols))
    return f[:, None] * (1.0 + np.abs(a))[None, :] + e


def generate(cfg: DgpConfig, beta: np.ndarray) -> Dataset:
    """Draw one dataset from the configured setting.

    The random draw order within each setting is fixed, so a given
    (config, beta) pair always produces the same dataset.
    """
    if len(beta) != cfg.p:
        raise InvalidConfigError(
            f"beta has length {len(beta)} but config requests p={cfg.p}"
        )
    rng = np.random.default_rng(cfg.seed)
    n, p, burn = cfg.n, cfg.p, BURN_IN

    if cfg.setting == "LAI":
        f = rng.standard_normal(n)
        e = rng.standard_normal((n, p))
        X = f[:, None] + e
        eps = rng.standard_normal(n)
        Y = X @ beta + eps
    elif cfg.setting == "IID":
        X = np.sqrt(2.0) * rng.standard_normal((n, p))
        eps = rng.standard_normal(n)
        Y = X @ beta + eps
    elif cfg.setting == "MVN":
        # sqrt(1-rho) Z + sqrt(rho) g 1^T has covariance (1-rho) I + rho J.
        z = rng.standard_normal((n, p))
        g = rng.standard_normal(n)
        rho = MVN_OFF_DIAGONAL
        X = np.sqrt(1.0 - rho) * z + np.sqrt(rho) * g[:, None]
        eps = rng.standard_normal(n)
        Y = X @ beta + eps
    elif cfg.setting == "GARCH":
        total = n + burn
        X_full = _factor_loaded_design(rng, total, p)
        eps_full = _garch_errors(rng, total)
        X = X_full[burn:]
        eps = eps_full[burn:]
        Y = X @ beta + eps
    elif cfg.setting == "AR":
        total = n + burn
        x_rest = _factor_loaded_design(rng, total, p - 1)
        eps_full = rng.standard_normal(total)
        drive = x_rest @ beta[1:] + eps_full
        y = np.empty(total)
        prev = 0.0
        for t in range(total):
            prev = beta[0] * prev + drive[t]
            y[t] = prev
        X = np.empty((n, p))
        X[:, 0] = y[burn - 1 : total - 1]
        X[:, 1:] = x_rest[burn:]
        eps = eps_full[burn:]
        Y = y[burn:]
    else:  # pragma: no cover - guarded by DgpConfig
        raise InvalidConfigError(cfg.setting)

    meta = {"setting": cfg.setting, "seed": cfg.seed, "n": n, "p": p,
            "burn_in": burn}
    return Dataset(X=X, Y=Y, truth=beta, meta=meta, noise=eps)


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def save_dataset(ds: Dataset, path: str | Path) -> Path:
    """Write a dataset as CSV (header y,x1,...,xp) plus a JSON sidecar.

    Returns the sidecar path. Floats are written with 17 significant
    digits so a round trip through disk is exact.
    """
    path = Path(path)
    header = "y," + ",".join(f"x{j}" for j in range(1, ds.p + 1))
    table = np.column_stack([ds.Y, ds.X])
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")
    meta = dict(ds.meta)
    if ds.truth is not None:
        meta["beta"] = ds.truth.tolist()
    sidecar = _meta_path(path)
    sidecar.write_text(json.dumps(meta, indent=2))
    return sidecar


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`.

    X and Y are C-contiguous copies, so their arithmetic is that of a
    generated dataset; a non-finite entry raises ``ValueError``.
    """
    path = Path(path)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path}: non-finite {'y' if col == 0 else f'x{col}'} "
                         f"in data row {row + 1}")
    Y = np.ascontiguousarray(table[:, 0])
    X = np.ascontiguousarray(table[:, 1:])
    truth = None
    meta: dict = {}
    sidecar = _meta_path(path)
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        if "beta" in meta:
            truth = np.asarray(meta.pop("beta"), dtype=float)
    return Dataset(X=X, Y=Y, truth=truth, meta=meta)

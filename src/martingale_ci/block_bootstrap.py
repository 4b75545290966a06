"""Two-level overlapping-block resampling for weakly dependent series.

The first level pastes together randomly drawn overlapping blocks of length
floor(n^(1/3)); the second level re-resamples short sub-blocks from within
each first-level block. Both levels preserve short-range dependence that a
plain i.i.d. residual resample would destroy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_LENGTH = 8  # below this the block geometry degenerates


def _int_cuberoot(n: int) -> int:
    r = int(round(n ** (1.0 / 3.0)))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


@dataclass(frozen=True)
class BlockPlan:
    """Block geometry for a series of length n.

    First level: ``a`` draws from the ``n_prime`` overlapping length-``l``
    blocks (indices past the series end wrap circularly). Second level:
    ``c`` draws from the ``l_prime`` overlapping length-``k`` sub-blocks of
    each first-level segment. Raises ``ValueError`` for n < 8, where the
    geometry degenerates; the resampled series are full samples, and the
    split before them already needs n >= 8.
    """

    n: int
    l: int
    n_prime: int
    a: int
    k: int
    l_prime: int
    c: int

    @classmethod
    def for_length(cls, n: int) -> "BlockPlan":
        if n < MIN_LENGTH:
            raise ValueError(f"need n >= {MIN_LENGTH} to block-resample, got {n}")
        l = _int_cuberoot(n)
        k = l // 2
        return cls(n=n, l=l, n_prime=n + l - 1, a=n // l, k=k,
                   l_prime=l - k + 1, c=n // k)


def double_block_bootstrap(
    eps: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Resample a series through two levels of overlapping blocks.

    Always returns a series of length n whose values are members of the
    input; raises ``ValueError`` for n < 8 (see :class:`BlockPlan`).
    """
    eps = np.asarray(eps, dtype=float)
    n = eps.shape[0]
    plan = BlockPlan.for_length(n)

    # First level: a blocks of length l from the n' circularly wrapped
    # overlapping blocks, pasted end to end.
    starts = rng.integers(0, plan.n_prime, size=plan.a)
    idx = (starts[:, None] + np.arange(plan.l)[None, :]) % n
    x_star = eps[idx].ravel()

    # Second level: sub-blocks of length k drawn uniformly over all
    # (segment, offset) pairs, never spanning two first-level segments.
    need = plan.c + (1 if plan.c * plan.k < n else 0)
    picks = rng.integers(0, plan.a * plan.l_prime, size=need)
    seg, off = picks // plan.l_prime, picks % plan.l_prime
    pos = seg * plan.l + off
    idx2 = pos[:, None] + np.arange(plan.k)[None, :]
    return x_star[idx2].ravel()[:n]

"""Per-channel standardization and strided non-overlapping windowing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neurocore import EPS_STD

FIT_BLOCK = 4096  # rows whose squared deviations the fit holds at a time


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel mean/std fitted on training data only."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=float))
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means/stds must be 1-D and the same length")
        if not (np.isfinite(self.means).all() and np.isfinite(self.stds).all()):
            raise ValueError("means and stds must be finite")
        if np.any(self.stds < EPS_STD):
            raise ValueError(f"stds must be clamped to >= {EPS_STD}")


def fit_normalizer(arrays) -> ChannelStats:
    """fit_and_normalize's stats of the samples of `arrays`, [n_i, q] each,
    pooled in order into a new array."""
    return fit_and_normalize(np.concatenate(arrays, axis=0, dtype=float))


def fit_and_normalize(x: np.ndarray) -> ChannelStats:
    """Fits the per-channel mean and population std, clamped to EPS_STD, on
    every sample of the non-empty C-contiguous float64 array x [..., q] and
    normalizes x in place, as normalize() would. x - means is both normalize's
    first step and the deviation the std squares, so it is computed once, in x."""
    pooled = x.reshape(-1, x.shape[-1])  # a view of x
    n, q = pooled.shape
    means = pooled.mean(axis=0)
    np.subtract(pooled, means, out=pooled)
    # as ndarray.std computes it: the mean of the squared deviations, rooted;
    # numpy adds q > 1 columns row by row, so row 0 of `sq` carries the sum
    # from block to block, but one column pairwise, so that is one block
    block = n if q == 1 else FIT_BLOCK
    sq = np.empty((min(n, block) + 1, q))
    for start in range(0, n, block):
        rows = min(block, n - start)
        np.square(pooled[start:start + rows], out=sq[1:rows + 1])
        sq[0] = np.add.reduce(sq[0 if start else 1:rows + 1], axis=0)
    stds = np.maximum(np.sqrt(sq[0] / n), EPS_STD)
    pooled /= stds
    return ChannelStats(means, stds)


def normalize(x, stats: ChannelStats, out=None) -> np.ndarray:
    """(x - means) / stds per channel, into a new array or into `out`
    (x itself included, for normalizing in place)."""
    x = np.asarray(x, dtype=float)
    out = np.subtract(x, stats.means, out=out)
    out /= stats.stds
    return out


def window(x, r: int) -> np.ndarray:
    """Partition [n, q] into z = floor(n/r) contiguous windows [z, r, q],
    [0, r, q] when n < r; trailing n mod r samples are dropped."""
    x = np.asarray(x, dtype=float)
    z = x.shape[0] // r
    return x[: z * r].reshape(z, r, x.shape[1])

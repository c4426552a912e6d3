"""Per-channel standardization and strided non-overlapping windowing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neurocore import EPS_STD


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
        if np.any(self.stds < EPS_STD):
            raise ValueError(f"stds must be clamped to >= {EPS_STD}")


def fit_normalizer(arrays) -> ChannelStats:
    """Pool all training samples and compute per-channel mean and
    population std, with stds clamped to EPS_STD."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    arrays = [a for a in arrays if a.size]
    if not arrays:
        raise ValueError("cannot fit normalizer on empty input")
    pooled = np.concatenate(arrays, axis=0)
    means = pooled.mean(axis=0)
    stds = np.maximum(pooled.std(axis=0), EPS_STD)
    return ChannelStats(means, stds)


def normalize(x, stats: ChannelStats) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != stats.means.shape[0]:
        raise ValueError(
            f"channel count {x.shape[-1]} != fitted {stats.means.shape[0]}")
    out = x - stats.means
    out /= stats.stds
    return out


def window(x, r: int) -> np.ndarray:
    """Partition [n, q] into z = floor(n/r) contiguous windows [z, r, q];
    trailing n mod r samples are dropped."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected [n, q] input, got shape {x.shape}")
    n, q = x.shape
    if r < 1 or n < r:
        raise ValueError(f"need n >= r >= 1, got n={n}, r={r}")
    z = n // r
    return x[: z * r].reshape(z, r, q)

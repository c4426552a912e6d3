"""Hand-crafted per-channel statistical features for baseline classifiers."""

from __future__ import annotations

import numpy as np

FEATURE_NAMES = ("mean", "variance", "ptp", "min", "max")


def handcrafted_features(window) -> np.ndarray:
    """5 features per channel, channel-major: for each channel in order,
    (mean, population variance, max - min, min, max). A [r, q] window
    yields a length 5*q vector."""
    w = np.asarray(window, dtype=float)
    mean = w.mean(axis=0)
    var = w.var(axis=0)
    mn = w.min(axis=0)
    mx = w.max(axis=0)
    return np.column_stack([mean, var, mx - mn, mn, mx]).ravel()


def feature_header(channel_names) -> list:
    return [f"{ch}_{feat}" for ch in channel_names for feat in FEATURE_NAMES]

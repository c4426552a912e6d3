"""The `charm embed` analysis, end to end in embed_segments: label-pure windows,
PCA of their learned low-level embeddings, CSV export and silhouette scoring."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DataError, atomic_write, csv_field
from .preprocess import normalize, window

PURITY_THRESHOLD = 0.9  # fraction of samples that must share the window label
SILHOUETTE_BLOCK = 16   # distance-matrix rows the silhouette holds at a time
SILHOUETTE_SAMPLE = 4096  # points the silhouette scores at most, evenly spaced


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray        # [D]
    components: np.ndarray  # [k, D], orthonormal rows, descending variance


class EmbeddingPoint(NamedTuple):
    coords: tuple
    low_label: str
    source: str


def pca_fit(X, k: int) -> PcaModel:
    """Top-k eigenvectors of the sample covariance, descending variance,
    each component's largest-magnitude entry forced positive."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = Xc.T @ Xc / (len(X) - 1)
    if not np.any(cov):
        raise ValueError("degenerate input: all rows identical (zero covariance)")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    components = evecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean, components)


def pca_transform(model: PcaModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return (X - model.mean) @ model.components.T


def silhouette_score(points, labels) -> float:
    """Mean silhouette with Euclidean distance of S = min(n, SILHOUETTE_SAMPLE)
    points, np.linspace(0, n - 1, S, dtype=int). Singleton-cluster points and
    zero-spread points contribute 0. Distances are formed SILHOUETTE_BLOCK rows
    at a time against the rows from the block on (the matrix is symmetric), so
    memory is 16 * (SILHOUETTE_BLOCK + labels) * S bytes: 1.6 MB at S = 4,096, 8 labels."""
    X = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    at = np.linspace(0, X.shape[0] - 1, min(X.shape[0], SILHOUETTE_SAMPLE), dtype=int)
    X, labels = X[at], labels[at]  # every point, in order, when there are no more
    uniq, codes = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("need at least 2 distinct labels")
    n = X.shape[0]
    onehot = np.zeros((n, uniq.size))
    onehot[np.arange(n), codes] = 1.0
    sizes = np.bincount(codes)
    sums = np.zeros((n, uniq.size))  # distance from each point to each cluster
    dist_buf = np.empty(SILHOUETTE_BLOCK * n)  # flat: each block's view is contiguous
    diff_buf = np.empty(SILHOUETTE_BLOCK * n)
    for start in range(0, n, SILHOUETTE_BLOCK):
        stop = min(start + SILHOUETTE_BLOCK, n)
        rows, shape = X[start:stop], (stop - start, n - start)
        dist = dist_buf[:shape[0] * shape[1]].reshape(shape)
        diff = diff_buf[:dist.size].reshape(shape)
        dist[...] = 0.0
        for j in range(X.shape[1]):
            np.subtract.outer(rows[:, j], X[start:, j], out=diff)
            dist += np.square(diff, out=diff)
        np.sqrt(dist, out=dist)
        sums[start:stop] += dist @ onehot[start:]
        sums[stop:] += dist[:, stop - start:].T @ onehot[start:stop]
    at, own_size = np.arange(n), sizes[codes]
    a = sums[at, codes] / np.maximum(own_size - 1, 1)
    sums /= sizes  # now the mean distance from each point to each cluster
    sums[at, codes] = np.inf
    b = sums.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    np.divide(b - a, denom, out=scores, where=(own_size > 1) & (denom > 0))
    return float(scores.mean())


def label_pure_windows(data, track, r: int, null_token: str = "null"):
    """Non-overlapping r-sample windows whose dominant low-level label covers
    at least PURITY_THRESHOLD of the window. Returns (windows [k, r, q],
    labels)."""
    windows = window(data, r)
    need = PURITY_THRESHOLD * r
    kept, labels = [], []
    for i in range(len(windows)):
        chunk = track[i * r:(i + 1) * r]
        best = chunk[0]
        if chunk.count(best) < need:
            # a label above the threshold (> r/2) is the unique majority
            best, count = max(((lab, chunk.count(lab)) for lab in set(chunk)),
                              key=lambda kv: kv[1])
            if count < need:
                continue
        if best != null_token:
            kept.append(i)
            labels.append(best)
    return windows[np.array(kept, dtype=np.intp)], labels


def export_embedding(points, path):
    """CSV rows pc1, pc2, low_label, source of an iterable of points, with a
    header and \\n line ends: full float precision, and each label and source
    quoted by csv_field. Rows are formatted one at a time."""
    field = functools.cache(csv_field)  # each distinct label or source quoted once
    atomic_write(path, itertools.chain(["pc1,pc2,low_label,source\n"], (
        f"{float(p.coords[0])!r},{float(p.coords[1])!r},{field(p.low_label)},{field(p.source)}\n"
        for p in points)))


@np.errstate(over="ignore", invalid="ignore")  # refused below, not warned about
def embed_segments(model, stats, segments, track, null_token, groups, path):
    """Quick-start step 4: every segment's label-pure windows, normalized with
    `stats`, through the low-level encoder, their 2-D PCA written to `path`, then
    the silhouette of their labels mapped through the `groups` dict. Returns
    (window count, label count, silhouette, count of the windows it scores,
    share of the embeddings' variance the 2-D PCA holds, largest |normalized
    value| of the windows), the silhouette None when those hold a single label.
    A PCA coordinate that is not finite (values too large for float64) is a
    DataError, raised before the CSV."""
    r = model.cfg.r
    # one buffer for the kept windows, sized by the windows seen, normalized once filled
    windows = np.empty((sum(len(seg.data) // r for seg in segments), r, model.cfg.q))
    labels, sources = [], []
    for seg in segments:
        if not seg.low_label_tracks or track not in seg.low_label_tracks:
            raise DataError(f"data has no low-level label track {track!r}")
        w, labs = label_pure_windows(seg.data, seg.low_label_tracks[track], r, null_token)
        windows[len(labels):len(labels) + len(w)] = w
        labels.extend([groups.get(lab, lab) for lab in labs])  # a list, so extend sizes once
        sources.extend([seg.source] * len(labs))
    if len(labels) < 3:
        raise DataError("not enough label-pure windows for embedding analysis")
    if len(set(labels)) < 2:
        raise DataError("embedding analysis needs at least 2 distinct labels, "
                        f"got {sorted(set(labels))}")
    kept = windows[:len(labels)]
    feats = model.embed_windows(normalize(kept, stats, out=kept))
    largest = float(max(kept.max(), -kept.min()))  # of the windows normalized in place
    del windows, kept  # freed before the PCA, the CSV and the silhouette
    try:
        pca = pca_fit(feats, 2)
    except ValueError as e:  # e.g. a model that maps every window to one point
        raise DataError(f"embedding analysis: {e}") from e
    coords = pca_transform(pca, feats)
    if not np.isfinite(coords).all():
        raise DataError("embedding analysis: the embeddings' 2-D PCA is not finite "
                        "(values too large for float64)")
    export_embedding((EmbeddingPoint((c[0], c[1]), lab, src)
                      for c, lab, src in zip(coords, labels, sources)), path)
    try:
        score = silhouette_score(coords, labels)
    except ValueError:  # the evenly spaced points it scores hold one label
        score = None
    share = float(coords.var(axis=0).sum() / feats.var(axis=0).sum())
    return (len(labels), len(set(labels)), score, min(len(labels), SILHOUETTE_SAMPLE), share,
            largest)

"""Ingestion of delimiter-separated sensor files, label-run segmentation,
exclusion rules, fixed-length sampling, and leave-one-subject-out splits."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Base for data-layer failures."""


class ParseError(DataError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class EmptyInputError(DataError):
    pass


class UnknownUserError(DataError):
    pass


MAX_INTERP_GAP = 8  # longest run of missing samples bridged by interpolation


@dataclass(frozen=True)
class SensorStream:
    """Time-ordered multi-channel samples, [n, q] float64."""

    samples: np.ndarray
    sample_rate_hz: float = 30.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"expected non-empty [n, q] samples, got {arr.shape}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def q(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ActivityLabelSet:
    """Canonical ordered class names; index order is used everywhere."""

    classes: tuple

    def __post_init__(self):
        classes = tuple(self.classes)
        if len(classes) < 2:
            raise ValueError("need at least 2 classes")
        if len(set(classes)) != len(classes):
            raise ValueError("class names must be unique")
        object.__setattr__(self, "classes", classes)

    def __len__(self):
        return len(self.classes)

    def __contains__(self, name):
        return name in self.classes

    def index(self, name) -> int:
        return self.classes.index(name)


@dataclass
class LabeledSegment:
    """A stream slice with one high-level label. Low-level label tracks are
    evaluation-only side information and never feed training."""

    stream: SensorStream
    high_label: int
    user_id: str
    low_label_tracks: dict | None = None
    padded: bool = False
    source: str = ""

    def __post_init__(self):
        if self.low_label_tracks is not None:
            for name, track in self.low_label_tracks.items():
                if len(track) != self.stream.n:
                    raise ValueError(
                        f"low label track '{name}' length {len(track)} != n={self.stream.n}")

    @property
    def data(self) -> np.ndarray:
        return self.stream.samples


@dataclass(frozen=True)
class SchemaConfig:
    """Column layout of a delimiter-separated sensor file."""

    delimiter: str
    channel_columns: tuple
    high_label_column: int
    low_label_columns: dict | None = None  # track name -> column index
    null_label_token: str = "null"

    def __post_init__(self):
        object.__setattr__(self, "channel_columns", tuple(self.channel_columns))
        cols = list(self.channel_columns) + [self.high_label_column]
        if self.low_label_columns:
            cols += list(self.low_label_columns.values())
        if len(set(cols)) != len(cols):
            raise ValueError("schema column indices must be distinct")
        if min(cols) < 0:
            raise ValueError("schema column indices must be non-negative")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")

    @property
    def width(self) -> int:
        cols = list(self.channel_columns) + [self.high_label_column]
        if self.low_label_columns:
            cols += list(self.low_label_columns.values())
        return max(cols) + 1


@dataclass
class LoadedFile:
    stream: SensorStream
    high_labels: list
    low_labels: dict  # track name -> list of str
    dropped_rows: int = 0


def atomic_write(path, data):
    """Write bytes or str (as UTF-8) to path through a temporary file in the
    same directory, so the path holds the old content or the new, never a
    partial write. The file gets the mode open() would give it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        umask = os.umask(0)  # mkstemp made the file 0600; read the umask to undo that
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_MISSING = ("", "nan", "NaN", "NAN")


def load_stream(path, schema: SchemaConfig, sample_rate_hz: float = 30.0) -> LoadedFile:
    """Parse one sensor file. Missing channel values (empty/NaN fields) are
    linearly interpolated when the gap is <= MAX_INTERP_GAP samples and has
    neighbors on both sides; otherwise the affected rows are dropped and
    counted. Structurally malformed rows raise ParseError."""
    rows = []
    highs = []
    lows = {name: [] for name in (schema.low_label_columns or {})}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split(schema.delimiter)
            if len(fields) < schema.width:
                raise ParseError(path, line_no,
                                 f"expected >= {schema.width} fields, got {len(fields)}")
            vals = np.empty(len(schema.channel_columns))
            for j, col in enumerate(schema.channel_columns):
                tok = fields[col].strip()
                if tok in _MISSING:
                    vals[j] = np.nan
                else:
                    try:
                        vals[j] = float(tok)
                    except ValueError:
                        raise ParseError(path, line_no,
                                         f"bad numeric value {tok!r} in column {col}") from None
            rows.append(vals)
            highs.append(fields[schema.high_label_column].strip())
            for name, col in (schema.low_label_columns or {}).items():
                lows[name].append(fields[col].strip())

    if not rows:
        raise EmptyInputError(f"{path}: no usable rows")

    data = np.vstack(rows)
    data, keep, n_dropped = _fill_missing(data)
    if data.shape[0] == 0:
        raise EmptyInputError(f"{path}: no usable rows after dropping "
                              f"{n_dropped} unrecoverable rows")
    highs = [h for h, k in zip(highs, keep) if k]
    lows = {name: [v for v, k in zip(track, keep) if k] for name, track in lows.items()}
    stream = SensorStream(data, sample_rate_hz=sample_rate_hz)
    return LoadedFile(stream, highs, lows, dropped_rows=n_dropped)


def _fill_missing(data: np.ndarray):
    """Interpolate short interior NaN runs per channel; rows still carrying
    NaN afterwards are dropped."""
    n, q = data.shape
    for j in range(q):
        col = data[:, j]
        isnan = np.isnan(col)
        if not isnan.any():
            continue
        i = 0
        while i < n:
            if not isnan[i]:
                i += 1
                continue
            start = i
            while i < n and isnan[i]:
                i += 1
            end = i  # run is [start, end)
            gap = end - start
            if start > 0 and end < n and gap <= MAX_INTERP_GAP:
                lo, hi = col[start - 1], col[end]
                col[start:end] = lo + (hi - lo) * np.arange(1, gap + 1) / (gap + 1)
    keep = ~np.isnan(data).any(axis=1)
    return data[keep], keep, int(n - keep.sum())


def segment_by_high_label(stream: SensorStream, high_labels, labels: ActivityLabelSet,
                          null_token: str, user_id: str = "",
                          low_labels: dict | None = None, source: str = ""):
    """Split into contiguous runs of a single label. Runs labeled with the
    null token or any name outside the label set are discarded (counted).

    Returns (segments, discarded_run_count).
    """
    if len(high_labels) != stream.n:
        raise ValueError(f"label count {len(high_labels)} != n={stream.n}")
    segments = []
    discarded = 0
    start = 0
    for i in range(1, stream.n + 1):
        if i < stream.n and high_labels[i] == high_labels[start]:
            continue
        name = high_labels[start]
        if name != null_token and name in labels:
            sub = SensorStream(stream.samples[start:i],
                               sample_rate_hz=stream.sample_rate_hz)
            tracks = None
            if low_labels:
                tracks = {k: list(v[start:i]) for k, v in low_labels.items()}
            segments.append(LabeledSegment(sub, labels.index(name), user_id,
                                           low_label_tracks=tracks,
                                           source=f"{source}[{start}:{i}]"))
        else:
            discarded += 1
        start = i
    return segments, discarded


def make_fixed_length_samples(segment: LabeledSegment, n_target: int, stride: int):
    """Strided crops of exactly n_target samples at offsets 0, stride, 2*stride,
    ... Segments shorter than n_target are left-padded by repeating the first
    sample and emitted once, flagged padded."""
    if n_target < 1 or stride < 1:
        raise ValueError("n_target and stride must be >= 1")
    n = segment.stream.n
    out = []

    def slice_tracks(lo, hi):
        if segment.low_label_tracks is None:
            return None
        return {k: list(v[lo:hi]) for k, v in segment.low_label_tracks.items()}

    if n < n_target:
        pad = n_target - n
        data = np.vstack([np.repeat(segment.data[:1], pad, axis=0), segment.data])
        tracks = None
        if segment.low_label_tracks is not None:
            tracks = {k: [v[0]] * pad + list(v)
                      for k, v in segment.low_label_tracks.items()}
        stream = SensorStream(data, sample_rate_hz=segment.stream.sample_rate_hz)
        out.append(LabeledSegment(stream, segment.high_label, segment.user_id,
                                  low_label_tracks=tracks, padded=True,
                                  source=f"{segment.source}|pad"))
        return out

    offset = 0
    while offset + n_target <= n:
        data = segment.data[offset:offset + n_target]
        stream = SensorStream(data, sample_rate_hz=segment.stream.sample_rate_hz)
        out.append(LabeledSegment(stream, segment.high_label, segment.user_id,
                                  low_label_tracks=slice_tracks(offset, offset + n_target),
                                  source=f"{segment.source}|@{offset}"))
        offset += stride
    return out


def loso_split(dataset, held_out_user):
    """Leave-one-subject-out: validation = all segments of held_out_user."""
    users = sorted({seg.user_id for seg in dataset})
    if held_out_user not in users:
        raise UnknownUserError(
            f"unknown user {held_out_user!r}; available users: {users}")
    train = [seg for seg in dataset if seg.user_id != held_out_user]
    val = [seg for seg in dataset if seg.user_id == held_out_user]
    return train, val


# Column map for the OPPORTUNITY .dat files: 3 IMU locations (lower-left arm,
# lower-right arm, upper back), each with triaxial accelerometer + gyroscope,
# 18 motion channels total. Documented in the README; column indices follow
# the dataset's published column list and are supplied via SchemaConfig.
OPPORTUNITY_CHANNEL_NAMES = tuple(
    f"{loc}_{sensor}_{axis}"
    for loc in ("lla", "lra", "back")
    for sensor in ("acc", "gyro")
    for axis in ("x", "y", "z")
)

"""Ingestion of delimiter-separated sensor files and the data-directory
manifest, label-run segmentation, exclusion rules, fixed-length sampling,
and leave-one-subject-out splits."""

from __future__ import annotations

import errno
import functools
import json
import math
import numbers
import os
import re
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields
from itertools import compress, repeat
from operator import ne
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np


class DataError(Exception):
    """A data directory, manifest or sensor file the program cannot use."""


MAX_INTERP_GAP = 8  # longest run of missing samples bridged by interpolation


@dataclass(frozen=True)
class SensorStream:
    """Time-ordered multi-channel samples, [n, q] float64."""

    samples: np.ndarray

    @property
    def n(self) -> int:
        return self.samples.shape[0]


@dataclass
class LabeledSegment:
    """[n, q] float64 samples with one high-level label. Low-level label
    tracks are evaluation-only side information and never feed training."""

    data: np.ndarray
    high_label: int
    user_id: str
    low_label_tracks: dict | None = None
    source: str = ""


@dataclass(frozen=True)
class SchemaConfig:
    """Column layout of a delimiter-separated sensor file."""

    delimiter: str
    channel_columns: tuple
    high_label_column: Annotated[int, "[0, inf)"]
    low_label_columns: dict | None = None  # track name -> column index
    null_label_token: str = "null"

    def __post_init__(self):
        object.__setattr__(self, "channel_columns", tuple(self.channel_columns))
        check_fields(self)
        if not self.channel_columns:
            raise ValueError("schema needs at least one channel column")
        cols = self._columns
        for col in cols:
            check_value("schema column", col, int, "[0, inf)")
        if len(set(cols)) != len(cols):
            raise ValueError("schema column indices must be distinct")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")

    @property
    def _columns(self) -> list:
        return [*self.channel_columns, self.high_label_column,
                *(self.low_label_columns or {}).values()]

    @property
    def width(self) -> int:
        return max(self._columns) + 1


@dataclass
class LoadedFile:
    stream: SensorStream
    high_labels: list
    low_labels: dict  # track name -> list of str
    dropped_rows: int = 0


def output_dir(path):
    """The directory atomic_write writes path through. When it is missing or
    not a directory, or path is itself a directory, the OSError the write
    would meet, naming path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.stat(os.path.join(directory, os.curdir))  # ENOENT or ENOTDIR, as open() gives
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return directory


def atomic_write(path, data):
    """Write bytes, or str or an iterable of str as UTF-8, to path through a
    temporary file in the same directory, so the path holds the old content
    or the new, never a partial write. The file gets the mode open() would
    give it."""
    fd, tmp = tempfile.mkstemp(dir=output_dir(path), prefix=".tmp-")
    try:
        if isinstance(data, (bytes, str)):
            with os.fdopen(fd, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        else:  # each str through the text layer's write buffer
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(data)
        umask = os.umask(0)  # mkstemp made the file 0600; read the umask to undo that
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_CSV_SPECIAL = frozenset(',"\r\n')


def csv_field(value):
    """str(value) as one field of the CSV files the CLI writes: in quotes,
    its quotes doubled, when it holds a comma, a quote, \\r or \\n, and as
    it is otherwise. This is csv.writer's minimal quoting, with a lone \\r
    quoted too, so csv.reader reads every row back whole."""
    s = str(value)
    return s if _CSV_SPECIAL.isdisjoint(s) else '"' + s.replace('"', '""') + '"'


def map_files(fn, items):
    """[fn(x) for x in items], run on one forked process per CPU this process
    may use, at most one per item. fn must be a module-level function, and
    its items and results picklable. The first item in input order whose
    call raises raises here; a worker that dies (killed by a signal or for
    want of memory) raises ChildProcessError, an OSError. Workers ignore
    SIGINT: a Ctrl-C interrupts this process alone. On one CPU, or without
    os.fork or os.sched_getaffinity, the calls run here."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus) if hasattr(os, "fork") else 1
    if workers < 2:
        return [fn(x) for x in items]
    import multiprocessing  # here, not at the top, so importing charm stays quick
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # four chunks a worker but at most 8 items each: a Ctrl-C or an error waits for
    # every chunk already handed out
    chunksize = min(8, -(-len(items) // (4 * workers)))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except BrokenProcessPool as e:
        raise ChildProcessError("a worker process died before its files were done "
                                "(killed, or out of memory)") from e


_INTERVAL = re.compile(r"([\[(])(.+), (.+)([\])])")


def check_value(name, value, kind, interval):
    """The one rule for a config value: an int is any Integral but a bool, a
    float any finite Real but a bool, and any other type an instance of it.
    `interval`, written like "[0, 1)" or "(0, inf)", bounds a number; None
    leaves it unbounded. Raises ValueError naming `name`."""
    if kind is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    elif kind is float:  # comparing, not math.isfinite, takes ints past float range
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and -math.inf < value < math.inf)
    else:
        ok = isinstance(value, kind)
    if ok and interval:
        lo_bracket, lo, hi, hi_bracket = _INTERVAL.fullmatch(interval).groups()
        lo, hi = float(lo), float(hi)
        ok = ((lo <= value if lo_bracket == "[" else lo < value)
              and (value <= hi if hi_bracket == "]" else value < hi))
    if not ok:
        what = {int: "an int", float: "a finite float"}.get(
            kind, getattr(kind, "__name__", kind))
        within = f" in {interval}" if interval else ""
        raise ValueError(f"{name} must be {what}{within}, got {value!r}")


@functools.cache
def _field_rules(cls):
    """(name, type, interval or None) per field of a dataclass, from
    annotations of the form T or Annotated[T, interval]."""
    return tuple((name, *(get_args(hint) if get_origin(hint) is Annotated else (hint, None)))
                 for name, hint in get_type_hints(cls, include_extras=True).items())


def check_fields(config):
    """check_value on every field of a config dataclass instance."""
    for name, kind, interval in _field_rules(type(config)):
        check_value(name, getattr(config, name), kind, interval)


def load_stream(path, schema: SchemaConfig) -> LoadedFile:
    """Parse one sensor file. Missing channel values (empty or whitespace
    fields, NaN in any case) are linearly interpolated when the gap is
    <= MAX_INTERP_GAP samples and has neighbors on both sides; otherwise the
    affected rows are dropped and counted. Rows with too few fields, channel
    values that are not numbers, and infinite values raise a DataError that
    names the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    columns = _columns(lines, schema.delimiter)
    if not columns:
        raise DataError(f"{path}: no usable rows")
    data = None
    if len(columns) >= schema.width:
        data = _parse_channels(columns, schema.channel_columns)
    if data is None or np.isinf(data).any():
        raise _first_bad_row(path, lines, schema)
    # Labels come from a small vocabulary: one shared string per name keeps
    # a file's worth of duplicates from outliving the parse.
    highs = list(map(sys.intern, map(str.strip, columns[schema.high_label_column])))
    lows = {name: list(map(sys.intern, map(str.strip, columns[col])))
            for name, col in (schema.low_label_columns or {}).items()}

    data, keep, n_dropped = _fill_missing(data)
    if data.shape[0] == 0:
        raise DataError(f"{path}: no usable rows after dropping "
                        f"{n_dropped} unrecoverable rows")
    if n_dropped:
        highs = list(compress(highs, keep))
        lows = {name: list(compress(track, keep)) for name, track in lows.items()}
    return LoadedFile(SensorStream(data), highs, lows, dropped_rows=n_dropped)


def _columns(lines, delimiter):
    """The columns of a file's lines, sliced from one split of the joined
    lines: blank and whitespace-only lines are dropped, and a line with more
    fields than the shortest is cut to as many. [] when no line is left."""
    lines = [line for line in lines if line and not line.isspace()]
    if not lines:
        return []
    counts = list(map(str.count, lines, repeat(delimiter)))
    width = min(counts) + 1
    if max(counts) >= width:
        lines = [delimiter.join(line.split(delimiter, width)[:width]) for line in lines]
    flat = delimiter.join(lines).split(delimiter)
    return [flat[col::width] for col in range(width)]


def _parse_channels(columns, channel_columns):
    """[n, q] float64 from the channel columns in one numpy call, which reads
    each token as float() would, surrounding whitespace included; empty
    tokens become NaN. Only when a token is not read as it stands
    (whitespace-only, or edged by a character float() does not strip) is
    every token stripped and the call made again; None when that fails too."""
    for strip in (False, True):
        tokens = []
        for col in channel_columns:
            column = list(map(str.strip, columns[col])) if strip else columns[col]
            tokens += [tok or "nan" for tok in column] if "" in column else column
        try:
            return np.array(tokens, dtype=float).reshape(len(channel_columns), -1).T
        except ValueError:
            pass
    return None


def _first_bad_row(path, lines, schema: SchemaConfig) -> DataError:
    """The `path:line: message` DataError for the first row the columnar
    parse rejects."""
    for line_no, line in enumerate(lines, start=1):
        if line and not line.isspace():
            message = _row_fault(line.split(schema.delimiter), schema)
            if message:
                return DataError(f"{path}:{line_no}: {message}")
    raise RuntimeError(f"{path}: the columnar parse rejected rows the per-row check accepts")


def _row_fault(fields, schema: SchemaConfig):
    """Why one row's fields are rejected, or None: too few fields, a channel
    token float() cannot read, or an infinite value."""
    if len(fields) < schema.width:
        return f"expected >= {schema.width} fields, got {len(fields)}"
    for col in schema.channel_columns:
        tok = fields[col].strip()
        if not tok:
            continue
        try:
            value = float(tok)
        except ValueError:
            return f"bad numeric value {tok!r} in column {col}"
        if math.isinf(value):
            return f"non-finite value {tok!r} in column {col}"
    return None


def _fill_missing(data: np.ndarray):
    """Interpolate short interior NaN runs per channel; rows still carrying
    NaN afterwards are dropped. Returns (kept rows, keep mask, dropped count)."""
    n = data.shape[0]
    isnan = np.isnan(data)
    if not isnan.any():  # C order, as data[keep] below gives: training needs it
        return np.ascontiguousarray(data), np.ones(n, dtype=bool), 0
    missing = np.zeros((data.shape[1], n + 2), dtype=np.int8)  # [q, n] padded with 0
    missing[:, 1:-1] = isnan.T
    step = np.diff(missing, axis=1)
    chan, start = np.nonzero(step == 1)  # runs are [start, end) per channel,
    _, end = np.nonzero(step == -1)      # both in channel-then-row order
    gap = end - start
    fill = (start > 0) & (end < n) & (gap <= MAX_INTERP_GAP)
    if fill.any():
        chan, start, end, gap = chan[fill], start[fill], end[fill], gap[fill]
        first = np.cumsum(gap) - gap  # offset of each run in the flat list of its rows
        k = np.arange(gap.sum()) - np.repeat(first, gap) + 1  # 1..gap within each run
        rows = np.repeat(start, gap) + k - 1
        cols = np.repeat(chan, gap)
        lo = data[np.repeat(start - 1, gap), cols]
        hi = data[np.repeat(end, gap), cols]
        data[rows, cols] = lo + (hi - lo) * k / (np.repeat(gap, gap) + 1)
    keep = ~np.isnan(data).any(axis=1)
    return data[keep], keep, int(n - keep.sum())


def segment_by_high_label(data: np.ndarray, high_labels, classes: tuple,
                          null_token: str, user_id: str = "",
                          low_labels: dict | None = None, source: str = ""):
    """Split [n, q] samples into contiguous runs of a single label; a run's
    high_label is its name's index in `classes`. Runs labeled with the null
    token or any name outside `classes` are discarded (counted).

    Returns (segments, discarded_run_count).
    """
    n = len(data)
    changed = map(ne, high_labels[1:], high_labels[:-1])
    bounds = [0, *compress(range(1, n), changed), n]
    segments = []
    discarded = 0
    for start, end in zip(bounds, bounds[1:]):
        name = high_labels[start]
        if name == null_token or name not in classes:
            discarded += 1
            continue
        tracks = None
        if low_labels:
            tracks = {k: v[start:end] for k, v in low_labels.items()}
        segments.append(LabeledSegment(data[start:end], classes.index(name), user_id,
                                       low_label_tracks=tracks,
                                       source=f"{source}[{start}:{end}]"))
    return segments, discarded


def make_fixed_length_samples(segment: LabeledSegment, n_target: int, stride: int):
    """Strided crops of exactly n_target samples at offsets 0, stride, 2*stride,
    ... Segments shorter than n_target are left-padded by repeating the first
    sample and emitted once. Crops carry no low-level label tracks: those are
    read from whole segments only."""
    n = len(segment.data)
    if n < n_target:
        data = np.vstack([np.repeat(segment.data[:1], n_target - n, axis=0), segment.data])
        return [LabeledSegment(data, segment.high_label, segment.user_id)]
    return [LabeledSegment(segment.data[offset:offset + n_target], segment.high_label,
                           segment.user_id)
            for offset in range(0, n - n_target + 1, stride)]


def loso_split(dataset, held_out_user):
    """Leave-one-subject-out: validation = all segments of held_out_user."""
    _check_user(held_out_user, {seg.user_id for seg in dataset})
    train = [seg for seg in dataset if seg.user_id != held_out_user]
    val = [seg for seg in dataset if seg.user_id == held_out_user]
    return train, val


def _check_user(user, users):
    """A DataError that lists the users there are, unless `user` is one."""
    if user not in users:
        raise DataError(f"unknown user {user!r}; available users: {sorted(users)}")


# ---------------------------------------------------------------------------
# Data directory: the delimited files plus a manifest.json naming the
# classes, the schema block (dataclasses.asdict of a SchemaConfig) and each
# file with its user.

def read_json(path, what, error):
    """The JSON value in the UTF-8 file at `path`; a file that cannot be read
    or parsed raises `error`, an exception class, naming `what` the file is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise error(f"cannot read {what}: {e}") from e
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON: {e}") from e


def read_manifest(data_dir):
    """Returns (file entries, class names as a tuple, SchemaConfig); any
    malformed or inconsistent key is a DataError."""
    path = os.path.join(data_dir, "manifest.json")
    manifest = read_json(path, "manifest", DataError)
    required = ("schema", "files", "classes", "q")
    if not isinstance(manifest, dict) or not all(k in manifest for k in required):
        raise DataError(f"{path}: manifest must be a JSON object with keys "
                        f"{', '.join(required)}")
    files = manifest["files"]
    if not isinstance(files, list) or not all(
            isinstance(e, dict) and isinstance(e.get("file"), str)
            and isinstance(e.get("user"), str)
            for e in files):
        raise DataError(f"{path}: manifest 'files' must be a list of objects, "
                        f"each with string 'file' and 'user'")
    classes = manifest["classes"]
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)
            and len(set(classes)) == len(classes) >= 2):
        raise DataError(f"{path}: manifest 'classes' must be a list of at least "
                        f"2 distinct names, got {classes!r}")
    schema = _read_schema(manifest["schema"], path)
    if manifest["q"] != len(schema.channel_columns):
        raise DataError(f"{path}: manifest 'q' is {manifest['q']!r} but the schema "
                        f"has {len(schema.channel_columns)} channel columns")
    return files, tuple(classes), schema


def _read_schema(block, path) -> SchemaConfig:
    """SchemaConfig from the keys, named as its fields, of the schema block of `path`."""
    required = [f.name for f in fields(SchemaConfig) if f.default is MISSING]
    if not isinstance(block, dict) or not all(k in block for k in required):
        raise DataError(f"{path}: manifest 'schema' must be an object with keys "
                        f"{', '.join(required)}")
    try:
        return SchemaConfig(**{f.name: block[f.name] for f in fields(SchemaConfig)
                               if f.name in block})
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: bad manifest schema: {e}") from e


def load_data_dir(data_dir, user=None):
    """Returns (segments, class names, SchemaConfig): the labeled runs of
    every file the manifest lists, after null/unknown-label run splitting.
    With `user`, only that user's files are read: a user the manifest does
    not name is a DataError listing the users it names, and one with no
    labeled segment a DataError naming it."""
    files, classes, schema = read_manifest(data_dir)
    if user is not None:
        _check_user(user, {entry["user"] for entry in files})
        files = [entry for entry in files if entry["user"] == user]
    jobs = [(data_dir, entry, classes, schema) for entry in files]
    segments = [seg for segs in map_files(_load_entry, jobs) for seg in segs]
    if not segments:
        raise DataError(f"{data_dir}: no labeled segments found" if user is None
                        else f"held-out user {user!r} has no labeled segments")
    return segments, classes, schema


def _load_entry(job):
    """The labeled runs of one manifest entry."""
    data_dir, entry, classes, schema = job
    loaded = load_stream(os.path.join(data_dir, entry["file"]), schema)
    segments, _ = segment_by_high_label(
        loaded.stream.samples, loaded.high_labels, classes, schema.null_label_token,
        user_id=entry["user"], low_labels=loaded.low_labels, source=entry["file"])
    return segments


import os
import pickle
from dataclasses import dataclass
from typing import Annotated

import numpy as np
import pytest

from charm.dataset import (MAX_INTERP_GAP, DataError, LabeledSegment, SchemaConfig,
                           SensorStream, _columns, _fill_missing, atomic_write,
                           check_fields, load_stream, loso_split, make_fixed_length_samples,
                           segment_by_high_label)

SCHEMA = SchemaConfig(delimiter=",", channel_columns=(0, 1),
                      high_label_column=2, null_label_token="null")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadStream:
    def test_identity_parse(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n3.0,4.0,A\n5.0,6.0,B\n")
        loaded = load_stream(path, SCHEMA)
        assert loaded.stream.samples.shape == (3, 2)
        np.testing.assert_array_equal(loaded.stream.samples[1], [3.0, 4.0])
        assert loaded.high_labels == ["A", "A", "B"]
        assert loaded.dropped_rows == 0

    def test_interpolates_single_gap(self, tmp_path):
        path = write(tmp_path, "1.0,0,A\n,0,A\n3.0,0,A\n")
        loaded = load_stream(path, SCHEMA)
        assert loaded.stream.samples[1, 0] == pytest.approx(2.0)
        assert loaded.dropped_rows == 0

    def test_interpolates_run_up_to_eight(self, tmp_path):
        rows = ["0.0,0,A"] + [",0,A"] * 8 + ["9.0,0,A"]
        loaded = load_stream(write(tmp_path, "\n".join(rows) + "\n"), SCHEMA)
        np.testing.assert_allclose(loaded.stream.samples[:, 0], np.arange(10.0))

    def test_long_gap_drops_rows(self, tmp_path):
        rows = ["0.0,0,A"] + [",0,A"] * 9 + ["10.0,0,A"]
        loaded = load_stream(write(tmp_path, "\n".join(rows) + "\n"), SCHEMA)
        assert loaded.stream.n == 2
        assert loaded.dropped_rows == 9
        assert loaded.high_labels == ["A", "A"]

    def test_edge_gap_dropped(self, tmp_path):
        loaded = load_stream(write(tmp_path, ",0,A\n1.0,0,A\n"), SCHEMA)
        assert loaded.stream.n == 1
        assert loaded.dropped_rows == 1

    def test_all_rows_unrecoverable(self, tmp_path):
        path = write(tmp_path, ",0,A\n,1,A\n")
        with pytest.raises(DataError, match="no usable rows after dropping 2 "):
            load_stream(path, SCHEMA)

    def test_malformed_row_raises_with_line(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n1.0,oops,A\n")
        with pytest.raises(DataError, match=r":2: bad numeric value 'oops' in column 1$"):
            load_stream(path, SCHEMA)

    def test_short_row_raises(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n1.0\n")
        with pytest.raises(DataError, match=r":2: expected >= 3 fields, got 1$"):
            load_stream(path, SCHEMA)

    def test_low_label_tracks(self, tmp_path):
        schema = SchemaConfig(delimiter=",", channel_columns=(0,),
                              high_label_column=1,
                              low_label_columns={"motion": 2})
        loaded = load_stream(write(tmp_path, "1.0,A,walk\n2.0,A,sit\n"), schema)
        assert loaded.low_labels["motion"] == ["walk", "sit"]


# Reference implementations: the per-line loader and per-element gap filler
# that the columnar ones replace. load_stream must match them exactly.

def reference_fill(data):
    data = data.copy()
    n, q = data.shape
    for j in range(q):
        col = data[:, j]
        isnan = np.isnan(col)
        i = 0
        while i < n:
            if not isnan[i]:
                i += 1
                continue
            start = i
            while i < n and isnan[i]:
                i += 1
            gap = i - start
            if start > 0 and i < n and gap <= MAX_INTERP_GAP:
                lo, hi = col[start - 1], col[i]
                col[start:i] = lo + (hi - lo) * np.arange(1, gap + 1) / (gap + 1)
    keep = ~np.isnan(data).any(axis=1)
    return data[keep], keep


def reference_load(path, schema):
    """(samples, high labels, low label tracks, dropped rows) read a field at
    a time; malformed input is not expected here."""
    rows, highs = [], []
    lows = {name: [] for name in (schema.low_label_columns or {})}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split(schema.delimiter)
            assert len(fields) >= schema.width
            toks = [fields[col].strip() for col in schema.channel_columns]
            rows.append([float(tok) if tok else np.nan for tok in toks])
            highs.append(fields[schema.high_label_column].strip())
            for name, col in (schema.low_label_columns or {}).items():
                lows[name].append(fields[col].strip())
    data, keep = reference_fill(np.array(rows))
    highs = [h for h, k in zip(highs, keep) if k]
    lows = {name: [v for v, k in zip(track, keep) if k] for name, track in lows.items()}
    return data, highs, lows, int((~keep).sum())


def assert_matches_reference(path, schema):
    """load_stream(path, schema), checked against reference_load."""
    data, highs, lows, dropped = reference_load(path, schema)
    loaded = load_stream(path, schema)
    assert loaded.stream.samples.tobytes() == data.tobytes()
    assert loaded.stream.samples.shape == data.shape
    assert loaded.high_labels == highs
    assert loaded.low_labels == lows
    assert loaded.dropped_rows == dropped
    return loaded


PARITY_SCHEMA = SchemaConfig(delimiter=",", channel_columns=(0, 1, 2),
                             high_label_column=3, low_label_columns={"motif": 4})
MISSING_TOKENS = ("", " ", "nan", "NaN", "NAN")


def messy_file(seed, crlf, final_newline):
    """Text of a sensor file with every layout the loader must accept: blank
    and whitespace-only lines, spaces around tokens, each missing token in
    short and long runs, extra trailing columns and low-label columns."""
    rng = np.random.default_rng(seed)
    n = 120
    values = rng.normal(0.0, 3.0, size=(n, 3))
    tokens = [[repr(float(v)) for v in row] for row in values]
    tokens[5][0], tokens[6][1], tokens[7][2] = "1_000", "-0.0", "1e-05"
    blanked = 0
    for _ in range(8):
        col = int(rng.integers(0, 3))
        length = int(rng.integers(1, 2 * MAX_INTERP_GAP))
        start = int(rng.integers(0, n - length + 1))
        for i in range(start, start + length):
            tokens[i][col] = MISSING_TOKENS[blanked % len(MISSING_TOKENS)]
            blanked += 1
    lines = []
    for i, row in enumerate(tokens):
        pad = [" " * int(rng.integers(0, 3)) for _ in range(4)]
        fields = [pad[0] + t + pad[1] for t in row]
        fields += [pad[2] + "AB"[i // 40 % 2], "m%d" % (i // 7) + pad[3]]
        fields += ["x"] * int(rng.integers(0, 3))
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append(" \t " if rng.random() < 0.5 else "")
    text = ("\r\n" if crlf else "\n").join(lines)
    return text + ("\r\n" if crlf else "\n") * final_newline


READ_AS_THEY_STAND = ("", "nan", "NaN", "NAN")  # float() reads these unstripped


def uniform_file(seed, crlf, final_newline, missing):
    """Text of a sensor file whose every line holds the same five fields:
    spaces around tokens, each token of `missing` in short and long runs,
    1_000 and -0.0, and no blank or whitespace-only line."""
    rng = np.random.default_rng(seed)
    n = 120
    values = rng.normal(0.0, 3.0, size=(n, 3))
    tokens = [[repr(float(v)) for v in row] for row in values]
    tokens[5][0], tokens[6][1], tokens[7][2] = "1_000", "-0.0", " 1_000 "
    for i in range(8):
        col = int(rng.integers(0, 3))
        length = int(rng.integers(1, 2 * MAX_INTERP_GAP))
        start = int(rng.integers(10, n - length + 1))
        for row in range(start, start + length):
            tokens[row][col] = missing[(i + row) % len(missing)]
    lines = []
    for i, row in enumerate(tokens):
        fields = [" " * int(rng.integers(0, 3)) + t + " " * int(rng.integers(0, 3))
                  for t in row]
        lines.append(",".join(fields + [" " + "AB"[i // 40 % 2], "m%d " % (i // 7)]))
    newline = "\r\n" if crlf else "\n"
    return newline.join(lines) + newline * final_newline


class TestParserParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("final_newline", [False, True])
    def test_matches_reference(self, tmp_path, seed, crlf, final_newline):
        path = tmp_path / "messy.csv"
        path.write_bytes(messy_file(seed, crlf, final_newline).encode("utf-8"))
        assert_matches_reference(path, PARITY_SCHEMA)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("final_newline", [False, True])
    @pytest.mark.parametrize("missing", [MISSING_TOKENS, READ_AS_THEY_STAND],
                             ids=["every-missing-form", "no-whitespace-only-token"])
    def test_uniform_file_matches_reference(self, tmp_path, seed, crlf, final_newline,
                                            missing):
        text = uniform_file(seed, crlf, final_newline, missing)
        path = tmp_path / "uniform.csv"
        path.write_bytes(text.encode("utf-8"))
        loaded = assert_matches_reference(path, PARITY_SCHEMA)
        # a blank line and a longer row change nothing: every file takes one split
        lines = text.split("\n")
        lines[3] = lines[3].rstrip("\r") + ",x,y" + "\r" * crlf
        lines.insert(60, " \t")
        path.write_bytes("\n".join(lines).encode("utf-8"))
        again = assert_matches_reference(path, PARITY_SCHEMA)
        assert again.stream.samples.tobytes() == loaded.stream.samples.tobytes()
        assert (again.high_labels, again.low_labels, again.dropped_rows) == \
            (loaded.high_labels, loaded.low_labels, loaded.dropped_rows)

    def test_tab_line_of_only_delimiters_is_skipped(self, tmp_path):
        schema = SchemaConfig(delimiter="\t", channel_columns=(0, 1, 2),
                              high_label_column=3, low_label_columns={"motif": 4})
        lines = uniform_file(0, False, True, READ_AS_THEY_STAND).replace(",", "\t").split("\n")
        lines.insert(50, "\t" * 4)  # as many delimiters as every other line
        path = tmp_path / "tabs.tsv"
        path.write_text("\n".join(lines))
        assert [len(column) for column in _columns(lines, "\t")] == [120] * 5
        loaded = assert_matches_reference(path, schema)
        assert len(loaded.high_labels) + loaded.dropped_rows == 120

    @pytest.mark.parametrize("seed", range(20))
    def test_fill_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(200, 3))
        for _ in range(12):
            col = rng.integers(0, 3)
            length = rng.integers(1, 3 * MAX_INTERP_GAP)
            start = rng.integers(0, 200 - length + 1)
            data[start:start + length, col] = np.nan
        expected, expected_keep = reference_fill(data)
        out, keep, dropped = _fill_missing(data.copy())
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(keep, expected_keep)
        assert dropped == int((~expected_keep).sum())


GOOD_LINE = "1.0,2.0,A"
BAD_LINES = {"bad token": ("1.0,oops,A", "bad numeric value 'oops' in column 1"),
             "short row": ("1.0,2.0", "expected >= 3 fields, got 2"),
             "inf": ("1.0, -inf ,A", "non-finite value '-inf' in column 1"),
             "overflow": ("1e500,2.0,A", "non-finite value '1e500' in column 0")}
PLACES = {"first": ([], [GOOD_LINE] * 4, 1),
          "middle": ([GOOD_LINE] * 2, [GOOD_LINE] * 2, 3),
          "last": ([GOOD_LINE] * 4, [], 5),
          "after blanks": ([GOOD_LINE, "", "  ", "\t"], [GOOD_LINE], 5)}


class TestParseErrorLine:
    @pytest.mark.parametrize("kind", BAD_LINES)
    @pytest.mark.parametrize("place", PLACES)
    def test_names_line(self, tmp_path, kind, place):
        bad, message = BAD_LINES[kind]
        before, after, line_no = PLACES[place]
        path = write(tmp_path, "\n".join(before + [bad] + after) + "\n")
        with pytest.raises(DataError) as exc:
            load_stream(path, SCHEMA)
        assert str(exc.value) == f"{path}:{line_no}: {message}"

    def test_first_bad_line_wins(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n1.0,inf,A\n1.0\n")
        with pytest.raises(DataError) as exc:
            load_stream(path, SCHEMA)
        assert str(exc.value) == f"{path}:2: non-finite value 'inf' in column 1"

    def test_nan_is_missing_not_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,0,A\n-NaN,0,A\n3.0,0,A\n")
        assert load_stream(path, SCHEMA).stream.samples[1, 0] == 2.0


@pytest.mark.parametrize("error", [
    DataError("data.csv: not UTF-8 text"),
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickle(error):
    # a loader worker process sends its error back pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    assert vars(back) == vars(error)


class TestContiguousSamples:
    @pytest.mark.parametrize("text", ["1.0,2.0,A\n3.0,4.0,A\n5.0,6.0,B\n",
                                      "1.0,2.0,A\n,4.0,A\n5.0,6.0,B\n,1.0,B\n"],
                             ids=["clean", "gappy"])
    def test_c_contiguous_float64(self, tmp_path, text):
        # training hands the samples to code that needs C order
        samples = load_stream(write(tmp_path, text), SCHEMA).stream.samples
        assert samples.flags.c_contiguous and samples.dtype == np.float64


class TestFillMissing:
    def test_gap_of_eight_interpolated_bit_exact(self):
        col = np.array([1.0] + [np.nan] * 8 + [10.3])
        out, keep, dropped = _fill_missing(np.column_stack([col, np.zeros(10)]))
        expected = 1.0 + (10.3 - 1.0) * np.arange(1, 9) / 9
        assert out[1:9, 0].tobytes() == expected.tobytes()
        assert keep.all() and dropped == 0

    def test_gap_of_nine_dropped(self):
        col = np.array([1.0] + [np.nan] * 9 + [11.0])
        out, keep, dropped = _fill_missing(np.column_stack([col, np.zeros(11)]))
        assert dropped == 9 and out[:, 0].tolist() == [1.0, 11.0]
        assert keep.tolist() == [True] + [False] * 9 + [True]

    def test_edge_gaps_dropped(self):
        col = np.array([np.nan, np.nan, 1.0, 2.0, np.nan])
        out, keep, dropped = _fill_missing(np.column_stack([col, np.zeros(5)]))
        assert keep.tolist() == [False, False, True, True, False]
        assert dropped == 3 and out[:, 0].tolist() == [1.0, 2.0]

    def test_overlapping_gaps_in_two_channels(self):
        data = np.column_stack([np.arange(8.0), 10 * np.arange(8.0)])
        data[2:5, 0] = np.nan
        data[3:6, 1] = np.nan
        out, keep, dropped = _fill_missing(data.copy())
        assert keep.all() and dropped == 0
        np.testing.assert_allclose(out, np.column_stack([np.arange(8.0), 10 * np.arange(8.0)]))
        expected, _ = reference_fill(data)
        assert out.tobytes() == expected.tobytes()


LABELS = ("A", "B")


def samples_of(n, q=1):
    return np.arange(float(n * q)).reshape(n, q)


class TestSegmentByHighLabel:
    def test_run_length_split(self):
        segs, discarded = segment_by_high_label(
            samples_of(6), ["A", "A", "null", "B", "B", "B"], LABELS, "null")
        assert [len(s.data) for s in segs] == [2, 3]
        assert [s.high_label for s in segs] == [0, 1]
        assert discarded == 1

    def test_all_null(self):
        segs, discarded = segment_by_high_label(
            samples_of(3), ["null"] * 3, LABELS, "null")
        assert segs == [] and discarded == 1

    def test_unknown_label_discarded(self):
        segs, discarded = segment_by_high_label(
            samples_of(4), ["A", "relax", "relax", "A"], LABELS, "null")
        assert [len(s.data) for s in segs] == [1, 1]
        assert discarded == 1

    def test_kept_plus_discarded_cover_input(self):
        labels = ["A", "A", "x", "B", "null", "null", "B", "B"]
        segs, discarded = segment_by_high_label(samples_of(8), labels, LABELS, "null")
        kept = sum(len(s.data) for s in segs)
        assert kept == 5 and discarded == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segment_by_high_label(samples_of(3), ["A"], LABELS, "null")

    def test_single_row_runs(self):
        segs, discarded = segment_by_high_label(
            samples_of(4), ["A", "B", "A", "A"], LABELS, "null")
        assert [(s.high_label, len(s.data)) for s in segs] == [(0, 1), (1, 1), (0, 2)]
        assert [s.source for s in segs] == ["[0:1]", "[1:2]", "[2:4]"]
        assert discarded == 0

    def test_file_is_one_run(self):
        data = samples_of(5, q=2)
        segs, discarded = segment_by_high_label(data, ["B"] * 5, LABELS, "null",
                                                source="f.csv")
        assert len(segs) == 1 and discarded == 0
        assert segs[0].source == "f.csv[0:5]" and segs[0].high_label == 1
        np.testing.assert_array_equal(segs[0].data, data)

    def test_low_tracks_sliced(self):
        segs, _ = segment_by_high_label(
            samples_of(4), ["A", "A", "B", "B"], LABELS, "null",
            low_labels={"m": ["w", "x", "y", "z"]})
        assert segs[0].low_label_tracks["m"] == ["w", "x"]
        assert segs[1].low_label_tracks["m"] == ["y", "z"]


class TestAtomicWrite:
    def test_bytes_round_trip(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"\x00\xffabc\n")
        assert path.read_bytes() == b"\x00\xffabc\n"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(path, "caf\u00e9\nline 2\n")
        assert path.read_bytes() == "caf\u00e9\nline 2\n".encode("utf-8")
        (tmp_path / "plain.txt").write_text("x")
        assert os.stat(path).st_mode == os.stat(tmp_path / "plain.txt").st_mode

    def test_str_iterable_same_bytes_as_joined(self, tmp_path):
        parts = ["caf\u00e9,", "a\r\n", "", "x" * 20_000, "\u00fc\n"]
        path = tmp_path / "out.txt"
        atomic_write(path, (p for p in parts))
        assert path.read_bytes() == "".join(parts).encode("utf-8")
        (tmp_path / "plain.txt").write_text("x")
        assert os.stat(path).st_mode == os.stat(tmp_path / "plain.txt").st_mode

    def test_failing_iterable_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def chunks():
            yield "new"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write(path, chunks())
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write(path, "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]


def segment_of(n, q=2, **kw):
    return LabeledSegment(samples_of(n, q), 0, "u1", **kw)


class TestMakeFixedLengthSamples:
    def test_exact_length_single_crop(self):
        out = make_fixed_length_samples(segment_of(2560), 2560, 1280)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].data, segment_of(2560).data)  # no padding

    def test_strided_crops(self):
        out = make_fixed_length_samples(segment_of(5120), 2560, 1280)
        assert len(out) == 3
        src = segment_of(5120)
        for i, offset in enumerate((0, 1280, 2560)):
            np.testing.assert_array_equal(
                out[i].data, src.data[offset:offset + 2560])

    def test_offset_set_property(self):
        n, n_target, stride = 700, 128, 100
        out = make_fixed_length_samples(segment_of(n), n_target, stride)
        expected = [k * stride for k in range(n) if k * stride + n_target <= n]
        assert len(out) == len(expected)

    def test_short_segment_padded(self):
        out = make_fixed_length_samples(segment_of(100), 2560, 1280)
        assert len(out) == 1 and len(out[0].data) == 2560
        np.testing.assert_array_equal(
            out[0].data[:2460], np.tile(segment_of(100).data[0], (2460, 1)))
        np.testing.assert_array_equal(out[0].data[2460:], segment_of(100).data)

    def test_crops_carry_no_low_tracks(self):
        seg = segment_of(12, low_label_tracks={"m": list("abcdefghijkl")})
        for n_target in (5, 20):  # strided crops, then one padded crop
            out = make_fixed_length_samples(seg, n_target, 5)
            assert out and all(crop.low_label_tracks is None for crop in out)
        assert seg.low_label_tracks["m"] == list("abcdefghijkl")

    def test_every_sample_has_target_length(self):
        for n in (10, 128, 301):
            for seg in make_fixed_length_samples(segment_of(n), 128, 64):
                assert len(seg.data) == 128

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_fixed_length_samples(segment_of(10), 0, 1)


class TestLosoSplit:
    def make_dataset(self):
        return [LabeledSegment(samples_of(4), 0, u)
                for u in ("1", "2", "3", "4", "2", "3")]

    def test_holds_out_one_user(self):
        data = self.make_dataset()
        train, val = loso_split(data, "2")
        assert {s.user_id for s in train} == {"1", "3", "4"}
        assert all(s.user_id == "2" for s in val)

    def test_partition(self):
        data = self.make_dataset()
        train, val = loso_split(data, "3")
        assert len(train) + len(val) == len(data)
        assert not set(map(id, train)) & set(map(id, val))

    def test_single_user_empty_train(self):
        data = [LabeledSegment(samples_of(4), 0, "1")]
        train, val = loso_split(data, "1")
        assert train == [] and len(val) == 1

    def test_unknown_user_lists_available(self):
        with pytest.raises(DataError, match=r"^unknown user '9'; available users: \['1', '2'"):
            loso_split(self.make_dataset(), "9")


class TestTypes:
    def test_stream_invariants(self):
        with pytest.raises(ValueError):
            SensorStream(np.zeros((0, 3)))

    def test_low_track_length_checked(self):
        with pytest.raises(ValueError):
            LabeledSegment(samples_of(3), 0, "u", low_label_tracks={"m": ["a"]})

    def test_schema_distinct_columns(self):
        with pytest.raises(ValueError):
            SchemaConfig(delimiter=",", channel_columns=(0, 1), high_label_column=1)


@dataclass
class Rules:
    count: Annotated[int, "[1, inf)"] = 1
    scale: float = 0.0

    def __post_init__(self):
        check_fields(self)


class TestCheckFields:
    @pytest.mark.parametrize("field, value", [
        ("count", np.int64(3)), ("count", 10 ** 30), ("scale", 2), ("scale", -1.5)])
    def test_accepts(self, field, value):
        assert getattr(Rules(**{field: value}), field) == value

    @pytest.mark.parametrize("field, value", [
        ("count", True), ("count", 16.0), ("count", 0), ("count", "3"),
        ("scale", float("nan")), ("scale", float("inf")), ("scale", False)])
    def test_rejects_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Rules(**{field: value})

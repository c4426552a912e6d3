import os

import numpy as np
import pytest

from charm.dataset import (ActivityLabelSet, EmptyInputError, LabeledSegment,
                           ParseError, SchemaConfig, SensorStream,
                           UnknownUserError, atomic_write, load_stream,
                           loso_split, make_fixed_length_samples,
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
        assert loaded.stream.n == 3 and loaded.stream.q == 2
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
        with pytest.raises(EmptyInputError):
            load_stream(path, SCHEMA)

    def test_malformed_row_raises_with_line(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n1.0,oops,A\n")
        with pytest.raises(ParseError, match="2"):
            load_stream(path, SCHEMA)

    def test_short_row_raises(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n1.0\n")
        with pytest.raises(ParseError):
            load_stream(path, SCHEMA)

    def test_low_label_tracks(self, tmp_path):
        schema = SchemaConfig(delimiter=",", channel_columns=(0,),
                              high_label_column=1,
                              low_label_columns={"motion": 2})
        loaded = load_stream(write(tmp_path, "1.0,A,walk\n2.0,A,sit\n"), schema)
        assert loaded.low_labels["motion"] == ["walk", "sit"]


LABELS = ActivityLabelSet(("A", "B"))


def stream_of(n, q=1):
    return SensorStream(np.arange(float(n * q)).reshape(n, q))


class TestSegmentByHighLabel:
    def test_run_length_split(self):
        segs, discarded = segment_by_high_label(
            stream_of(6), ["A", "A", "null", "B", "B", "B"], LABELS, "null")
        assert [s.stream.n for s in segs] == [2, 3]
        assert [s.high_label for s in segs] == [0, 1]
        assert discarded == 1

    def test_all_null(self):
        segs, discarded = segment_by_high_label(
            stream_of(3), ["null"] * 3, LABELS, "null")
        assert segs == [] and discarded == 1

    def test_unknown_label_discarded(self):
        segs, discarded = segment_by_high_label(
            stream_of(4), ["A", "relax", "relax", "A"], LABELS, "null")
        assert [s.stream.n for s in segs] == [1, 1]
        assert discarded == 1

    def test_kept_plus_discarded_cover_input(self):
        labels = ["A", "A", "x", "B", "null", "null", "B", "B"]
        segs, discarded = segment_by_high_label(stream_of(8), labels, LABELS, "null")
        kept = sum(s.stream.n for s in segs)
        assert kept == 5 and discarded == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            segment_by_high_label(stream_of(3), ["A"], LABELS, "null")

    def test_low_tracks_sliced(self):
        segs, _ = segment_by_high_label(
            stream_of(4), ["A", "A", "B", "B"], LABELS, "null",
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
    return LabeledSegment(SensorStream(np.arange(float(n * q)).reshape(n, q)),
                          0, "u1", **kw)


class TestMakeFixedLengthSamples:
    def test_exact_length_single_crop(self):
        out = make_fixed_length_samples(segment_of(2560), 2560, 1280)
        assert len(out) == 1 and out[0].stream.n == 2560
        assert not out[0].padded

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
        assert len(out) == 1 and out[0].padded
        assert out[0].stream.n == 2560
        np.testing.assert_array_equal(
            out[0].data[:2460], np.tile(segment_of(100).data[0], (2460, 1)))
        np.testing.assert_array_equal(out[0].data[2460:], segment_of(100).data)

    def test_padding_extends_low_tracks(self):
        seg = segment_of(3, low_label_tracks={"m": ["a", "b", "c"]})
        out = make_fixed_length_samples(seg, 5, 5)
        assert out[0].low_label_tracks["m"] == ["a", "a", "a", "b", "c"]

    def test_every_sample_has_target_length(self):
        for n in (10, 128, 301):
            for seg in make_fixed_length_samples(segment_of(n), 128, 64):
                assert seg.stream.n == 128

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_fixed_length_samples(segment_of(10), 0, 1)


class TestLosoSplit:
    def make_dataset(self):
        return [LabeledSegment(stream_of(4), 0, u)
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
        data = [LabeledSegment(stream_of(4), 0, "1")]
        train, val = loso_split(data, "1")
        assert train == [] and len(val) == 1

    def test_unknown_user_lists_available(self):
        with pytest.raises(UnknownUserError, match="'1'"):
            loso_split(self.make_dataset(), "9")


class TestTypes:
    def test_label_set_needs_two_unique(self):
        with pytest.raises(ValueError):
            ActivityLabelSet(("A",))
        with pytest.raises(ValueError):
            ActivityLabelSet(("A", "A"))

    def test_stream_invariants(self):
        with pytest.raises(ValueError):
            SensorStream(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            SensorStream(np.zeros((3, 2)), sample_rate_hz=0.0)

    def test_low_track_length_checked(self):
        with pytest.raises(ValueError):
            LabeledSegment(stream_of(3), 0, "u", low_label_tracks={"m": ["a"]})

    def test_schema_distinct_columns(self):
        with pytest.raises(ValueError):
            SchemaConfig(delimiter=",", channel_columns=(0, 1), high_label_column=1)

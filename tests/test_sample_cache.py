"""samples.cache, the checked sample cache `gen-synth` writes beside its
files: a load that reads it equals, field by field, the parse of the same
files, and a cache that does not match the files is ignored, never trusted."""

import json
import os
import shutil

import numpy as np
import pytest

from charm import dataset as ds
from charm import synth
from charm.cli import main
from charm.dataset import DataError, load_data_dir
from charm.synth import SynthSegment, default_config, write_dataset
from conftest import assert_cache_parity, channel_0_emptied, field_on_line_3, synth_named


def parsed(monkeypatch, data_dir, **kwargs):
    """load_data_dir(data_dir) with every file parsed."""
    with monkeypatch.context() as m:
        m.setattr(ds, "_read_cache", lambda *args: ())
        return load_data_dir(data_dir, **kwargs)


def assert_same_load(a, b):
    (segs_a, *rest_a), (segs_b, *rest_b) = a, b
    assert rest_a == rest_b and len(segs_a) == len(segs_b)
    for x, y in zip(segs_a, segs_b):
        assert x.data.tobytes() == y.data.tobytes() and x.data.dtype == y.data.dtype
        assert (x.high_label, x.user_id, x.source, x.low_label_tracks) == \
            (y.high_label, y.user_id, y.source, y.low_label_tracks)


def cached_files(data_dir):
    files, _, schema = ds.read_manifest(data_dir)
    return {files[i]["file"] for i, _ in ds._read_cache(data_dir, files, schema)}


@pytest.fixture
def data(workspace, tmp_path):
    """A copy of the workspace dataset, its cache included."""
    return shutil.copytree(workspace["data"], tmp_path / "data")


def manifest_files(data_dir):
    return [e["file"] for e in json.loads((data_dir / "manifest.json").read_text())["files"]]


class TestCachedLoadIsTheParse:
    def test_workspace(self, data, monkeypatch):
        assert_cache_parity(data)
        assert_same_load(load_data_dir(data), parsed(monkeypatch, data))
        assert_same_load(load_data_dir(data, user="u4"), parsed(monkeypatch, data, user="u4"))

    def test_non_ascii_names_and_one_channel(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": synth_named(classes=("café", "naïve ü"),
                                                        motif="ñandú")}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["gen-synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert_cache_parity(out)
        loaded = load_data_dir(out)
        assert loaded[1] == ("café", "naïve ü") and loaded[0][0].data.shape[1] == 1
        assert_same_load(loaded, parsed(monkeypatch, out))

    def test_signed_zero_subnormal_and_huge_values(self, tmp_path, monkeypatch):
        cfg = default_config()
        values = [-0.0, 5e-324, 1e-310, 1e300, -1e300, 0.1]
        data = np.array([values, values[::-1], [-0.0] * 6, [2.5] * 6])
        write_dataset([SynthSegment("u1", "routine", data, ["swing", "reach", "swing", "tap"],
                                    0)], cfg, tmp_path)
        assert_cache_parity(tmp_path)
        loaded = load_data_dir(tmp_path)
        assert loaded[0][0].data.tobytes() == data.tobytes()
        assert_same_load(loaded, parsed(monkeypatch, tmp_path))


class TestNoCacheWritten:
    @staticmethod
    def write_with(tmp_path, value):
        data = np.full((12, 6), 0.5)
        data[5, 0] = value
        write_dataset([SynthSegment("u1", "routine", data, ["swing"] * 12, 0)],
                      default_config(), tmp_path)
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "uu1_routine_000.csv"]

    def test_for_nan_which_the_load_repairs(self, tmp_path):
        self.write_with(tmp_path, float("nan"))
        [seg], _, _ = load_data_dir(tmp_path)
        assert np.array_equal(seg.data, np.full((12, 6), 0.5))

    def test_for_inf_which_the_load_refuses(self, tmp_path):
        self.write_with(tmp_path, float("inf"))
        with pytest.raises(DataError, match=r"uu1_routine_000.csv:6: non-finite value "
                                            r"'inf' in column 0"):
            load_data_dir(tmp_path)

    def test_for_more_labels_than_codes(self, workspace, tmp_path, monkeypatch):
        # 4 classes and 8 motifs: 12 labels
        monkeypatch.setattr(synth, "CACHE_LABELS", 11)
        out = tmp_path / "out"
        assert main(["gen-synth", "--config", workspace["config"], "--out", str(out),
                     "--quiet"]) == 0
        assert not (out / ds.CACHE_FILE).exists()
        monkeypatch.setattr(synth, "CACHE_LABELS", 12)
        assert main(["gen-synth", "--config", workspace["config"], "--out", str(out),
                     "--quiet"]) == 0
        assert_cache_parity(out)


class TestEditedFilesAreParsed:
    """An edited data file is parsed, with the result and message its parse
    gives; its siblings still come from the cache."""

    def test_bad_token_refused_as_without_cache(self, data, monkeypatch):
        first = manifest_files(data)[0]
        (data / first).write_bytes(field_on_line_3(b"oops")((data / first).read_bytes()))
        with pytest.raises(DataError) as without:
            parsed(monkeypatch, data)
        with pytest.raises(DataError) as cached:
            load_data_dir(data)
        assert str(cached.value) == str(without.value) == \
            f"{data / first}:3: bad numeric value 'oops' in column 1"

    def test_repaired_rows_load_as_without_cache(self, data, monkeypatch):
        first, *others = manifest_files(data)
        (data / first).write_bytes(channel_0_emptied(2, 5)((data / first).read_bytes()))
        assert cached_files(data) == set(others)
        seen = []
        load_stream = ds.load_stream
        monkeypatch.setattr(ds, "load_stream", lambda path, schema: (
            seen.append(os.path.basename(path)), load_stream(path, schema))[1])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},  # the parse runs here
                            raising=False)
        loaded = load_data_dir(data)
        assert seen == [first]
        assert_same_load(loaded, parsed(monkeypatch, data))

    def test_file_the_cache_lacks(self, data, monkeypatch):
        first, *others = manifest_files(data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["files"].append({**manifest["files"][0], "file": "again.csv"})
        (data / "manifest.json").write_text(json.dumps(manifest))
        shutil.copyfile(data / first, data / "again.csv")
        assert cached_files(data) == {first, *others}
        assert_same_load(load_data_dir(data), parsed(monkeypatch, data))


def rewrite_header(edit):
    """An edit of a cache's bytes that applies edit(header) to its parsed header
    and writes the magic line the new header needs."""
    def apply(blob):
        magic, header, body = blob.split(b"\n", 2)
        header = json.loads(header)
        edit(header)
        header = json.dumps(header).encode("ascii") + b"\n"
        return ds._magic_line(header) + header + body
    return apply


def flip_byte(at):
    """An edit of a cache's bytes that flips the bits of the byte at `at`
    (negative from the end)."""
    def apply(blob):
        blob = bytearray(blob)
        blob[at] ^= 0xFF
        return bytes(blob)
    return apply


def _version_2(header):
    header["version"] = 2


def _other_null_token(header):
    header["schema"]["null_label_token"] = "none"


# (id, edit of the cache's bytes, None to replace it with a directory, and
# whether every file but the last, or none, still loads from it)
BAD_CACHES = [
    ("empty", lambda blob: b"", "none"),
    ("not-a-cache", lambda blob: b"hello\n" + blob, "none"),
    ("header-byte-flipped", flip_byte(100), "none"),
    ("magic-byte-flipped", flip_byte(0), "none"),
    ("labels-swapped", lambda blob: blob.replace(b'"swing", "reach"', b'"reach", "swing"', 1),
     "none"),
    ("header-only", lambda blob: b"\n".join(blob.split(b"\n", 2)[:2]) + b"\n", "none"),
    ("other-version", rewrite_header(_version_2), "none"),
    ("other-schema", rewrite_header(_other_null_token), "none"),
    ("not-json", lambda blob: ds._magic_line(b"{\n") + b"{\n", "none"),
    ("a-directory", None, "none"),
    ("truncated", lambda blob: blob[:-100], "all-but-last"),
    ("last-block-byte-flipped", flip_byte(-1), "all-but-last"),
]


@pytest.mark.parametrize("edit, kept", [case[1:] for case in BAD_CACHES],
                         ids=[case[0] for case in BAD_CACHES])
def test_bad_cache_loads_as_no_cache(data, monkeypatch, edit, kept):
    path = data / ds.CACHE_FILE
    if edit is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(edit(path.read_bytes()))
    *others, last = manifest_files(data)
    assert cached_files(data) == (set(others) if kept == "all-but-last" else set())
    assert_same_load(load_data_dir(data), parsed(monkeypatch, data))


def test_without_preadv_every_file_is_parsed(data, monkeypatch):
    monkeypatch.delattr(os, "preadv")
    assert cached_files(data) == set()
    assert len(load_data_dir(data)[0]) == 4 * 4 * 2


def test_one_read_per_file_of_the_user(data, monkeypatch):
    reads = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: (
        reads.append(sum(b.nbytes for b in buffers)), preadv(fd, buffers, offset))[1])
    segments, _, schema = load_data_dir(data, user="u4")
    row_bytes = 8 * len(schema.channel_columns) + 2 * 2  # the high and the motif codes
    assert len(reads) == 4 * 2  # u4's 2 files of each of 4 classes
    assert sum(reads) == row_bytes * sum(len(seg.data) for seg in segments)

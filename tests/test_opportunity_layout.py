"""README's OPPORTUNITY promise, rehearsed on a rewritten `gen-synth` output.

The recordings themselves are not shipped, so a small synthetic dataset is
rewritten in their layout: space-delimited rows led by a millisecond time
column, the channels at non-leading columns, `NaN` in every unused column,
both label tracks as integer codes with `0` as the null token, and a
manifest whose schema points at those columns. The schema-driven loader
must read it as it reads the CSV original.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from charm.cli import main
from charm.dataset import load_data_dir

CHANNEL_COLUMNS = [2, 3, 4, 6, 7, 8]
MOTIF_COLUMN, HIGH_COLUMN, WIDTH = 10, 12, 13
NULL_ROWS = 2  # rows labeled 0 on both tracks, ahead of each file's labeled rows
GAP_ROWS = range(10, 13)  # a 3-row NaN gap, well inside MAX_INTERP_GAP


def _rewrite(src, dst, gaps=False):
    """Writes src's gen-synth dataset into dst in the OPPORTUNITY layout. With
    gaps, file i loses channel i % q at GAP_ROWS of its labeled rows. Returns
    the class name → code map."""
    manifest = json.loads((src / "manifest.json").read_text())
    codes = {name: str(101 + i) for i, name in enumerate(manifest["classes"])}
    motif_codes = {}
    dst.mkdir()
    for i, entry in enumerate(manifest["files"]):
        rows = [line.split(",") for line in (src / entry["file"]).read_text().splitlines()]
        rows = [[*rows[0][:6], "0", "0"]] * NULL_ROWS + [
            [*row[:6], codes[row[6]], motif_codes.setdefault(row[7], str(len(motif_codes) + 1))]
            for row in rows]
        lines = []
        for t, (*channels, high, motif) in enumerate(rows):
            if gaps and t - NULL_ROWS in GAP_ROWS:
                channels[i % 6] = "NaN"
            line = ["NaN"] * WIDTH
            line[0], line[MOTIF_COLUMN], line[HIGH_COLUMN] = str(t * 33), motif, high
            for column, value in zip(CHANNEL_COLUMNS, channels):
                line[column] = value
            lines.append(" ".join(line) + "\n")
        entry["file"] = entry["file"].replace(".csv", ".dat")
        (dst / entry["file"]).write_text("".join(lines))
    manifest["classes"] = [codes[name] for name in manifest["classes"]]
    manifest["schema"] = {"delimiter": " ", "channel_columns": CHANNEL_COLUMNS,
                          "high_label_column": HIGH_COLUMN,
                          "low_label_columns": {"motif": MOTIF_COLUMN},
                          "null_label_token": "0"}
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return codes


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("opportunity")
    config = root / "config.json"
    config.write_text(json.dumps({"synth": {"samples_per_class_per_user": 2}}))
    assert main(["gen-synth", "--config", str(config), "--out", str(root / "csv"),
                 "--quiet"]) == 0
    codes = _rewrite(root / "csv", root / "opportunity")
    _rewrite(root / "csv", root / "gappy", gaps=True)
    return root, codes


def _features(data, out):
    assert main(["features", "--data", str(data), "--out", str(out), "--quiet"]) == 0
    with open(out, newline="") as fh:
        return list(csv.reader(fh))


def test_features_equal_the_csv_originals(datasets):
    root, codes = datasets
    header, *original = _features(root / "csv", root / "csv.features")
    header_opp, *rewritten = _features(root / "opportunity", root / "opportunity.features")
    assert header_opp == header and len(rewritten) == len(original) == 32
    for row, row_opp in zip(original, rewritten):
        assert row_opp[1] == codes[row[1]]
        assert row_opp[2:] == row[2:]


def test_short_nan_gaps_interpolated_and_no_row_dropped(datasets):
    root, _ = datasets
    clean, classes, schema = load_data_dir(str(root / "opportunity"))
    gappy, classes_gappy, schema_gappy = load_data_dir(str(root / "gappy"))
    assert (classes_gappy, schema_gappy) == (classes, schema)
    assert len(gappy) == len(clean) == 32
    gap = list(GAP_ROWS)
    for i, (a, b) in enumerate(zip(clean, gappy)):
        assert b.data.shape == a.data.shape and np.isfinite(b.data).all()
        assert b.source == a.source and b.low_label_tracks == a.low_label_tracks
        channel = i % 6
        outside = np.ones(a.data.shape, dtype=bool)
        outside[gap, channel] = False
        assert np.array_equal(b.data[outside], a.data[outside])
        lo, hi = gap[0] - 1, gap[-1] + 1
        expected = np.interp(gap, [lo, hi], a.data[[lo, hi], channel])
        np.testing.assert_allclose(b.data[gap, channel], expected, rtol=1e-12, atol=0)

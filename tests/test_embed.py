import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from charm import embed, synth
from charm.dataset import DataError, LabeledSegment
from charm.embed import (SILHOUETTE_BLOCK, EmbeddingPoint, embed_segments, export_embedding,
                         label_pure_windows, pca_fit, pca_transform, silhouette_score)
from charm.model import CharmConfig, CharmModel
from charm.neurocore import make_rng
from charm.preprocess import fit_normalizer, normalize


class TestPcaFit:
    def test_line_closed_form(self):
        t = np.linspace(-3, 3, 40)
        X = np.column_stack([t, 2 * t])
        model = pca_fit(X, 2)
        np.testing.assert_allclose(model.components[0],
                                   np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-12)
        assert pca_transform(model, X)[:, 1].var(ddof=1) == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_reconstruction(self):
        X = make_rng(0).normal(size=(30, 5))
        model = pca_fit(X, 5)
        back = pca_transform(model, X) @ model.components + model.mean
        np.testing.assert_allclose(back, X, atol=1e-9)

    def test_rotation_invariant_variances(self):
        rng = make_rng(1)
        X = rng.normal(size=(100, 3)) * np.array([3.0, 1.5, 0.5])
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta), 0],
                      [np.sin(theta), np.cos(theta), 0],
                      [0, 0, 1.0]])
        a = pca_transform(pca_fit(X, 3), X).var(axis=0, ddof=1)
        b = pca_transform(pca_fit(X @ R.T, 3), X @ R.T).var(axis=0, ddof=1)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_components_orthonormal_sorted(self):
        X = make_rng(2).normal(size=(50, 6))
        model = pca_fit(X, 4)
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(4), atol=1e-9)
        assert np.all(np.diff(pca_transform(model, X).var(axis=0, ddof=1)) <= 1e-12)

    def test_sign_convention(self):
        X = make_rng(3).normal(size=(40, 4))
        for row in pca_fit(X, 3).components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_degenerate_identical_rows(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((10, 3)), 2)


class TestPcaTransform:
    def test_mean_maps_to_origin(self):
        X = make_rng(5).normal(size=(20, 4))
        model = pca_fit(X, 2)
        np.testing.assert_allclose(pca_transform(model, model.mean[None]), 0.0, atol=1e-12)

    def test_transformed_variance_matches(self):
        X = make_rng(6).normal(size=(80, 5))
        model = pca_fit(X, 3)
        T = pca_transform(model, X)
        top = np.linalg.eigvalsh(np.cov(X, rowvar=False))[::-1][:3]
        np.testing.assert_allclose(T.var(axis=0, ddof=1), top, atol=1e-9)
        np.testing.assert_allclose(T.mean(axis=0), 0.0, atol=1e-9)

    def test_unit_step_along_component(self):
        X = make_rng(7).normal(size=(25, 4))
        model = pca_fit(X, 2)
        coords = pca_transform(model, (model.mean + model.components[0])[None])
        np.testing.assert_allclose(coords, [[1.0, 0.0]], atol=1e-9)


def reference_silhouette(points, labels):
    """The [N, N] distance-matrix silhouette the row-block one replaced."""
    X = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    scores = np.zeros(X.shape[0])
    members = {lab: np.nonzero(labels == lab)[0] for lab in uniq}
    for i in range(X.shape[0]):
        own = members[labels[i]]
        if own.size <= 1:
            continue
        a = dist[i, own].sum() / (own.size - 1)
        b = min(dist[i, members[lab]].mean() for lab in uniq if lab != labels[i])
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())


class TestSilhouette:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_distance_matrix_reference(self, seed):
        # sizes across several SILHOUETTE_BLOCK-row block edges, 2-8 labels, a forced singleton
        # cluster and duplicated points
        rng = make_rng(100 + seed)
        n = int(rng.integers(3, 200))
        k = 2 + seed % 7
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        labels = rng.integers(0, k, size=n).astype(str)
        labels[0] = "single"
        X[1::7] = X[2]
        X[-1] = X[0]
        ref = reference_silhouette(X, labels)
        assert abs(silhouette_score(X, labels) - ref) < 1e-12

    @pytest.mark.parametrize("n", [15, 16, 17, 32, 33, 63, 64, 65, 128, 129])
    def test_block_edges_match_reference(self, n):
        # each block adds its distances to the later rows' sums; a label held
        # only by the last block's rows has no earlier block to take them from
        rng = make_rng(200 + n)
        X = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n).astype(str)
        last = (n - 1) // SILHOUETTE_BLOCK * SILHOUETTE_BLOCK
        labels[max(last, n - 3):] = "tail"
        X[-1] = X[-2]
        ref = reference_silhouette(X, labels)
        assert abs(silhouette_score(X, labels) - ref) < 1e-12

    def test_large_n_memory_bounded(self, monkeypatch):
        # the [N, N] form needs several GiB here; every point is scored
        n = 20_000
        monkeypatch.setattr(embed, "SILHOUETTE_SAMPLE", n)
        rng = make_rng(11)
        X = rng.normal(size=(n, 2))
        labels = rng.integers(0, 4, size=n)
        tracemalloc.start()
        try:
            score = silhouette_score(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert -1.0 <= score <= 1.0

    @pytest.mark.parametrize("n", [51, 52, 173])
    def test_more_points_than_the_sample_score_the_sample(self, monkeypatch, n):
        monkeypatch.setattr(embed, "SILHOUETTE_SAMPLE", 50)
        rng = make_rng(300 + n)
        X = rng.normal(size=(n, 2))
        labels = rng.integers(0, 4, size=n).astype(str)
        at = np.linspace(0, n - 1, 50, dtype=int)
        assert silhouette_score(X, labels) == silhouette_score(X[at], labels[at])
        assert abs(silhouette_score(X, labels) - reference_silhouette(X[at], labels[at])) < 1e-12

    def test_sample_of_one_label_rejected(self, monkeypatch):
        # every other point is "b": the points at 0, 4 and 8 are all "a"
        monkeypatch.setattr(embed, "SILHOUETTE_SAMPLE", 3)
        labels = ["a", "b"] * 4 + ["a"]
        with pytest.raises(ValueError, match="2 distinct labels"):
            silhouette_score(make_rng(12).normal(size=(9, 2)), labels)

    def test_well_separated_clusters(self):
        rng = make_rng(9)
        a = rng.normal(scale=0.05, size=(30, 2))
        b = rng.normal(scale=0.05, size=(30, 2)) + 100.0
        score = silhouette_score(np.vstack([a, b]), ["a"] * 30 + ["b"] * 30)
        assert score > 0.9

    def test_random_labels_near_zero(self):
        scores = []
        for seed in range(5):
            rng = make_rng(seed)
            X = rng.normal(size=(60, 2))
            labels = rng.integers(0, 2, size=60)
            scores.append(silhouette_score(X, labels))
        assert abs(np.mean(scores)) < 0.1

    def test_identical_points_defined_zero(self):
        X = np.zeros((6, 2))
        assert silhouette_score(X, ["a", "a", "a", "b", "b", "b"]) == 0.0

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((5, 2)), ["a"] * 5)

    def test_rigid_motion_invariant(self):
        rng = make_rng(10)
        X = rng.normal(size=(40, 2))
        labels = rng.integers(0, 3, size=40)
        theta = 1.1
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        moved = X @ R.T + np.array([5.0, -3.0])
        assert silhouette_score(moved, labels) == pytest.approx(
            silhouette_score(X, labels), abs=1e-9)

    def test_singleton_cluster_contributes_zero(self):
        X = np.array([[0.0, 0], [0.1, 0], [50.0, 0]])
        score = silhouette_score(X, ["a", "a", "b"])
        # the two 'a' points dominate; singleton 'b' adds 0
        assert 0.6 < score < 0.67


class TestLabelPureWindows:
    def test_pure_runs_extracted(self):
        data = np.arange(64, dtype=float).reshape(32, 2)
        track = ["x"] * 16 + ["y"] * 16
        windows, labels = label_pure_windows(data, track, 16)
        assert labels == ["x", "y"]
        np.testing.assert_array_equal(windows[0], data[:16])

    def test_purity_threshold(self):
        data = np.zeros((32, 1))
        track = ["x"] * 14 + ["y"] * 2 + ["y"] * 16  # first window 87.5% pure
        windows, labels = label_pure_windows(data, track, 16)
        assert labels == ["y"]

    def test_ninety_percent_accepted(self):
        data = np.zeros((20, 1))
        track = ["x"] * 18 + ["y"] * 2
        _, labels = label_pure_windows(data, track, 20)
        assert labels == ["x"]

    def test_null_windows_skipped(self):
        data = np.zeros((16, 1))
        _, labels = label_pure_windows(data, ["null"] * 16, 16)
        assert labels == []

    def test_non_overlapping(self):
        data = np.zeros((40, 1))
        windows, labels = label_pure_windows(data, ["x"] * 40, 16)
        assert len(labels) == 2  # offsets 0 and 16; trailing 8 ignored


def reference_label_pure_windows(data, track, r, null_token="null"):
    """The extraction the one-label-first count replaced: every label of
    every window counted, the kept windows stacked from a list."""
    windows, labels = [], []
    for start in range(0, data.shape[0] - r + 1, r):
        chunk = list(track[start:start + r])
        best, count = max(((lab, chunk.count(lab)) for lab in set(chunk)),
                          key=lambda kv: kv[1])
        if best == null_token or count < 0.9 * r:
            continue
        windows.append(data[start:start + r])
        labels.append(best)
    if windows:
        return np.stack(windows), labels
    return np.empty((0, r, data.shape[1])), labels


class TestLabelPureWindowsMatchesReference:
    @staticmethod
    def check(data, track, r):
        windows, labels = label_pure_windows(data, track, r)
        ref_windows, ref_labels = reference_label_pure_windows(data, track, r)
        assert labels == ref_labels
        assert windows.shape == ref_windows.shape and windows.dtype == ref_windows.dtype
        assert windows.tobytes() == ref_windows.tobytes()
        return labels

    @pytest.mark.parametrize("track, kept", [
        (["x"] * 18 + ["y"] * 2, ["x"]),            # first label exactly at 90%
        (["y"] * 2 + ["x"] * 18, ["x"]),            # first label a minority, another at 90%
        (["y"] * 3 + ["x"] * 17, []),               # nobody at 90%
        (["x"] * 17 + ["y"] * 3, []),               # first label just under
        (["null"] * 19 + ["x"], []),                # null majority
        (["x"] + ["null"] * 19, []),                # null majority behind another first label
        (["a", "b"] * 10, []),                      # a tie
    ], ids=["first-at-90", "first-minority", "none-at-90", "first-under",
            "null-majority", "null-majority-second", "tie"])
    def test_boundary_windows(self, track, kept):
        data = make_rng(1).normal(size=(20, 3))
        assert self.check(data, track, 20) == kept

    def test_shorter_than_one_window(self):
        windows, labels = label_pure_windows(np.ones((7, 2)), ["x"] * 7, 8)
        assert windows.shape == (0, 8, 2) and labels == []
        self.check(np.ones((7, 2)), ["x"] * 7, 8)

    def test_no_window_kept(self):
        data = make_rng(2).normal(size=(64, 2))
        assert self.check(data, ["null"] * 32 + ["a", "b"] * 16, 16) == []

    @pytest.mark.parametrize("r", [1, 2, 5, 16])
    def test_random_runs(self, r):
        rng = make_rng(r)
        # runs of a small vocabulary, null included, with noise labels sprinkled in
        runs = [str(rng.choice(["a", "b", "c", "null"])) for _ in range(30)]
        track = [lab for lab in runs for _ in range(int(rng.integers(1, 40)))]
        for i in rng.integers(0, len(track), size=len(track) // 15):
            track[i] = "b"
        data = rng.normal(size=(len(track) + 3, 4))[:len(track)]
        labels = self.check(data, track, r)
        assert labels and len(labels) < len(track) // r


def reference_export(points):
    """The CSV bytes csv.writer gives for every row, each row's \\r\\n end
    replaced by \\n. csv.writer(lineterminator="\\n") is not used: Python
    3.11's leaves a lone \\r unquoted, and csv.reader splits a row there."""
    rows = [["pc1", "pc2", "low_label", "source"]]
    rows += [[repr(float(p.coords[0])), repr(float(p.coords[1])), p.low_label, p.source]
             for p in points]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines).encode("utf-8")


class TestExportMatchesCsvWriter:
    COORDS = make_rng(9).normal(size=(40, 2)) * np.logspace(-12, 12, 40)[:, None]

    def points(self, labels, sources=None):
        sources = sources or [f"u{i % 4}_c{i}.csv[0:768]" for i in range(len(labels))]
        return [EmbeddingPoint((c[0], c[1]), lab, src)
                for c, lab, src in zip(self.COORDS, labels, sources)]

    def test_plain_labels(self, tmp_path):
        pts = self.points([f"motif {i % 5}" for i in range(40)])
        pts.append(EmbeddingPoint((np.float64(1.0), 2), "ünïcode", ""))
        export_embedding(pts, tmp_path / "emb.csv")
        assert (tmp_path / "emb.csv").read_bytes() == reference_export(pts)

    @pytest.mark.parametrize("odd", ["a,b", 'say "hi"', "two\nlines", "cr\rhere",
                                     'say "hi", twice', 7, ""])
    @pytest.mark.parametrize("where", ["label", "source"])
    def test_labels_csv_must_quote(self, tmp_path, odd, where):
        labels = ["x"] * 40
        sources = [f"s{i}" for i in range(40)]
        (labels if where == "label" else sources)[7] = odd
        pts = self.points(labels, sources)
        export_embedding(pts, tmp_path / "emb.csv")
        data = (tmp_path / "emb.csv").read_bytes()
        assert data == reference_export(pts)
        with open(tmp_path / "emb.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[8][2 if where == "label" else 3] == str(odd)


class TestExportStreams:
    """export_embedding takes any iterable and formats a row at a time."""

    @staticmethod
    def gen_points(n):
        rng = make_rng(n)
        labels = ["a,b", 'say "hi"', "plain", "two\nlines"]
        for i in range(n):
            # a source per 40 windows, as a segment file holds them
            yield EmbeddingPoint((rng.normal(), rng.normal() * 1e-9),
                                 labels[i % 4], f"u{i % 3}_s{i // 40}.csv")

    @pytest.mark.parametrize("n", [1, 2, 300, 5_000])
    def test_generator_same_bytes_as_csv_writer(self, tmp_path, n):
        path = tmp_path / "emb.csv"
        export_embedding(self.gen_points(n), path)
        assert path.read_bytes() == reference_export(list(self.gen_points(n)))

    def test_memory_bounded(self, tmp_path):
        path = tmp_path / "emb.csv"
        tracemalloc.start()
        try:
            export_embedding(self.gen_points(20_000), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


class TestExport:
    def points(self, n=3, label="walk"):
        return [EmbeddingPoint((float(i), -float(i)), label, f"seg{i}")
                for i in range(n)]

    def test_line_count(self, tmp_path):
        path = tmp_path / "emb.csv"
        export_embedding(self.points(3), path)
        assert len(path.read_text().strip().splitlines()) == 4

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "emb.csv"
        pts = [EmbeddingPoint((0.1234567890123456, -7.77e-12), "sip", "s0"),
               EmbeddingPoint((1.0 / 3.0, 2.0 / 7.0), "stir", "s1")]
        export_embedding(pts, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        for row, p in zip(rows, pts):
            assert float(row[0]) == p.coords[0]
            assert float(row[1]) == p.coords[1]

    def test_delimiter_in_label_quoted(self, tmp_path):
        path = tmp_path / "emb.csv"
        export_embedding([EmbeddingPoint((1.0, 2.0), "a,b", "s")], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][2] == "a,b"
        assert '"a,b"' in path.read_text()


MOTIFS = ("swing", "reach", "twist", "tap", "lift", "shake", "glide", "press")
TWO_GROUPS = {m: "armwork" if i < 4 else "bodywork" for i, m in enumerate(MOTIFS)}


@pytest.fixture(scope="module")
def motif_data():
    """A small untrained charm model, and one synthetic segment per (class, user)."""
    cfg = replace(synth.default_config(), samples_per_class_per_user=1)
    segments, classes = synth.to_labeled_segments(synth.gen_dataset(cfg), cfg)
    model = CharmModel.init(CharmConfig(r=16, q=cfg.q, z=4, low_hidden=8, low_out=4,
                                        high_hidden=8, m=len(classes)), make_rng(0))
    return model, fit_normalizer([seg.data for seg in segments]), segments


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


class TestEmbedSegments:
    @staticmethod
    def run(motif_data, path, segments=None, track=synth.MOTIF_TRACK, groups=None):
        model, stats, all_segments = motif_data
        return embed_segments(model, stats, all_segments if segments is None else segments,
                              track, "null", groups or {}, path)

    def test_csv_matches_the_step_built_by_hand(self, motif_data, tmp_path):
        # built as bench/workloads.py's `_embed` and `_embedding_points` build
        # it: the bench keeps that copy of step 4 until it calls embed_segments
        model, stats, segments = motif_data
        windows, labels, sources = [], [], []
        for seg in segments:
            w, labs = label_pure_windows(normalize(seg.data, stats),
                                         seg.low_label_tracks[synth.MOTIF_TRACK], model.cfg.r)
            windows.append(w)
            labels.extend(labs)
            sources.extend([seg.source] * len(labs))
        windows = np.concatenate(windows)
        feats = model.embed_windows(windows)
        coords = pca_transform(pca_fit(feats, 2), feats)
        export_embedding([EmbeddingPoint((c[0], c[1]), lab, src)
                          for c, lab, src in zip(coords, labels, sources)],
                         tmp_path / "by_hand.csv")
        result = self.run(motif_data, tmp_path / "emb.csv")
        assert (tmp_path / "emb.csv").read_bytes() == (tmp_path / "by_hand.csv").read_bytes()
        assert result == (len(labels), len(MOTIFS), silhouette_score(coords, labels),
                          len(labels),  # fewer windows than SILHOUETTE_SAMPLE: all scored
                          coords.var(axis=0).sum() / feats.var(axis=0).sum(),
                          np.abs(windows).max())
        assert 0.0 < result[4] <= 1.0

    def test_holds_one_window_buffer(self, motif_data, tmp_path):
        model, _, segments = motif_data
        seen = sum(len(seg.data) // model.cfg.r for seg in segments)
        buffer_bytes = seen * model.cfg.r * model.cfg.q * 8
        tracemalloc.start()
        try:
            self.run(motif_data, tmp_path / "emb.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per-segment window arrays and their concatenation would be two
        assert peak < 1.5 * buffer_bytes

    def test_sample_of_one_label_scores_none(self, motif_data, tmp_path, monkeypatch):
        monkeypatch.setattr(embed, "SILHOUETTE_SAMPLE", 3)
        n, _, score, scored, *_ = self.run(motif_data, tmp_path / "all.csv")
        assert score is not None and scored == 3
        rows = read_rows(tmp_path / "all.csv")
        sampled = {rows[i][2] for i in np.linspace(0, n - 1, 3, dtype=int)}
        # the motifs of the 3 scored windows become one label; the others stay
        result = self.run(motif_data, tmp_path / "emb.csv",
                          groups={m: "scored" for m in sampled})
        assert result[:4] == (n, len(MOTIFS) - len(sampled) + 1, None, 3)
        assert len(read_rows(tmp_path / "emb.csv")) == n

    def test_missing_track(self, motif_data, tmp_path):
        with pytest.raises(DataError, match="no low-level label track 'locomotion'"):
            self.run(motif_data, tmp_path / "emb.csv", track="locomotion")
        assert not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize("rows", [None, 16, 47], ids=["no-segments", "1-window", "2-windows"])
    def test_fewer_than_3_windows(self, motif_data, tmp_path, rows):
        seg = motif_data[2][0]
        segments = [] if rows is None else [LabeledSegment(
            seg.data[:rows], seg.high_label, seg.user_id,
            {synth.MOTIF_TRACK: ["swing"] * rows}, source=seg.source)]
        with pytest.raises(DataError, match="not enough label-pure windows"):
            self.run(motif_data, tmp_path / "emb.csv", segments=segments)
        assert not (tmp_path / "emb.csv").exists()

    def test_grouping_into_one_label(self, motif_data, tmp_path):
        with pytest.raises(DataError, match=r"at least 2 distinct labels, got \['all'\]"):
            self.run(motif_data, tmp_path / "emb.csv", groups=dict.fromkeys(MOTIFS, "all"))
        assert not (tmp_path / "emb.csv").exists()

    def test_grouping_into_two_labels(self, motif_data, tmp_path):
        n, labels, *_ = self.run(motif_data, tmp_path / "emb.csv")
        assert (n, labels) == (len(read_rows(tmp_path / "emb.csv")), len(MOTIFS))
        assert self.run(motif_data, tmp_path / "grouped.csv", groups=TWO_GROUPS)[:2] == (n, 2)
        # the same points and sources, only each motif renamed to its group
        assert read_rows(tmp_path / "grouped.csv") == [
            [pc1, pc2, TWO_GROUPS[lab], src]
            for pc1, pc2, lab, src in read_rows(tmp_path / "emb.csv")]

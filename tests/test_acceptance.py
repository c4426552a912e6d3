"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
with the measured quantity. Criteria 5-6 train on the shipped default
synthetic dataset; the whole module is expected to finish in a few minutes.
The motif-histogram oracle that criterion 5 runs first is defined and
checked here too.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from charm.cli import main as cli_main
from charm.dataset import loso_split, make_fixed_length_samples
from charm.embed import label_pure_windows, pca_fit, pca_transform, silhouette_score
from charm.model import (CharmConfig, CharmModel, CheckpointError,
                         load_checkpoint, save_checkpoint)
from charm.neurocore import Adam, make_rng
from charm.preprocess import ChannelStats, fit_normalizer, normalize
from charm.synth import MOTIF_TRACK, default_config, gen_dataset, to_labeled_segments
from charm.traineval import (TrainConfig, evaluate, metrics_from_confusion,
                             train)

REDUCED = CharmConfig(r=16, q=3, z=4, low_hidden=8, low_out=8, high_hidden=8,
                      m=3, dropout_p=0.0)
DESK = CharmConfig(r=16, q=6, z=32, m=4)  # n_target 512, synthetic scale
N_TARGET = DESK.n_target
STRIDE = N_TARGET // 2


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def motif_histogram_oracle(train_segments, val_segments, motif_names):
    """Nearest-centroid classifier on ground-truth motif histograms; an
    upper-bound separability check that never sees the model. Returns
    validation accuracy."""
    index = {name: i for i, name in enumerate(motif_names)}

    def hist(seg):
        h = np.zeros(len(index))
        for lab in seg.motif_track:
            h[index[lab]] += 1
        return h / h.sum()

    classes = sorted({s.class_name for s in train_segments})
    centroids = {}
    for cls in classes:
        rows = [hist(s) for s in train_segments if s.class_name == cls]
        centroids[cls] = np.mean(rows, axis=0)
    correct = 0
    for seg in val_segments:
        h = hist(seg)
        pred = min(classes, key=lambda c: np.linalg.norm(h - centroids[c]))
        correct += pred == seg.class_name
    return correct / len(val_segments)


class TestHistogramOracle:
    def test_separates_held_out_user(self):
        segs = gen_dataset(replace(default_config(), samples_per_class_per_user=10, seed=123))
        train = [s for s in segs if s.user_id != "u4"]
        val = [s for s in segs if s.user_id == "u4"]
        acc = motif_histogram_oracle(train, val, sorted(default_config().motifs))
        assert acc >= 0.99


@pytest.fixture(scope="module")
def synth_data():
    """Default synthetic dataset plus its fixed-length LOSO samples."""
    cfg = default_config()
    raw = gen_dataset(cfg)
    labeled, labels = to_labeled_segments(raw, cfg)
    samples = []
    for seg in labeled:
        samples.extend(make_fixed_length_samples(seg, N_TARGET, STRIDE))
    return {"cfg": cfg, "raw": raw, "segments": labeled, "labels": labels,
            "samples": samples}


class TestCriterion1Gradients:
    def test_finite_differences_20_seeds(self):
        start = time.monotonic()
        worst = 0.0
        h = 1e-5
        for seed in range(20):
            rng = make_rng(seed)
            model = CharmModel.init(REDUCED, rng)
            x = rng.normal(size=(64, 3))
            target = int(rng.integers(REDUCED.m))
            weights = rng.uniform(0.5, 1.5, size=REDUCED.m)
            _, analytic, _ = model.loss_and_grads(x, target, weights, make_rng(0))
            for p, g in zip(model.param_arrays(), analytic):
                flat, gflat = p.ravel(), g.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    hi = model.loss_and_grads(x, target, weights, make_rng(0))[0]
                    flat[idx] = orig - h
                    lo = model.loss_and_grads(x, target, weights, make_rng(0))[0]
                    flat[idx] = orig
                    fd = (hi - lo) / (2 * h)
                    rel = abs(gflat[idx] - fd) / max(abs(gflat[idx]), abs(fd),
                                                     1e-6)
                    worst = max(worst, rel)
        elapsed = time.monotonic() - start
        ok = worst < 1e-4 and elapsed < 10.0
        print(f"\ncriterion 1 ({'PASS' if ok else 'FAIL'}): "
              f"max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 10s)")
        assert worst < 1e-4
        assert elapsed < 10.0


class TestCriterion2Adam:
    def test_first_two_updates_match_oracle(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = make_rng(0)
        p0 = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 4))

        # hand-rolled oracle, written independently of the implementation
        def oracle(p_init, steps):
            p = p_init.copy()
            m = np.zeros_like(p)
            v = np.zeros_like(p)
            for t in range(1, steps + 1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
            return p

        p = p0.copy()
        opt = Adam(p, lr=lr, beta1=b1, beta2=b2, eps=eps)
        opt.step(p, g)
        err1 = np.max(np.abs(p - oracle(p0, 1)))
        opt.step(p, g)
        err2 = np.max(np.abs(p - oracle(p0, 2)))
        worst = max(err1, err2)
        print(f"\ncriterion 2 ({'PASS' if worst < 1e-10 else 'FAIL'}): "
              f"max abs dev {worst:.2e} (< 1e-10)")
        assert err1 < 1e-10
        assert err2 < 1e-10


class TestCriterion3ShapesNormalization:
    def test_contracts(self):
        cfg = CharmConfig()  # n=2560, r=16, q=18
        model = CharmModel.init(cfg, make_rng(0))
        probs, low = model.forward(make_rng(1).normal(size=(2560, 18)))
        assert low.shape == (160, 32)
        softmax_dev = abs(float(probs.sum()) - 1.0)
        assert softmax_dev < 1e-9

        arrays = [make_rng(s).normal(loc=3.0, scale=2.0, size=(200, 18))
                  for s in range(5)]
        stats = fit_normalizer(arrays)
        pooled = np.vstack([normalize(a, stats) for a in arrays])
        mean_dev = float(np.max(np.abs(pooled.mean(axis=0))))
        assert mean_dev < 1e-9
        print(f"\ncriterion 3 (PASS): low shape (160, 32), "
              f"softmax dev {softmax_dev:.1e}, post-norm |mean| {mean_dev:.1e}")


class TestCriterion4WeightSharing:
    def test_duplicate_window_bit_exact(self):
        model = CharmModel.init(REDUCED, make_rng(2))
        x = make_rng(3).normal(size=(64, 3))
        x[48:64] = x[16:32]
        _, low = model.forward(x)
        identical = np.array_equal(low[1], low[3])
        print(f"\ncriterion 4 ({'PASS' if identical else 'FAIL'}): "
              f"duplicated window rows bit-identical")
        assert identical


class TestCriterion5EndToEnd:
    def test_oracle_then_loso_f1(self, synth_data):
        start = time.monotonic()
        motif_names = sorted(synth_data["cfg"].motifs)
        users = [u.user_id for u in synth_data["cfg"].users]

        # dataset separability oracle comes first, before any model training
        oracle_accs = {}
        for user in users:
            tr = [s for s in synth_data["raw"] if s.user_id != user]
            va = [s for s in synth_data["raw"] if s.user_id == user]
            oracle_accs[user] = motif_histogram_oracle(tr, va, motif_names)
        assert all(a >= 0.99 for a in oracle_accs.values()), oracle_accs

        f1s = {}
        for user in users:
            tr, va = loso_split(synth_data["samples"], user)
            trained, _ = train(tr, "charm", TrainConfig(epochs=10, lr=5e-4,
                                                        seed=42), DESK)
            f1s[user] = evaluate(trained, va).macro_f1
        elapsed = time.monotonic() - start
        ok = all(f >= 0.95 for f in f1s.values()) and elapsed < 300
        shown = {u: round(f, 4) for u, f in f1s.items()}
        print(f"\ncriterion 5 ({'PASS' if ok else 'FAIL'}): "
              f"oracle min {min(oracle_accs.values()):.4f} (>= 0.99), "
              f"macro-F1 {shown} (all >= 0.95), {elapsed:.0f}s (< 300s)")
        for user, f1 in f1s.items():
            assert f1 >= 0.95, (user, f1)
        assert elapsed < 300


class TestCriterion6EmergentStructure:
    MAX_WINDOWS = 800  # cap the O(N^2) silhouette; subsample deterministically

    def _silhouette(self, model, windows, labels):
        feats = model.embed_windows(windows)
        coords = pca_transform(pca_fit(feats, 2), feats)
        return silhouette_score(coords, labels)

    def test_trained_beats_untrained_silhouette(self, synth_data):
        held_out = "u4"
        tr_samples, _ = loso_split(synth_data["samples"], held_out)
        val_segments = [s for s in synth_data["segments"]
                        if s.user_id == held_out]
        margins = []
        for seed in range(5):
            trained, _ = train(tr_samples, "charm",
                               TrainConfig(epochs=10, lr=5e-4, seed=seed), DESK)
            untrained = CharmModel.init(DESK, make_rng(seed))
            windows, labels = [], []
            for seg in val_segments:
                w, labs = label_pure_windows(
                    normalize(seg.data, trained.stats),
                    seg.low_label_tracks[MOTIF_TRACK], DESK.r)
                windows.append(w)
                labels.extend(labs)
            allw = np.concatenate(windows, axis=0)
            labels = np.array(labels)
            if allw.shape[0] > self.MAX_WINDOWS:
                keep = np.linspace(0, allw.shape[0] - 1, self.MAX_WINDOWS,
                                   dtype=int)
                allw, labels = allw[keep], labels[keep]
            s_trained = self._silhouette(trained.model, allw, labels)
            s_untrained = self._silhouette(untrained, allw, labels)
            margins.append(s_trained - s_untrained)
        mean_margin = float(np.mean(margins))
        ok = mean_margin >= 0.15 and all(m > 0 for m in margins)
        print(f"\ncriterion 6 ({'PASS' if ok else 'FAIL'}): "
              f"margins {[round(m, 3) for m in margins]}, "
              f"mean {mean_margin:.3f} (>= 0.15, each > 0)")
        assert mean_margin >= 0.15
        for seed, m in enumerate(margins):
            assert m > 0, (seed, m)


class TestCriterion7Determinism:
    def test_repeat_runs_checksum_identical(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "synth": {"samples_per_class_per_user": 3},
            "train": {"epochs": 2, "seed": 11},
        }))
        data = tmp_path / "data"
        assert cli_main(["gen-synth", "--config", str(cfg), "--out", str(data),
                         "--quiet"]) == 0
        sums = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"{run}.ckpt"
            metrics = tmp_path / f"{run}.metrics"
            assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                             "--held-out-user", "u4", "--out", str(ckpt),
                             "--quiet"]) == 0
            assert cli_main(["evaluate", "--checkpoint", str(ckpt),
                             "--data", str(data), "--held-out-user", "u4",
                             "--out", str(metrics), "--quiet"]) == 0
            sums.append((_sha(ckpt), _sha(metrics)))
        identical = sums[0] == sums[1]
        print(f"\ncriterion 7 ({'PASS' if identical else 'FAIL'}): "
              f"checkpoint and metrics checksums identical across reruns")
        assert identical


class TestCriterion8MetricsOracle:
    def test_hand_computed_confusion(self):
        rep = metrics_from_confusion([[9, 1], [3, 7]])
        ok = (abs(rep.precision[0] - 0.75) < 1e-12
              and abs(rep.recall[0] - 0.9) < 1e-12
              and abs(rep.f1[0] - 0.8182) < 1e-4)
        print(f"\ncriterion 8 ({'PASS' if ok else 'FAIL'}): "
              f"P0={rep.precision[0]:.4f}, R0={rep.recall[0]:.4f}, "
              f"F1_0={rep.f1[0]:.4f}")
        assert rep.precision[0] == pytest.approx(0.75)
        assert rep.recall[0] == pytest.approx(0.9)
        assert rep.f1[0] == pytest.approx(0.8182, abs=1e-4)


class TestCriterion9CheckpointRoundTrip:
    def test_round_trip_and_corruption(self, tmp_path):
        model = CharmModel.init(REDUCED, make_rng(4))
        stats = ChannelStats(np.zeros(3), np.ones(3))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, stats, p1)
        loaded, lstats = load_checkpoint(p1)
        save_checkpoint(loaded, lstats, p2)
        byte_identical = p1.read_bytes() == p2.read_bytes()

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage data, not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        trunc = tmp_path / "trunc.ckpt"
        trunc.write_bytes(p1.read_bytes()[:-64])
        with pytest.raises(CheckpointError):
            load_checkpoint(trunc)
        print(f"\ncriterion 9 ({'PASS' if byte_identical else 'FAIL'}): "
              f"save-load-save byte-identical; corrupt/truncated raise "
              f"CheckpointError")
        assert byte_identical


class TestCriterion10External:
    def test_opportunity_loso(self):
        pytest.skip("requires the external OPPORTUNITY recordings, which are "
                    "not bundled; optional extended criterion, not part of "
                    "the mandatory gate")

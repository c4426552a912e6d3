import filecmp
import os

import numpy as np
import pytest

from charm.dataset import load_stream
from charm.neurocore import make_rng
from charm.synth import (ActivityGrammar, ChannelWave, MotifSpec, SynthConfig,
                         SynthSegment, UserProfile, dataset_schema, default_config,
                         gen_dataset, gen_motif, gen_segment, motif_histogram_oracle,
                         to_labeled_segments, write_dataset)

USER = UserProfile("u", 1.0, 0.0)
FLAT = MotifSpec("flat", (ChannelWave(0.0, 1.0, 0.0, 2.5),
                          ChannelWave(0.0, 2.0, 0.0, -1.0)), (8, 64))


class TestGenMotif:
    def test_zero_amp_zero_noise_gives_offsets(self):
        out = gen_motif(FLAT, 10, USER, make_rng(0))
        np.testing.assert_array_equal(out, np.tile([2.5, -1.0], (10, 1)))

    def test_determinism(self):
        spec = default_config().motifs["swing"]
        user = UserProfile("u", 1.1, 0.2)
        a = gen_motif(spec, 40, user, make_rng(5))
        b = gen_motif(spec, 40, user, make_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_noise_variance(self):
        spec = MotifSpec("z", (ChannelWave(0.0, 1.0, 0.0, 0.0),), (10 ** 5, 10 ** 5))
        user = UserProfile("u", 1.0, 0.1)
        out = gen_motif(spec, 10 ** 5, user, make_rng(7))
        n = out.size
        se = 0.01 * np.sqrt(2.0 / (n - 1))
        assert abs(out.var() - 0.01) < 3 * se

    def test_amp_scale_applied(self):
        spec = MotifSpec("s", (ChannelWave(2.0, 1.0, 0.0, 0.0),), (30, 30))
        big = gen_motif(spec, 30, UserProfile("u", 2.0, 0.0), make_rng(0))
        small = gen_motif(spec, 30, UserProfile("u", 1.0, 0.0), make_rng(0))
        np.testing.assert_allclose(big, 2.0 * small, atol=1e-12)

    def test_duration_out_of_range(self):
        with pytest.raises(ValueError):
            gen_motif(FLAT, 100, USER, make_rng(0))


GRAMMAR = ActivityGrammar("only", {"flat": 1.0}, 100)


class TestGenSegment:
    def test_single_motif_constant_track(self):
        _, track = gen_segment(GRAMMAR, USER, {"flat": FLAT}, make_rng(1))
        assert set(track) == {"flat"}

    def test_exact_target_length(self):
        data, track = gen_segment(GRAMMAR, USER, {"flat": FLAT}, make_rng(2))
        assert data.shape[0] == 100 and len(track) == 100

    def test_draw_frequencies_match_probabilities(self):
        specs = {
            "a": MotifSpec("a", (ChannelWave(0, 1, 0, 0),), (8, 24)),
            "b": MotifSpec("b", (ChannelWave(0, 1, 0, 1),), (8, 24)),
            "c": MotifSpec("c", (ChannelWave(0, 1, 0, 2),), (8, 24)),
        }
        probs = {"a": 0.5, "b": 0.3, "c": 0.2}
        grammar = ActivityGrammar("g", probs, 400)
        rng = make_rng(3)
        counts = {"a": 0, "b": 0, "c": 0}
        mean_dur = 16.0  # all three motifs share the (8, 24) duration range
        n_segments = 500  # ~12500 draws in total
        for _ in range(n_segments):
            _, track = gen_segment(grammar, USER, specs, rng)
            for lab in track:
                counts[lab] += 1
        total_samples = sum(counts.values())
        n_draws = total_samples / mean_dur
        for name, p in probs.items():
            se = np.sqrt(p * (1 - p) / n_draws)
            assert abs(counts[name] / total_samples - p) < 3 * se

    def test_track_matches_generated_motif(self):
        # zero noise: each sample must equal its motif's offset signature
        specs = {
            "lo": MotifSpec("lo", (ChannelWave(0, 1, 0, -5.0),), (8, 16)),
            "hi": MotifSpec("hi", (ChannelWave(0, 1, 0, 5.0),), (8, 16)),
        }
        grammar = ActivityGrammar("g", {"lo": 0.5, "hi": 0.5}, 200)
        data, track = gen_segment(grammar, USER, specs, make_rng(4))
        for value, lab in zip(data[:, 0], track):
            assert value == (-5.0 if lab == "lo" else 5.0)


class TestGenDataset:
    def small_config(self, samples=5):
        base = default_config()
        return SynthConfig(motifs=base.motifs, grammars=base.grammars,
                           users=base.users, samples_per_class_per_user=samples,
                           seed=123)

    def test_counts(self):
        segs = gen_dataset(self.small_config(5))
        assert len(segs) == 4 * 4 * 5

    def test_seed_determinism_byte_identical_files(self, tmp_path):
        cfg = self.small_config(2)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        manifest = write_dataset(gen_dataset(cfg), cfg, d1)
        write_dataset(gen_dataset(cfg), cfg, d2)
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        # no temporary files left behind
        assert names == sorted([f["file"] for f in manifest["files"]] + ["manifest.json"])
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_file_bytes_keep_per_value_repr(self, tmp_path):
        cfg = self.small_config(1)
        values = [0.1, -0.0, 1e-05, 1e16, 5e-324, -1.7976931348623157e308]
        data = np.array([values, values[::-1], [2.5] * 6])
        seg = SynthSegment("u1", "routine", data, ["swing", "reach", "swing"], 0)
        manifest = write_dataset([seg], cfg, tmp_path)
        path = tmp_path / manifest["files"][0]["file"]
        old_format = "\n".join(",".join(repr(float(v)) for v in row)
                               + f",routine,{motif}"
                               for row, motif in zip(data, seg.motif_track)) + "\n"
        assert path.read_bytes() == old_format.encode("utf-8")
        loaded = load_stream(path, dataset_schema(cfg))
        assert loaded.stream.samples.tobytes() == data.tobytes()
        assert loaded.high_labels == ["routine"] * 3
        assert loaded.low_labels == {"motif": seg.motif_track}

    def test_different_seed_differs(self):
        a = gen_dataset(self.small_config(1))
        base = self.small_config(1)
        b = gen_dataset(SynthConfig(motifs=base.motifs, grammars=base.grammars,
                                    users=base.users, samples_per_class_per_user=1,
                                    seed=124))
        assert not np.array_equal(a[0].data, b[0].data)

    def test_histogram_oracle_separates_held_out_user(self):
        segs = gen_dataset(self.small_config(10))
        train = [s for s in segs if s.user_id != "u4"]
        val = [s for s in segs if s.user_id == "u4"]
        acc = motif_histogram_oracle(train, val, sorted(default_config().motifs))
        assert acc >= 0.99

    def test_to_labeled_segments(self):
        cfg = self.small_config(1)
        segs = gen_dataset(cfg)
        labeled, labels = to_labeled_segments(segs, cfg)
        assert len(labeled) == len(segs)
        assert labels == ("routine", "brew", "meal", "tidy")
        assert len(labeled[0].low_label_tracks["motif"]) == labeled[0].stream.n


class TestDefaultConfig:
    def test_class_and_user_counts(self):
        cfg = default_config()
        assert len(cfg.grammars) == 4
        assert len(cfg.users) == 4
        assert cfg.samples_per_class_per_user == 20
        assert cfg.seed == 42
        assert cfg.q == 6
        assert len(cfg.motifs) == 8

    def test_every_class_shares_a_motif(self):
        cfg = default_config()
        inventories = {g.class_name: set(g.motif_probs) for g in cfg.grammars}
        for cls, inv in inventories.items():
            shared = any(inv & other for name, other in inventories.items()
                         if name != cls)
            assert shared, f"{cls} shares no motif with any other class"

    def test_validation(self):
        base = default_config()
        with pytest.raises(ValueError):
            SynthConfig(motifs=base.motifs, grammars=base.grammars[:1],
                        users=base.users)
        with pytest.raises(ValueError):
            SynthConfig(motifs=base.motifs, grammars=base.grammars,
                        users=base.users[:1])
        with pytest.raises(ValueError):
            ActivityGrammar("bad", {"x": 0.6, "y": 0.6}, 100)

    def test_duplicate_class_names_rejected(self):
        base = default_config()
        twice = (base.grammars[0], base.grammars[1], base.grammars[0])
        with pytest.raises(ValueError, match="^class names must be distinct, got "
                                             r"\['routine', 'brew', 'routine'\]$"):
            SynthConfig(motifs=base.motifs, grammars=twice, users=base.users)

    def test_manifest_contents(self, tmp_path):
        cfg = default_config()
        small = SynthConfig(motifs=cfg.motifs, grammars=cfg.grammars,
                            users=cfg.users, samples_per_class_per_user=1,
                            seed=cfg.seed)
        manifest = write_dataset(gen_dataset(small), small, tmp_path / "d")
        assert manifest["classes"] == ["routine", "brew", "meal", "tidy"]
        assert manifest["users"] == ["u1", "u2", "u3", "u4"]
        assert len(manifest["files"]) == 16
        assert manifest["schema"]["high_label_column"] == 6

import filecmp
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from charm.dataset import LabeledSegment, load_data_dir, load_stream
from charm.neurocore import make_rng
from charm.synth import (ActivityGrammar, ChannelWave, MotifSpec, SynthConfig,
                         SynthSegment, UserProfile, dataset_schema, default_config,
                         gen_dataset, gen_segment, motif_wave,
                         to_labeled_segments, write_dataset)

USER = UserProfile("u", 1.0, 0.0)
RATE = 30.0
FLAT = MotifSpec("flat", (ChannelWave(0.0, 1.0, 0.0, 2.5),
                          ChannelWave(0.0, 2.0, 0.0, -1.0)), (8, 64))


def waves_for(motifs, user=USER):
    """Each motif's noiseless wave at its longest duration."""
    return {name: motif_wave(spec, user, spec.duration_range[1], RATE)
            for name, spec in motifs.items()}


def one_motif_segment(spec, user, rng):
    """A segment of exactly one draw of `spec` at its longest duration."""
    grammar = ActivityGrammar("g", {spec.name: 1.0}, spec.duration_range[1])
    return gen_segment(grammar, {spec.name: spec}, waves_for({spec.name: spec}, user),
                       user.noise_sigma, rng)


class TestGenMotif:
    """One motif's samples: its wave (`motif_wave`) plus the noise each draw
    adds in `gen_segment`."""

    def test_zero_amp_zero_noise_gives_offsets(self):
        out = motif_wave(FLAT, USER, 10, RATE)
        np.testing.assert_array_equal(out, np.tile([2.5, -1.0], (10, 1)))

    def test_determinism(self):
        spec = default_config().motifs["swing"]
        user = UserProfile("u", 1.1, 0.2)
        a, track_a = one_motif_segment(spec, user, make_rng(5))
        b, track_b = one_motif_segment(spec, user, make_rng(5))
        np.testing.assert_array_equal(a, b)
        assert track_a == track_b

    def test_noise_variance(self):
        spec = MotifSpec("z", (ChannelWave(0.0, 1.0, 0.0, 0.0),), (10 ** 5, 10 ** 5))
        user = UserProfile("u", 1.0, 0.1)
        out, _ = one_motif_segment(spec, user, make_rng(7))
        n = out.size
        se = 0.01 * np.sqrt(2.0 / (n - 1))
        assert abs(out.var() - 0.01) < 3 * se

    def test_amp_scale_applied(self):
        spec = MotifSpec("s", (ChannelWave(2.0, 1.0, 0.0, 0.0),), (30, 30))
        big = motif_wave(spec, UserProfile("u", 2.0, 0.0), 30, RATE)
        small = motif_wave(spec, UserProfile("u", 1.0, 0.0), 30, RATE)
        np.testing.assert_allclose(big, 2.0 * small, atol=1e-12)

    def test_duration_out_of_range(self):
        # no draw lasts outside its motif's range; each draw starts its wave
        # at sin(0) = 0 and rises after, so the zeros mark where draws begin
        specs = {
            "a": MotifSpec("a", (ChannelWave(1.0, 0.1, 0.0, 0.0),), (8, 16)),
            "b": MotifSpec("b", (ChannelWave(1.0, 0.1, 0.0, 0.0),), (20, 24)),
        }
        grammar = ActivityGrammar("g", {"a": 0.5, "b": 0.5}, 500)
        data, track = gen_segment(grammar, specs, waves_for(specs), 0.0, make_rng(6))
        starts = np.flatnonzero(data[:, 0] == 0.0)
        ends = np.append(starts[1:], len(data))
        assert starts[0] == 0 and len(starts) > 20
        for i, (start, end) in enumerate(zip(starts, ends)):
            assert len(set(track[start:end])) == 1
            lo, hi = specs[track[start]].duration_range
            assert (1 if i == len(starts) - 1 else lo) <= end - start <= hi
        with pytest.raises(ValueError, match="^duration must be"):
            MotifSpec("z", FLAT.channels, (0, 8))
        with pytest.raises(ValueError, match="^bad duration range"):
            MotifSpec("z", FLAT.channels, (9, 8))

    def test_no_channels_rejected(self):
        with pytest.raises(ValueError, match="^motif 'z' has no channels$"):
            MotifSpec("z", (), (8, 8))


GRAMMAR = ActivityGrammar("only", {"flat": 1.0}, 100)


class TestGenSegment:
    def test_single_motif_constant_track(self):
        _, track = gen_segment(GRAMMAR, {"flat": FLAT}, waves_for({"flat": FLAT}), 0.0,
                               make_rng(1))
        assert set(track) == {"flat"}

    def test_exact_target_length(self):
        data, track = gen_segment(GRAMMAR, {"flat": FLAT}, waves_for({"flat": FLAT}), 0.0,
                                  make_rng(2))
        assert data.shape[0] == 100 and len(track) == 100

    def test_draw_frequencies_match_probabilities(self):
        specs = {
            "a": MotifSpec("a", (ChannelWave(0, 1, 0, 0),), (8, 24)),
            "b": MotifSpec("b", (ChannelWave(0, 1, 0, 1),), (8, 24)),
            "c": MotifSpec("c", (ChannelWave(0, 1, 0, 2),), (8, 24)),
        }
        probs = {"a": 0.5, "b": 0.3, "c": 0.2}
        grammar = ActivityGrammar("g", probs, 400)
        waves = waves_for(specs)
        rng = make_rng(3)
        counts = {"a": 0, "b": 0, "c": 0}
        mean_dur = 16.0  # all three motifs share the (8, 24) duration range
        n_segments = 500  # ~12500 draws in total
        for _ in range(n_segments):
            _, track = gen_segment(grammar, specs, waves, 0.0, rng)
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
        data, track = gen_segment(grammar, specs, waves_for(specs), 0.0, make_rng(4))
        for value, lab in zip(data[:, 0], track):
            assert value == (-5.0 if lab == "lo" else 5.0)

    def test_shared_generator_stream_matches_reference(self):
        # a truncated last draw still takes its full [duration, q] noise, so a
        # generator passed on to the next segment is where the reference leaves it
        cfg = edge_config()
        user = cfg.users[1]
        waves = {name: motif_wave(spec, user, 90, cfg.sample_rate_hz)
                 for name, spec in cfg.motifs.items()}
        rng, ref_rng = make_rng(8), make_rng(8)
        for grammar in cfg.grammars * 4:
            data, track = gen_segment(grammar, cfg.motifs, waves, user.noise_sigma, rng)
            want, want_track = reference_segment(grammar, cfg.motifs, user, ref_rng,
                                                 cfg.sample_rate_hz)
            assert data.tobytes() == want.tobytes() and track == want_track


def reference_segment(grammar, motifs, user, rng, sample_rate_hz):
    """The per-draw generator `gen_segment` replaced, kept as its oracle: every
    draw builds its motif's sinusoids at its own duration and adds its noise."""
    def motif(spec, duration):
        t = np.arange(duration) / sample_rate_hz
        data = np.column_stack([w.offset + user.amp_scale * w.amplitude
                                * np.sin(2 * np.pi * w.freq_hz * t + w.phase)
                                for w in spec.channels])
        if user.noise_sigma > 0:
            data = data + rng.normal(0.0, user.noise_sigma, size=data.shape)
        return data

    names = sorted(grammar.motif_probs)
    probs = np.array([grammar.motif_probs[n] for n in names])
    chunks, track = [], []
    while len(track) < grammar.target_len:
        name = names[rng.choice(len(names), p=probs)]
        lo, hi = motifs[name].duration_range
        duration = int(rng.integers(lo, hi + 1))
        chunks.append(motif(motifs[name], duration))
        track += [name] * duration
    return np.vstack(chunks)[: grammar.target_len], track[: grammar.target_len]


def reference_dataset(config):
    segments = []
    for ui, user in enumerate(config.users):
        for ci, grammar in enumerate(config.grammars):
            for si in range(config.samples_per_class_per_user):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((config.seed, ui, ci, si))))
                data, track = reference_segment(grammar, config.motifs, user, rng,
                                                config.sample_rate_hz)
                segments.append(SynthSegment(user.user_id, grammar.class_name,
                                             data, track, si))
    return segments


def assert_same_segments(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.user_id, g.class_name, g.index) == (w.user_id, w.class_name, w.index)
        assert g.data.dtype == w.data.dtype and g.data.shape == w.data.shape
        assert g.data.tobytes() == w.data.tobytes()
        assert g.motif_track == w.motif_track


def edge_config():
    """A zero-noise user, a motif with lo == hi and one whose longest draw
    exceeds every target_len, over two target lengths."""
    wave = ChannelWave(0.7, 2.3, 0.4, -0.1), ChannelWave(1.1, 5.0, 1.9, 0.3)
    motifs = {
        "fixed": MotifSpec("fixed", wave, (7, 7)),
        "long": MotifSpec("long", wave[::-1], (30, 400)),
        "short": MotifSpec("short", (wave[1], ChannelWave(0.5, 8.0, 0.0, 0.6)), (3, 9)),
    }
    grammars = (ActivityGrammar("one", {"fixed": 0.5, "long": 0.3, "short": 0.2}, 90),
                ActivityGrammar("two", {"fixed": 0.2, "long": 0.6, "short": 0.2}, 57))
    users = (UserProfile("still", 0.9, 0.0), UserProfile("noisy", 1.2, 0.25))
    return SynthConfig(motifs=motifs, grammars=grammars, users=users,
                       samples_per_class_per_user=12, seed=9)


def zero_probability_config():
    """Four short motifs, so each segment takes dozens of draws, under
    grammars that each give one motif probability 0."""
    motifs = {name: MotifSpec(name, (ChannelWave(0.5, 3.0, 0.2, i),), (3, 9))
              for i, name in enumerate("abcd")}
    grammars = (ActivityGrammar("first", {"a": 0.0, "b": 0.7, "c": 0.2, "d": 0.1}, 200),
                ActivityGrammar("middle", {"a": 0.7, "b": 0.2, "c": 0.0, "d": 0.1}, 200),
                ActivityGrammar("last", {"a": 0.7, "b": 0.2, "c": 0.1, "d": 0.0}, 200),
                ActivityGrammar("ints", {"a": 0, "b": 1, "c": 0}, 60))
    users = (UserProfile("still", 1.0, 0.0), UserProfile("noisy", 0.8, 0.2))
    return SynthConfig(motifs=motifs, grammars=grammars, users=users,
                       samples_per_class_per_user=10, seed=3)


class FixedDraws:
    """A stand-in generator: every uniform is `u`, every duration its lower
    bound, and no noise is asked for."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def integers(self, lo, hi):
        return lo


@pytest.mark.parametrize("u", [0.0, 0.5, 0.7, 1.0 - 2.0 ** -53])
def test_zero_probability_motif_never_drawn_at_the_extremes(u):
    cfg = zero_probability_config()
    waves = {name: motif_wave(spec, USER, 9, RATE) for name, spec in cfg.motifs.items()}
    for grammar in cfg.grammars:
        _, track = gen_segment(grammar, cfg.motifs, waves, 0.0, FixedDraws(u))
        assert all(grammar.motif_probs[m] > 0 for m in track)


class TestGenDataset:
    def small_config(self, samples=5):
        base = default_config()
        return SynthConfig(motifs=base.motifs, grammars=base.grammars,
                           users=base.users, samples_per_class_per_user=samples,
                           seed=123)

    def test_counts(self):
        segs = gen_dataset(self.small_config(5))
        assert len(segs) == 4 * 4 * 5

    @pytest.mark.parametrize("seed", [42, 7, 31337, 1, 0])
    def test_matches_reference_default_config(self, seed):
        cfg = replace(default_config(), seed=seed)
        assert_same_segments(gen_dataset(cfg), reference_dataset(cfg))

    def test_matches_reference_edge_config(self):
        cfg = edge_config()
        segs = gen_dataset(cfg)
        assert {len(t) for t in (s.motif_track for s in segs)} == {90, 57}
        assert {"fixed", "long", "short"} <= {m for s in segs for m in s.motif_track}
        assert_same_segments(segs, reference_dataset(cfg))

    def test_matches_reference_zero_probabilities(self):
        # a zero-probability motif first, in the middle and last in sorted
        # order, float probabilities that sum to 0.9999999999999999, and ints
        cfg = zero_probability_config()
        assert sum(cfg.grammars[0].motif_probs.values()) != 1.0
        segs = gen_dataset(cfg)
        assert_same_segments(segs, reference_dataset(cfg))
        for grammar in cfg.grammars:
            drawn = {m for s in segs if s.class_name == grammar.class_name
                     for m in s.motif_track}
            assert drawn == {m for m, p in grammar.motif_probs.items() if p > 0}

    def test_segments_share_no_memory(self):
        cfg = edge_config()
        segs = gen_dataset(cfg)
        for i, a in enumerate(segs):
            assert not any(np.shares_memory(a.data, b.data) for b in segs[i + 1:])
            a.data[...] = 0.0  # the zero-noise user's segments included
        assert_same_segments(gen_dataset(cfg), reference_dataset(cfg))

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

    def test_to_labeled_segments(self):
        cfg = self.small_config(1)
        segs = gen_dataset(cfg)
        labeled, labels = to_labeled_segments(segs, cfg)
        assert len(labeled) == len(segs)
        assert labels == ("routine", "brew", "meal", "tidy")
        assert len(labeled[0].low_label_tracks["motif"]) == len(labeled[0].data)

    def test_to_labeled_segments_equals_write_then_load(self, tmp_path):
        cfg = self.small_config(2)
        segs = gen_dataset(cfg)
        write_dataset(segs, cfg, tmp_path)
        loaded, classes, _ = load_data_dir(tmp_path)
        labeled, labels = to_labeled_segments(segs, cfg)
        assert labels == classes and len(labeled) == len(loaded) == len(segs)
        for a, b in zip(labeled, loaded):
            for f in fields(LabeledSegment):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if f.name == "data":
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), b.source
                else:
                    assert x == y, (f.name, b.source)
        assert labeled[0].source == "uu1_routine_000.csv[0:768]"


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

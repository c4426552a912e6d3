"""Deterministic generator of compositional synthetic activity streams:
hidden low-level waveform motifs sequenced into high-level activities, with
per-user amplitude/noise variation so leave-one-subject-out is nontrivial."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from .dataset import SchemaConfig, atomic_write, check_fields, check_value, map_files

MOTIF_TRACK = "motif"


@dataclass(frozen=True)
class ChannelWave:
    amplitude: float
    freq_hz: float
    phase: float
    offset: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class MotifSpec:
    name: str
    channels: tuple  # one ChannelWave per channel
    duration_range: tuple  # (lo, hi) in samples, inclusive

    def __post_init__(self):
        check_fields(self)
        lo, hi = self.duration_range
        for bound in (lo, hi):
            check_value("duration", bound, int, "[1, inf)")
        if lo > hi:
            raise ValueError(f"bad duration range {self.duration_range}")


@dataclass(frozen=True)
class ActivityGrammar:
    class_name: str
    motif_probs: dict  # motif name -> probability
    target_len: Annotated[int, "[1, inf)"]

    def __post_init__(self):
        check_fields(self)
        for name, p in self.motif_probs.items():
            check_value(f"probability of {name!r}", p, float, "[0, 1]")
        total = sum(self.motif_probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"motif probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    amp_scale: float
    noise_sigma: Annotated[float, "[0, inf)"]

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SynthConfig:
    motifs: dict  # name -> MotifSpec
    grammars: tuple  # one ActivityGrammar per class, canonical class order
    users: tuple  # UserProfile
    samples_per_class_per_user: Annotated[int, "[1, inf)"] = 20
    seed: Annotated[int, "[0, inf)"] = 42
    sample_rate_hz: Annotated[float, "(0, inf)"] = 30.0

    def __post_init__(self):
        check_fields(self)
        if len(self.grammars) < 2:
            raise ValueError("need at least 2 classes")
        if len(self.users) < 2:
            raise ValueError("need at least 2 users (LOSO requires a held-out user)")
        for g in self.grammars:
            for name in g.motif_probs:
                if name not in self.motifs:
                    raise ValueError(f"grammar {g.class_name!r} references "
                                     f"unknown motif {name!r}")
        qs = {len(m.channels) for m in self.motifs.values()}
        if len(qs) != 1:
            raise ValueError("all motifs must have the same channel count")

    @property
    def q(self) -> int:
        return len(next(iter(self.motifs.values())).channels)

    @property
    def class_names(self):
        return [g.class_name for g in self.grammars]


def gen_motif(spec: MotifSpec, duration: int, user: UserProfile,
              rng: np.random.Generator, sample_rate_hz: float = 30.0):
    """[duration, q] sinusoid-per-channel samples with user scaling and noise."""
    lo, hi = spec.duration_range
    if not lo <= duration <= hi:
        raise ValueError(f"duration {duration} outside {spec.duration_range}")
    t = np.arange(duration) / sample_rate_hz
    cols = [w.offset + user.amp_scale * w.amplitude
            * np.sin(2 * np.pi * w.freq_hz * t + w.phase)
            for w in spec.channels]
    data = np.column_stack(cols)
    if user.noise_sigma > 0:
        data = data + rng.normal(0.0, user.noise_sigma, size=data.shape)
    return data


def gen_segment(grammar: ActivityGrammar, user: UserProfile, motifs: dict,
                rng: np.random.Generator, sample_rate_hz: float = 30.0):
    """Draw motifs i.i.d. from the grammar until target_len is covered,
    truncating the last motif. Returns (data [n, q], motif label per sample)."""
    names = sorted(grammar.motif_probs)
    probs = np.array([grammar.motif_probs[n] for n in names])
    chunks = []
    track = []
    total = 0
    while total < grammar.target_len:
        name = names[rng.choice(len(names), p=probs)]
        spec = motifs[name]
        lo, hi = spec.duration_range
        duration = int(rng.integers(lo, hi + 1))
        chunks.append(gen_motif(spec, duration, user, rng, sample_rate_hz))
        track.extend([name] * duration)
        total += duration
    data = np.vstack(chunks)[: grammar.target_len]
    return data, track[: grammar.target_len]


@dataclass
class SynthSegment:
    user_id: str
    class_name: str
    data: np.ndarray
    motif_track: list
    index: int


def gen_dataset(config: SynthConfig):
    """All (class, user, index) segments, deterministic under the seed: each
    segment draws from its own generator keyed by (seed, user, class, index),
    so generation order (or parallelism) cannot change the output."""
    segments = []
    for ui, user in enumerate(config.users):
        for ci, grammar in enumerate(config.grammars):
            for si in range(config.samples_per_class_per_user):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((config.seed, ui, ci, si))))
                data, track = gen_segment(grammar, user, config.motifs, rng,
                                          config.sample_rate_hz)
                segments.append(SynthSegment(user.user_id, grammar.class_name,
                                             data, track, si))
    return segments


def to_labeled_segments(segments, config: SynthConfig):
    """In-memory bridge to the dataset layer (equivalent to writing the files
    and loading them back). Returns (LabeledSegments, ActivityLabelSet)."""
    from .dataset import ActivityLabelSet, LabeledSegment, SensorStream

    labels = ActivityLabelSet(tuple(config.class_names))
    out = []
    for seg in segments:
        out.append(LabeledSegment(
            SensorStream(seg.data), labels.index(seg.class_name), seg.user_id,
            low_label_tracks={MOTIF_TRACK: list(seg.motif_track)},
            source=f"u{seg.user_id}/{seg.class_name}/{seg.index}"))
    return out, labels


def dataset_schema(config: SynthConfig) -> SchemaConfig:
    """Emitted file layout: q channel columns, high label, motif label."""
    q = config.q
    return SchemaConfig(
        delimiter=",",
        channel_columns=tuple(range(q)),
        high_label_column=q,
        low_label_columns={MOTIF_TRACK: q + 1},
        null_label_token="null",
    )


def write_dataset(segments, config: SynthConfig, out_dir):
    """One file per segment plus manifest.json; reruns with the same config
    are byte-identical."""
    os.makedirs(out_dir, exist_ok=True)
    files = [{"file": f"u{seg.user_id}_{seg.class_name}_{seg.index:03d}.csv",
              "user": seg.user_id, "class": seg.class_name} for seg in segments]
    map_files(_write_segment, [(os.path.join(out_dir, f["file"]), seg)
                               for f, seg in zip(files, segments)])

    manifest = {
        "seed": config.seed,
        "sample_rate_hz": config.sample_rate_hz,
        "q": config.q,
        "classes": config.class_names,
        "users": [u.user_id for u in config.users],
        "samples_per_class_per_user": config.samples_per_class_per_user,
        "schema": asdict(dataset_schema(config)),
        "files": files,
    }
    atomic_write(os.path.join(out_dir, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _write_segment(job):
    """One segment's file: a row per sample, each value as repr() spells it."""
    path, seg = job
    labels = f",{seg.class_name},"
    atomic_write(path, "".join(
        ",".join(map(repr, row)) + labels + motif + "\n"
        for row, motif in zip(seg.data.tolist(), seg.motif_track)))


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


def default_config() -> SynthConfig:
    """4 classes over 8 motifs with overlapping motif inventories (every class
    shares at least one motif with another class), 4 users, 20 segments per
    class per user. Structurally mirrors the full-scale setup at desk scale:
    n_target 512 = 16 * 32, q = 6."""
    rate = 30.0

    def motif(name, base, freq, amps, duration=(32, 96)):
        # base: per-channel offsets; amps: per-channel amplitudes
        waves = tuple(ChannelWave(a, f, p, o)
                      for a, f, p, o in zip(amps, freq, _PHASES, base))
        return MotifSpec(name, waves, duration)

    # Frequencies sit well above 1/(window duration) so a 16-sample window
    # covers full cycles regardless of where the crop lands in the motif.
    motifs = {m.name: m for m in (
        motif("swing",  (0.8, 0.0, -0.4, 0.2, 0.0, 0.0), (3.6, 7.2, 1.8, 3.6, 0.9, 2.7), (1.0, 0.5, 0.8, 0.2, 0.1, 0.4)),
        motif("reach",  (-0.6, 0.5, 0.0, -0.2, 0.4, 0.0), (1.2, 2.4, 4.8, 1.2, 3.3, 0.6), (0.7, 1.2, 0.3, 0.6, 0.2, 0.5)),
        motif("twist",  (0.0, -0.8, 0.6, 0.0, -0.3, 0.5), (6.0, 3.0, 1.5, 7.5, 2.1, 4.2), (0.4, 0.9, 1.1, 0.3, 0.8, 0.2)),
        motif("tap",    (0.3, 0.3, -0.7, 0.6, 0.0, -0.4), (9.0, 4.5, 2.4, 1.5, 6.6, 3.0), (0.9, 0.2, 0.5, 1.0, 0.4, 0.7)),
        motif("lift",   (-0.4, 0.0, 0.5, -0.7, 0.6, 0.2), (2.1, 8.4, 3.6, 5.4, 1.5, 0.9), (0.5, 0.7, 1.0, 0.4, 0.9, 0.3)),
        motif("shake",  (0.5, -0.5, 0.0, 0.4, -0.6, 0.7), (7.8, 1.8, 6.3, 2.7, 4.8, 1.2), (0.3, 1.1, 0.6, 0.8, 0.2, 1.0)),
        motif("glide",  (-0.2, 0.7, -0.5, 0.0, 0.5, -0.6), (3.0, 0.9, 2.7, 9.6, 1.8, 6.0), (1.2, 0.4, 0.2, 0.5, 1.0, 0.6)),
        motif("press",  (0.6, 0.2, 0.3, -0.5, -0.7, 0.4), (1.5, 5.7, 8.1, 2.1, 3.9, 2.4), (0.6, 0.8, 0.4, 1.1, 0.5, 0.9)),
    )}

    target = 768  # > n_target=512 so strided crops produce extra samples
    grammars = (
        ActivityGrammar("routine", {"swing": 0.55, "reach": 0.35, "twist": 0.10}, target),
        ActivityGrammar("brew",    {"twist": 0.55, "tap": 0.35, "lift": 0.10}, target),
        ActivityGrammar("meal",    {"lift": 0.55, "shake": 0.35, "glide": 0.10}, target),
        ActivityGrammar("tidy",    {"glide": 0.55, "press": 0.35, "swing": 0.10}, target),
    )
    users = (
        UserProfile("u1", 1.00, 0.30),
        UserProfile("u2", 0.85, 0.40),
        UserProfile("u3", 1.15, 0.35),
        UserProfile("u4", 0.95, 0.45),
    )
    return SynthConfig(motifs=motifs, grammars=grammars, users=users,
                       samples_per_class_per_user=20, seed=42,
                       sample_rate_hz=rate)


_PHASES = (0.0, 0.9, 1.7, 2.6, 3.4, 4.3)

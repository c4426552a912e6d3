"""The benchmark's two workloads. Each is a closed loop: a phase starts
when the previous call returns. Inputs are the default synthetic config at
the benchmark seed; the same seed trains the models.

A workload object does its set-up in `__init__` and one measured iteration
per `iterate()` call, which returns {"phases": {name: s}, "items": n,
"figures": {...}}. The worker times the iteration loop around it.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import shutil
import time
from pathlib import Path

import numpy as np

from charm import cli, dataset, embed, model, preprocess, synth, traineval

from gappy import make_gappy_copy
from tracer import GAPPY_DIR

HELD_OUT_USER = "u4"
# Criterion 5 asserts macro-F1 >= 0.95 at seed 42, where u4 scores 0.994.
# At other seeds the final epoch of a correct fit scored 0.936 to 1.0 (seed
# 506 peaked at 0.987 mid-fit and ended at 0.936), so the check sits below
# that range and still fails a fit that did not learn (chance is 0.25).
MIN_CHARM_F1 = 0.90
PREFIX = {"charm": "", "mlp": "mlp_"}  # figure names per model kind


REFERENCE_S = 0.25  # length of one reference measurement


def reference_rate():
    """Rounds per second of a fixed loop of interpreter and small-matrix
    work: how fast the machine runs at this moment. It is the benchmark's
    own code, so no program change moves it."""
    a = np.linspace(-1.0, 1.0, 32 * 96).reshape(32, 96)
    rounds = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < REFERENCE_S:
        s = 0
        for i in range(20000):
            s += i * i
        words = [str(i) for i in range(2000)]
        s += len({w: i for i, w in enumerate(words)})
        for _ in range(50):
            np.maximum(a @ a.T, 0.0)
        rounds += 1
    return rounds / elapsed


class Ledger:
    """Counts the operations a worker attempts and the output checks it
    makes, and converts timed seconds into reference rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}   # check name -> [passed, failed, last failure detail]
        self.notes = {}    # facts the run reports besides its metrics
        self.rounds = 0.0  # timed seconds of this iteration, in reference rounds
        self._seconds = 0.0
        self._rate = 0.0

    def call(self, phases, phase, fn, *args, **kwargs):
        """Run one timed call into the package and add its time to `phase`."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        elapsed = time.perf_counter() - t0
        phases[phase] = phases.get(phase, 0.0) + elapsed
        self._seconds += elapsed
        return result

    def start_iteration(self):
        self.rounds = 0.0
        self._seconds = 0.0
        self._rate = reference_rate()

    def reference_point(self):
        """Measure the machine's speed again and count the timed seconds
        since the previous point at the mean of the two rates. Workloads
        call it after each step of a few seconds, so a change of machine
        speed within an iteration is followed."""
        rate = reference_rate()
        self.rounds += self._seconds * (self._rate + rate) / 2
        self._rate, self._seconds = rate, 0.0

    def check(self, name, ok, detail=""):
        self.attempted += 1
        entry = self.checks.setdefault(name, [0, 0, ""])
        if ok:
            entry[0] += 1
        else:
            self.failed += 1
            entry[1] += 1
            entry[2] = str(detail)


def _synth_config(seed):
    return dataclasses.replace(synth.default_config(), seed=seed)


def _loso_split(seed):
    """Default synthetic data at `seed`, cropped and split as `charm train`
    does. Returns (segments, labels, config, train, val)."""
    cfg = _synth_config(seed)
    segments, labels = synth.to_labeled_segments(synth.gen_dataset(cfg), cfg)
    n_target = cli.build_charm_config({}, q=cfg.q, m=len(labels)).n_target
    samples = cli.fixed_length_dataset(segments, n_target, n_target // 2)
    train, val = dataset.loso_split(samples, HELD_OUT_USER)
    return segments, labels, cfg, train, val


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _embedding_points(coords, labels, sources):
    """The rows `charm embed` exports, built as its command does."""
    return [embed.EmbeddingPoint((c[0], c[1]), lab, src)
            for c, lab, src in zip(coords, labels, sources)]


def _same_params(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.param_arrays(), b.param_arrays()))


class Fold:
    """One LOSO fold in memory, as the README pipeline runs it: for CHARM,
    then the MLP baseline, train with per-epoch validation, evaluate, save
    and load the checkpoint; with the loaded CHARM model, quick-start step 4
    (`charm embed`) on all segments."""

    def __init__(self, seed, workdir, ledger):
        self.ledger = ledger
        self.workdir = workdir
        self.segments, labels, cfg, self.train_set, self.val_set = _loso_split(seed)
        charm_cfg = cli.build_charm_config({}, q=cfg.q, m=len(labels))
        self.models = (
            ("charm", charm_cfg),
            ("mlp", cli.build_mlp_config({}, n_target=charm_cfg.n_target, q=cfg.q, m=len(labels))),
        )
        self.train_cfg = cli.build_train_config({}, seed_override=seed)
        self.steps = len(self.train_set) * self.train_cfg.epochs

    def iterate(self):
        L = self.ledger
        phases, figures = {}, {}
        for kind, model_cfg in self.models:
            trained, _ = L.call(phases, f"{kind}.train", traineval.train, self.train_set, kind,
                                self.train_cfg, model_cfg, val_segments=self.val_set)
            L.reference_point()
            figures[PREFIX[kind] + "train_samples_per_s"] = self.steps / phases[f"{kind}.train"]
            report = L.call(phases, f"{kind}.evaluate", traineval.evaluate, trained, self.val_set)
            figures[PREFIX[kind] + "heldout_macro_f1"] = report.macro_f1
            path = self.workdir / f"{kind}.ckpt"
            L.call(phases, f"{kind}.checkpoint", model.save_checkpoint,
                   trained.model, trained.stats, path)
            loaded, stats = L.call(phases, f"{kind}.checkpoint", model.load_checkpoint, path)

            digest = _sha256(path)
            L.check(f"{kind}.checkpoint_round_trip",
                    _same_params(loaded, trained.model)
                    and np.array_equal(stats.means, trained.stats.means)
                    and np.array_equal(stats.stds, trained.stats.stds))
            model.save_checkpoint(loaded, stats, path)
            L.check(f"{kind}.checkpoint_resave_identical", _sha256(path) == digest)
            again = traineval.evaluate(traineval.TrainedModel(loaded, stats), self.val_set)
            L.check(f"{kind}.loaded_model_same_f1", again.macro_f1 == report.macro_f1,
                    f"{again.macro_f1} != {report.macro_f1}")
            L.notes.setdefault(f"{kind}.checkpoint_sha256", set()).add(digest)
            if kind == "charm":
                L.check("charm.heldout_macro_f1_min", report.macro_f1 >= MIN_CHARM_F1,
                        f"macro-F1 {report.macro_f1:.4f} < {MIN_CHARM_F1}")
                figures.update(self._embed(loaded, stats, phases))
            L.reference_point()
        return {"phases": phases, "items": self.steps * len(self.models), "figures": figures}

    def _embed(self, charm, stats, phases):
        """Step 4: label-pure windows of every segment, low-level embeddings,
        2-D PCA, CSV export, then the silhouette score."""
        L = self.ledger
        step4 = {}
        windows, labels, sources = [], [], []
        for seg in self.segments:
            x = L.call(step4, "windows", preprocess.normalize, seg.data, stats)
            w, labs = L.call(step4, "windows", embed.label_pure_windows,
                             x, seg.low_label_tracks[synth.MOTIF_TRACK], charm.cfg.r)
            windows.append(w)
            labels.extend(labs)
            sources.extend([seg.source] * len(labs))
        feats = L.call(step4, "embed", charm.embed_windows, np.concatenate(windows))
        pca = L.call(step4, "pca", embed.pca_fit, feats, 2)
        coords = L.call(step4, "pca", embed.pca_transform, pca, feats)
        points = L.call(step4, "export", _embedding_points, coords, labels, sources)
        path = self.workdir / "embedding.csv"
        L.call(step4, "export", embed.export_embedding, points, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        L.check("embed.csv_one_row_per_window", len(rows) == len(labels),
                f"{len(rows)} rows for {len(labels)} windows")
        L.check("embed.csv_labels", [row[2] for row in rows] == labels)
        L.notes["embed.windows"] = {"kept": len(labels),
                                    "seen": sum(len(s.data) // charm.cfg.r for s in self.segments)}

        # Timed apart from the phases: this is the known defect (an [N, N, 2]
        # temporary) that the worker's address-space limit turns into a
        # MemoryError; a fix that makes it return must not read as a slowdown.
        t0 = time.perf_counter()
        try:
            score = embed.silhouette_score(coords, labels)
        except MemoryError as e:
            outcome = f"MemoryError: {e}"
        else:
            outcome = score
            L.check("embed.silhouette_in_range", math.isfinite(score) and -1.0 <= score <= 1.0,
                    f"silhouette {score}")
        silhouette_s = time.perf_counter() - t0
        L.notes["embed.silhouette"] = outcome

        for k, v in step4.items():
            phases[f"embed.{k}"] = v
        return {"embed_windows_per_s": len(labels) / sum(step4.values()),
                "silhouette_s": silhouette_s,
                "silhouette_failures": int(isinstance(outcome, str))}


class Ingest:
    """`gen-synth` files then `load_data_dir` on them and on a seeded gappy
    copy of them."""

    def __init__(self, seed, workdir, ledger):
        self.seed = seed
        self.ledger = ledger
        self.workdir = workdir
        self.cfg = _synth_config(seed)
        self.segments = synth.gen_dataset(self.cfg)
        self.rows = sum(len(s.data) for s in self.segments)
        self.data = np.concatenate([s.data for s in self.segments])
        self.gappy = None
        self.count = 0

    def _digest(self, directory):
        h = hashlib.sha256()
        for path in sorted(directory.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def iterate(self):
        L = self.ledger
        phases = {}
        out = self.workdir / f"write-{self.count}"
        self.count += 1
        L.call(phases, "write", synth.write_dataset, self.segments, self.cfg, out)
        L.reference_point()
        L.notes.setdefault("write.files_sha256", set()).add(self._digest(out))

        gappy_dir = self.workdir / GAPPY_DIR
        if self.gappy is None:
            self.gappy = make_gappy_copy(out, gappy_dir, self.seed, dataset.MAX_INTERP_GAP)
            L.notes["gappy"] = self.gappy

        segs, _, _ = L.call(phases, "load", cli.load_data_dir, out)
        L.reference_point()
        loaded = np.concatenate([s.data for s in segs])
        L.check("load.rows", loaded.shape[0] == self.rows, f"{loaded.shape[0]} != {self.rows}")
        L.check("load.segments", len(segs) == len(self.segments),
                f"{len(segs)} != {len(self.segments)}")
        L.check("load.values_exact", np.array_equal(loaded, self.data))

        segs, _, _ = L.call(phases, "load_gappy", cli.load_data_dir, gappy_dir)
        L.reference_point()
        gappy = np.concatenate([s.data for s in segs])
        expected = self.rows - self.gappy["rows_dropped"]
        L.check("load_gappy.rows", gappy.shape[0] == expected, f"{gappy.shape[0]} != {expected}")
        L.check("load_gappy.segments", len(segs) == len(self.segments),
                f"{len(segs)} != {len(self.segments)}")
        L.check("load_gappy.no_nan", not np.isnan(gappy).any())
        shutil.rmtree(out)

        figures = {"write_rows_per_s": self.rows / phases["write"],
                   "load_rows_per_s": self.rows / phases["load"],
                   "load_gappy_rows_per_s": self.rows / phases["load_gappy"]}
        return {"phases": phases, "items": 3 * self.rows, "figures": figures}


WORKLOADS = {"fold": Fold, "ingest": Ingest}

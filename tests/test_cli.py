import csv
import hashlib
import json
import multiprocessing
import os
import re
import signal
import struct
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from charm import cli, embed, synth
from charm import dataset as ds
from charm.cli import _crops, main
from charm.dataset import _load_entry, load_data_dir, map_files
from charm.model import (MAGIC, CharmConfig, CharmModel, MlpConfig, MlpModel, load_checkpoint,
                         save_checkpoint)
from charm.neurocore import Stack, make_rng
from charm.preprocess import ChannelStats
from charm.synth import _write_segment

SMALL_CONFIG = {
    "synth": {"samples_per_class_per_user": 2},
    "train": {"epochs": 2, "seed": 7},
}


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    data = root / "data"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(data),
                 "--quiet"]) == 0
    return {"root": root, "config": str(cfg), "data": str(data)}


@pytest.fixture(scope="module")
def checkpoint(workspace):
    path = workspace["root"] / "model.ckpt"
    code = main(["train", "--config", workspace["config"],
                 "--data", workspace["data"], "--held-out-user", "u4",
                 "--model", "charm", "--out", str(path), "--quiet"])
    assert code == 0
    return str(path)


class TestGenSynth:
    def test_writes_files_and_manifest(self, workspace):
        files = os.listdir(workspace["data"])
        assert "manifest.json" in files
        assert len([f for f in files if f.endswith(".csv")]) == 4 * 4 * 2

    def test_rerun_same_seed_identical(self, workspace, tmp_path):
        out = tmp_path / "again"
        assert main(["gen-synth", "--config", workspace["config"],
                     "--out", str(out), "--quiet"]) == 0
        for name in sorted(os.listdir(workspace["data"])):
            assert sha(os.path.join(workspace["data"], name)) == \
                sha(out / name), name

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"synth": {"bogus_knob": 1}}))
        assert main(["gen-synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_unknown_section_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mystery": {}}))
        assert main(["gen-synth", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2

    def test_motif_grammar_user_overrides(self, tmp_path, capsys):
        synth = {
            "samples_per_class_per_user": 1,
            "motifs": {
                "sway": {"channels": [[1.0, 2.0, 0.0, 0.1], [0.5, 3.0, 0.5, 0.0]],
                         "duration": [4, 8]},
                "jolt": {"channels": [[0.3, 6.0, 1.0, -0.2], [1.2, 1.0, 0.0, 0.4]],
                         "duration": [2, 5]},
            },
            "grammars": {
                "stroll": {"probs": {"sway": 0.75, "jolt": 0.25}, "target_len": 30},
                "rest": {"probs": {"sway": 0.1, "jolt": 0.9}, "target_len": 20},
            },
            "users": [{"id": "ann", "amp_scale": 1.0, "noise_sigma": 0.1},
                      {"id": "bo", "amp_scale": 0.8, "noise_sigma": 0.2}],
        }
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"synth": synth}))
        out = tmp_path / "d"
        assert main(["gen-synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["classes"] == ["stroll", "rest"]
        assert manifest["users"] == ["ann", "bo"]
        assert manifest["q"] == 2 and len(manifest["files"]) == 4

        del synth["motifs"]["jolt"]["duration"]
        cfg.write_text(json.dumps({"synth": synth}))
        assert main(["gen-synth", "--config", str(cfg),
                     "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "duration" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "e").exists()

    def test_motif_without_channels_exit_2(self, tmp_path, capsys):
        synth = {
            "motifs": {"still": {"channels": [], "duration": [4, 8]}},
            "grammars": {"a": {"probs": {"still": 1.0}, "target_len": 10},
                         "b": {"probs": {"still": 1.0}, "target_len": 12}},
        }
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"synth": synth}))
        out = tmp_path / "d"
        assert main(["gen-synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "config error: bad synth config: motif 'still' has no channels\n")
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_history(self, workspace, checkpoint):
        assert os.path.exists(checkpoint)
        hist = json.loads(Path(checkpoint + ".history.json").read_text())
        assert len(hist["train_loss"]) == 2
        assert len(hist["val_macro_f1"]) == 2

    def test_same_seed_identical_checkpoint(self, workspace, checkpoint, tmp_path):
        out = tmp_path / "again.ckpt"
        assert main(["train", "--config", workspace["config"],
                     "--data", workspace["data"], "--held-out-user", "u4",
                     "--out", str(out), "--quiet"]) == 0
        assert sha(out) == sha(checkpoint)

    def test_seed_flag_overrides(self, workspace, checkpoint, tmp_path):
        out = tmp_path / "other.ckpt"
        assert main(["train", "--config", workspace["config"],
                     "--data", workspace["data"], "--held-out-user", "u4",
                     "--seed", "99", "--out", str(out), "--quiet"]) == 0
        assert sha(out) != sha(checkpoint)

    def test_unknown_user_exit_3(self, workspace, tmp_path, capsys):
        code = main(["train", "--config", workspace["config"],
                     "--data", workspace["data"], "--held-out-user", "u9",
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 3
        assert "u1" in capsys.readouterr().err  # lists available users

    def test_default_stride_is_half_the_crop_at_least_one(self):
        seg = ds.LabeledSegment(np.arange(1024.0)[:, None], 0, "u1")

        def offsets(cfg, n_target):
            return [int(crop.data[0, 0]) for crop in _crops(cfg, [seg], n_target)]

        assert offsets({}, 512) == [0, 256, 512]
        assert offsets({}, 1) == list(range(1024))  # r = z = 1
        assert offsets({"sampling": {"stride": 3}}, 512) == list(range(0, 513, 3))

    def test_mlp_model_kind(self, workspace, tmp_path):
        out = tmp_path / "mlp.ckpt"
        assert main(["train", "--config", workspace["config"],
                     "--data", workspace["data"], "--held-out-user", "u4",
                     "--model", "mlp", "--out", str(out), "--quiet"]) == 0
        assert os.path.exists(out)


def copy_data_cut(workspace, dst, users, rows):
    """Copy the workspace data directory, keeping only the first `rows` lines
    of every file of `users`."""
    src = Path(workspace["data"])
    manifest = json.loads((src / "manifest.json").read_text())
    for entry in manifest["files"]:
        lines = (src / entry["file"]).read_text().splitlines(keepends=True)
        (dst / entry["file"]).write_text("".join(
            lines[:rows] if entry["user"] in users else lines))
    (dst / "manifest.json").write_text(json.dumps(manifest))


class TestTrainValidatesAsEvaluateScores:
    """train splits the users before it crops, so its validation crops are
    the ones evaluate scores, and a crop longer than every segment of either
    side is refused before any training."""

    @pytest.mark.parametrize("model", ["charm", "mlp"])
    def test_last_val_macro_f1_is_evaluate_macro_f1(self, tmp_path, workspace, model):
        ckpt, report = tmp_path / "x.ckpt", tmp_path / "metrics.txt"
        assert main(["train", "--config", workspace["config"], "--data", workspace["data"],
                     "--held-out-user", "u4", "--model", model, "--out", str(ckpt),
                     "--quiet"]) == 0
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", workspace["data"],
                     "--held-out-user", "u4", "--out", str(report), "--quiet"]) == 0
        history = json.loads(Path(f"{ckpt}.history.json").read_text())
        kv = dict(line.split("=", 1) for line in report.read_text().splitlines())
        assert float(kv["macro_f1"]) == history["val_macro_f1"][-1]

    def test_held_out_user_shorter_than_the_crop_exit_3_as_evaluate(
            self, tmp_path, workspace, checkpoint, capsys):
        data = tmp_path / "data"
        data.mkdir()
        copy_data_cut(workspace, data, {"u4"}, 400)
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", str(data),
                     "--held-out-user", "u4"]) == 3
        err = capsys.readouterr().err
        assert err == ("data error: crop length 512 is longer than every segment "
                       "(the longest has 400 samples)\n")
        assert main(["train", "--config", workspace["config"], "--data", str(data),
                     "--held-out-user", "u4", "--out", str(tmp_path / "x.ckpt")]) == 3
        assert capsys.readouterr().err == err
        assert os.listdir(tmp_path) == ["data"]

    def test_training_users_shorter_than_the_crop_exit_3(self, tmp_path, workspace,
                                                         capsys):
        data = tmp_path / "data"
        data.mkdir()
        copy_data_cut(workspace, data, {"u1", "u2", "u3"}, 300)
        assert main(["train", "--config", workspace["config"], "--data", str(data),
                     "--held-out-user", "u4", "--out", str(tmp_path / "x.ckpt")]) == 3
        assert capsys.readouterr().err == ("data error: crop length 512 is longer than "
                                           "every segment (the longest has 300 samples)\n")
        assert os.listdir(tmp_path) == ["data"]


def _synth_segments():
    """The workspace's dataset built in memory: (segments, class names)."""
    scfg = cli.build_synth_config(SMALL_CONFIG)
    return synth.to_labeled_segments(synth.gen_dataset(scfg), scfg)


def _run_fold(cfg, segments, classes, held_out_user="u4", model="charm"):
    """cli.run_fold with the configs cmd_train builds for the same data."""
    mcfg = cli.build_charm_config(cfg, q=segments[0].data.shape[1], m=len(classes))
    if model == "mlp":
        mcfg = cli.build_mlp_config(cfg, n_target=mcfg.n_target, q=mcfg.q, m=mcfg.m)
    return cli.run_fold(cfg, segments, classes, held_out_user, model,
                        cli.build_train_config(cfg), mcfg)


class TestRunFold:
    """cli.run_fold called on in-memory segments, without argparse: it is the
    fold `charm train` runs on the files, and it refuses what `train` refuses,
    in the same order and with the same line, before any training."""

    @pytest.mark.parametrize("model", ["charm", "mlp"])
    def test_in_memory_fold_is_the_commands_fold(self, tmp_path, workspace, capsys, model):
        trained, history, n_train = _run_fold(SMALL_CONFIG, *_synth_segments(), model=model)
        save_checkpoint(trained.model, trained.stats, tmp_path / "memory.ckpt")
        out = tmp_path / "files.ckpt"
        assert main(["train", "--config", workspace["config"], "--data", workspace["data"],
                     "--held-out-user", "u4", "--model", model, "--out", str(out)]) == 0
        assert sha(tmp_path / "memory.ckpt") == sha(out)
        assert asdict(history) == json.loads(Path(f"{out}.history.json").read_text())
        assert capsys.readouterr().out.startswith(f"trained {model} on {n_train} samples ")

    @staticmethod
    def refusal(monkeypatch, segments, classes, held_out_user, cfg):
        def fail(*args, **kwargs):
            raise AssertionError("trained before the fold's refusals")
        monkeypatch.setattr(cli, "train", fail)
        with pytest.raises(ds.DataError) as refused:
            _run_fold({**SMALL_CONFIG, **cfg}, segments, classes, held_out_user)
        return f"data error: {refused.value}"

    # charm.r 4096 makes a crop of 131072 rows, longer than every segment:
    # each refusal before the crops comes first
    LONG_CROP = {"charm": {"r": 4096}}

    def test_unknown_user_first(self, monkeypatch, workspace, tmp_path, capsys):
        line = self.refusal(monkeypatch, *_synth_segments(), "u9", self.LONG_CROP)
        assert line == "data error: unknown user 'u9'; available users: " \
                       "['u1', 'u2', 'u3', 'u4']"
        assert main(["train", "--config", workspace["config"], "--data", workspace["data"],
                     "--held-out-user", "u9", "--out", str(tmp_path / "x.ckpt")]) == 3
        assert capsys.readouterr().err == line + "\n"

    def test_empty_training_set_second(self, monkeypatch):
        segments, classes = _synth_segments()
        only_u4 = [seg for seg in segments if seg.user_id == "u4"]
        assert self.refusal(monkeypatch, only_u4, classes, "u4", self.LONG_CROP) == \
            "data error: held-out user leaves an empty training set"

    def test_untrained_class_named_third(self, monkeypatch):
        segments, classes = _synth_segments()
        tidy = classes.index("tidy")
        moved = [replace(seg, user_id="u4") if seg.high_label == tidy else seg
                 for seg in segments]
        assert self.refusal(monkeypatch, moved, classes, "u4", self.LONG_CROP) == \
            "data error: class 'tidy' has no training samples"

    def test_crop_longer_than_every_training_segment_fourth(self, monkeypatch):
        segments, classes = _synth_segments()
        longest = max(len(seg.data) for seg in segments if seg.user_id != "u4")
        assert self.refusal(monkeypatch, segments, classes, "u4", self.LONG_CROP) == (
            f"data error: crop length 131072 is longer than every segment "
            f"(the longest has {longest} samples)")

    def test_crop_longer_than_every_held_out_segment_fifth(self, monkeypatch):
        segments, classes = _synth_segments()
        cut = [replace(seg, data=seg.data[:400]) if seg.user_id == "u4" else seg
               for seg in segments]
        assert self.refusal(monkeypatch, cut, classes, "u4", {}) == (
            "data error: crop length 512 is longer than every segment "
            "(the longest has 400 samples)")


class TestEvaluate:
    def test_report_formats_consistent(self, workspace, checkpoint, tmp_path, capsys):
        out = tmp_path / "metrics.txt"
        assert main(["evaluate", "--checkpoint", checkpoint,
                     "--data", workspace["data"], "--held-out-user", "u4",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        kv = dict(line.split("=", 1)
                  for line in out.read_text().strip().splitlines())
        macro_f1 = float(kv["macro_f1"])
        assert f"{macro_f1:7.4f}" in text  # text table shows the same value

    def test_row_order_matches_class_order(self, workspace, checkpoint, capsys):
        assert main(["evaluate", "--checkpoint", checkpoint,
                     "--data", workspace["data"], "--held-out-user", "u4"]) == 0
        text = capsys.readouterr().out
        rows = [line.split()[0] for line in text.splitlines()[1:5]]
        assert rows == ["routine", "brew", "meal", "tidy"]

    def test_bad_checkpoint_exit_4(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert main(["evaluate", "--checkpoint", str(bad),
                     "--data", workspace["data"], "--held-out-user", "u4"]) == 4

    def test_missing_checkpoint_exit_4(self, workspace, tmp_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", workspace["data"], "--held-out-user", "u4"]) == 4

    @pytest.mark.parametrize("old, new, key", [
        (b'"r": 16,', b'"r": 16.5,', "r"),
        (b'"low_out_activation": true', b'"low_out_activation": "no"', "low_out_activation"),
        (b'"leaky_slope": 0.01,', b'"leaky_slope": 5.0,', "leaky_slope"),
    ])
    def test_bad_header_config_exit_4(self, workspace, checkpoint, tmp_path, capsys,
                                      old, new, key):
        blob = Path(checkpoint).read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(old, new, 1))
        assert bad.read_bytes() != blob
        assert main(["evaluate", "--checkpoint", str(bad),
                     "--data", workspace["data"], "--held-out-user", "u4"]) == 4
        err = capsys.readouterr().err
        assert f"{key} must be" in err and len(err.splitlines()) == 1


class TestEmbed:
    def test_csv_has_all_motifs(self, workspace, checkpoint, tmp_path):
        out = tmp_path / "emb.csv"
        assert main(["embed", "--checkpoint", checkpoint,
                     "--data", workspace["data"], "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().strip().splitlines()
        labels = {line.split(",")[2] for line in lines[1:]}
        assert labels == {"swing", "reach", "twist", "tap", "lift", "shake",
                          "glide", "press"}

    def embed_lines(self, workspace, checkpoint, out, capsys):
        assert main(["embed", "--checkpoint", checkpoint, "--data", workspace["data"],
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        n = int(lines[0].split()[0])
        assert lines[0] == f"{n} label-pure windows, 8 labels -> {out}"
        assert len(out.read_text().splitlines()) == n + 1
        return n, lines[1]

    def test_silhouette_line_names_the_sample(self, workspace, checkpoint, tmp_path, capsys,
                                              monkeypatch):
        n, line = self.embed_lines(workspace, checkpoint, tmp_path / "emb.csv", capsys)
        assert n < embed.SILHOUETTE_SAMPLE
        assert re.fullmatch(rf"silhouette: -?[01]\.\d{{4}} \({n} of {n} windows\)", line)
        monkeypatch.setattr(embed, "SILHOUETTE_SAMPLE", 100)
        _, line = self.embed_lines(workspace, checkpoint, tmp_path / "emb.csv", capsys)
        assert re.fullmatch(rf"silhouette: -?[01]\.\d{{4}} \(100 of {n} windows\)", line)

    def test_sample_of_one_label_prints_undefined(self, workspace, checkpoint, tmp_path,
                                                  capsys, monkeypatch):
        out = tmp_path / "emb.csv"
        n, _ = self.embed_lines(workspace, checkpoint, out, capsys)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        monkeypatch.setattr(embed, "SILHOUETTE_SAMPLE", 3)
        grouping = tmp_path / "groups.txt"
        # the motifs of the 3 scored windows become one label; the others stay
        grouping.write_text("".join(f"{rows[i][2]}=scored\n"
                                    for i in np.linspace(0, n - 1, 3, dtype=int)))
        assert main(["embed", "--checkpoint", checkpoint, "--data", workspace["data"],
                     "--grouping", str(grouping), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == (f"silhouette: undefined (3 of {n} windows, "
                                                "all one label)")
        assert captured.err == ""
        assert len(out.read_text().splitlines()) == n + 1

    def test_grouping_file_merges_labels(self, workspace, checkpoint, tmp_path):
        grouping = tmp_path / "groups.txt"
        grouping.write_text(
            "# motion-style grouping\n"
            "swing=armwork\nreach=armwork\ntwist=armwork\ntap=armwork\n"
            "lift=bodywork\nshake=bodywork\nglide=bodywork\npress=bodywork\n")
        out = tmp_path / "emb.csv"
        assert main(["embed", "--checkpoint", checkpoint,
                     "--data", workspace["data"], "--grouping", str(grouping),
                     "--out", str(out), "--quiet"]) == 0
        labels = {line.split(",")[2]
                  for line in out.read_text().strip().splitlines()[1:]}
        assert labels == {"armwork", "bodywork"}

    def test_grouping_into_one_label_exit_3(self, workspace, checkpoint, tmp_path,
                                            capsys):
        grouping = tmp_path / "groups.txt"
        grouping.write_text("".join(f"{m}=all\n" for m in (
            "swing", "reach", "twist", "tap", "lift", "shake", "glide", "press")))
        out = tmp_path / "emb.csv"
        assert main(["embed", "--checkpoint", checkpoint,
                     "--data", workspace["data"], "--grouping", str(grouping),
                     "--out", str(out)]) == 3
        assert "2 distinct labels" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_null_token_skips_windows(self, workspace, checkpoint, tmp_path):
        def none_motif_on_first_32_rows(text):
            lines = text.split("\n")
            for i in range(32):  # two r=16 windows
                lines[i] = lines[i].rsplit(",", 1)[0] + ",none"
            return "\n".join(lines)

        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_file=none_motif_on_first_32_rows,
                       edit_manifest=_set("schema", "null_label_token", "none"))
        out = tmp_path / "emb.csv"
        assert main(["embed", "--checkpoint", checkpoint, "--data", str(data),
                     "--out", str(out), "--quiet"]) == 0
        labels = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert labels and "none" not in labels

    def test_missing_track_exit_3(self, workspace, checkpoint, tmp_path):
        assert main(["embed", "--checkpoint", checkpoint,
                     "--data", workspace["data"], "--track", "locomotion",
                     "--out", str(tmp_path / "e.csv")]) == 3

    def test_one_low_level_output_exit_4(self, workspace, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "charm": {"low_out": 1}}))
        ckpt = str(tmp_path / "low1.ckpt")
        assert main(["train", "--config", str(config), "--data", workspace["data"],
                     "--held-out-user", "u4", "--out", ckpt, "--quiet"]) == 0
        out = tmp_path / "emb.csv"
        assert main(["embed", "--checkpoint", ckpt, "--data", workspace["data"],
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == ("checkpoint error: embedding extraction needs low_out >= 2 "
                       "for a 2-D PCA, checkpoint has 1\n")
        assert not out.exists()


class TestFeatures:
    def test_feature_table(self, workspace, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["features", "--data", workspace["data"],
                     "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(header) == 2 + 5 * 6  # id, label, 5 features x 6 channels
        assert len(lines) == 1 + 4 * 4 * 2

    def test_cr_comma_and_quote_in_file_names_read_back_whole(self, tmp_path):
        data = tmp_path / "data"
        assert main(["gen-synth", "--seed", "42", "--out", str(data), "--quiet"]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        renamed = {0: "lone\rcr.csv", 1: 'a,b "c".csv'}  # manifest position -> new name
        for i, name in renamed.items():
            (data / manifest["files"][i]["file"]).rename(data / name)
            manifest["files"][i]["file"] = name
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "features.csv"
        assert main(["features", "--data", str(data), "--out", str(out), "--quiet"]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 320
        assert all(len(row) == len(header) == 2 + 5 * 6 for row in rows)
        for i, name in renamed.items():  # one segment per file, in manifest order
            assert re.fullmatch(re.escape(name) + r"\[0:\d+\]", rows[i][0]), rows[i][0]

    def test_missing_data_dir_exit_3(self, tmp_path):
        assert main(["features", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "f.csv")]) == 3

    @pytest.mark.parametrize("drop", [None, "schema", "files", "classes", "q"])
    def test_bad_manifest_exit_3(self, workspace, tmp_path, capsys, drop):
        with open(os.path.join(workspace["data"], "manifest.json")) as fh:
            manifest = json.load(fh)
        if drop is None:
            manifest = [manifest]  # valid JSON, not an object
        else:
            del manifest[drop]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["features", "--data", str(tmp_path),
                     "--out", str(tmp_path / "f.csv")]) == 3
        err = capsys.readouterr().err
        assert "manifest must be a JSON object" in err and len(err.splitlines()) == 1


def copy_data_with(workspace, dst, edit_file=None, edit_manifest=None):
    """Copy the workspace data directory, applying an edit to the text of its
    first data file and/or to the parsed manifest."""
    src = workspace["data"]
    with open(os.path.join(src, "manifest.json")) as fh:
        manifest = json.load(fh)
    first = manifest["files"][0]["file"]
    for entry in manifest["files"]:
        with open(os.path.join(src, entry["file"])) as fh:
            text = fh.read()
        if edit_file and entry["file"] == first:
            text = edit_file(text)
        (dst / entry["file"]).write_text(text)
    if edit_manifest:
        edit_manifest(manifest)
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return first


def put_on_line_3(token):
    """An edit that puts `token` in field 1 of line 3 of a data file's text."""
    def edit(text):
        lines = text.split("\n")
        fields = lines[2].split(",")
        fields[1] = token
        lines[2] = ",".join(fields)
        return "\n".join(lines)
    return edit


class TestNonFiniteValues:
    @pytest.mark.parametrize("cmd", ["train", "features"])
    def test_inf_exit_3_no_output(self, tmp_path, workspace, capsys, cmd):
        data = tmp_path / "data"
        data.mkdir()
        first = copy_data_with(workspace, data, edit_file=put_on_line_3("inf"))
        out = tmp_path / "out"
        args = {"train": ["train", "--config", workspace["config"],
                          "--held-out-user", "u4"],
                "features": ["features"]}[cmd]
        assert main(args + ["--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{first}:3: non-finite value 'inf' in column 1" in err
        assert os.listdir(tmp_path) == ["data"]

    @pytest.mark.parametrize("cmd, message", [
        ("embed", "data error: embedding analysis: the embeddings' 2-D PCA is not finite"),
        ("features", "data error: {first}[0:768]: a hand-crafted feature is not finite"),
    ], ids=["embed", "features"])
    def test_finite_value_near_the_float_limit_exit_3_no_output(
            self, tmp_path, workspace, checkpoint, capsys, cmd, message):
        # 1e308 is finite, so the loader takes it; the embedding's PCA and the
        # variance overflow, with no numpy warning (pyproject makes one an error)
        data = tmp_path / "data"
        data.mkdir()
        first = copy_data_with(workspace, data, edit_file=put_on_line_3("1e308"))
        args = {"embed": ["embed", "--checkpoint", checkpoint], "features": ["features"]}[cmd]
        assert main(args + ["--data", str(data), "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(message.format(first=first)) and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["data"]


class TestHugeFiniteValues:
    """A finite value the loader takes, far from the float limit: a 0 exit
    writes only finite numbers, and a value whose channel std overflows is
    refused before any file is written."""

    @pytest.fixture
    def data_with(self, tmp_path, workspace):
        def make(token):
            data = tmp_path / "data"
            data.mkdir()
            first = copy_data_with(workspace, data, edit_file=put_on_line_3(token))
            manifest = json.loads((data / "manifest.json").read_text())
            assert next(e["user"] for e in manifest["files"] if e["file"] == first) != "u4"
            return str(data)
        return make

    def test_1e150_train_and_embed_exit_0_finite(self, tmp_path, workspace, data_with,
                                                 capsys):
        data, ckpt = data_with("1e150"), tmp_path / "x.ckpt"
        assert main(["train", "--config", workspace["config"], "--data", data,
                     "--held-out-user", "u4", "--out", str(ckpt), "--quiet"]) == 0
        history = json.loads(Path(f"{ckpt}.history.json").read_text())
        assert all(np.isfinite(values).all() for values in history.values())
        model, stats = load_checkpoint(ckpt)
        assert all(np.isfinite(a).all() for a in (model.params, stats.means, stats.stds))
        assert main(["embed", "--checkpoint", str(ckpt), "--data", data,
                     "--out", str(tmp_path / "emb.csv")]) == 0
        captured = capsys.readouterr()
        score = re.search(r"^silhouette: (\S+) \(", captured.out, re.M).group(1)
        assert -1.0 <= float(score) <= 1.0 and captured.err == ""

    def test_1e160_train_exit_3_no_output(self, tmp_path, workspace, data_with, capsys):
        data = data_with("1e160")
        assert main(["train", "--config", workspace["config"], "--data", data,
                     "--held-out-user", "u4", "--out", str(tmp_path / "x.ckpt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: training data cannot be normalized")
        assert len(err.splitlines()) == 1 and os.listdir(tmp_path) == ["data"]


def _drop(*path):
    def edit(manifest):
        node = manifest
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def _set(*path):
    *keys, value = path

    def edit(manifest):
        node = manifest
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


class TestManifestValidation:
    @pytest.mark.parametrize("edit, message", [
        pytest.param(_drop("schema", "delimiter"), "'schema' must be an object with keys",
                     id="schema-no-delimiter"),
        pytest.param(_drop("schema", "channel_columns"),
                     "'schema' must be an object with keys", id="schema-no-channels"),
        pytest.param(_drop("schema", "high_label_column"),
                     "'schema' must be an object with keys", id="schema-no-high-label"),
        pytest.param(_set("schema", ["delimiter"]), "'schema' must be an object with keys",
                     id="schema-not-object"),
        pytest.param(_set("schema", {"delimiter": ",", "channel_columns": [0, 1],
                                     "high_label_column": 1}),
                     "bad manifest schema: ", id="schema-shared-column"),
        pytest.param(_set("schema", {"delimiter": ",", "channel_columns": [0.0, 1],
                                     "high_label_column": 2}),
                     "bad manifest schema: ", id="schema-float-column"),
        pytest.param(_drop("files", 0, "file"), "'files' must be a list of objects",
                     id="entry-no-file"),
        pytest.param(_drop("files", 1, "user"), "'files' must be a list of objects",
                     id="entry-no-user"),
        pytest.param(_set("files", {"file": "x.csv", "user": "u1"}),
                     "'files' must be a list of objects", id="files-not-list"),
        pytest.param(_set("files", ["x.csv"]), "'files' must be a list of objects",
                     id="entry-not-object"),
        pytest.param(_set("q", 5), "manifest 'q' is 5 but the schema has 6 channel columns",
                     id="q-not-channel-count"),
        pytest.param(_set("classes", "routine"), "'classes' must be a list of at least 2 "
                     "distinct names", id="classes-not-list"),
        pytest.param(_set("classes", ["routine"]), "'classes' must be a list of at least 2 "
                     "distinct names", id="classes-one-name"),
        pytest.param(_set("classes", ["routine", "brew", "routine"]),
                     "'classes' must be a list of at least 2 distinct names",
                     id="classes-duplicate"),
        pytest.param(_set("schema", "low_label_columns", [7]), "bad manifest schema: ",
                     id="schema-low-labels-not-object"),
        pytest.param(_set("schema", "delimiter", [","]), "bad manifest schema: ",
                     id="schema-delimiter-not-string"),
        pytest.param(_set("schema", "null_label_token", 5), "bad manifest schema: ",
                     id="schema-null-token-not-string"),
        pytest.param(_set("schema", "high_label_column", True), "bad manifest schema: ",
                     id="schema-high-label-bool"),
        pytest.param(_set("schema", "channel_columns", []),
                     "bad manifest schema: schema needs at least one channel column",
                     id="schema-no-channel-columns"),
        pytest.param(_set("schema", "delimiter", ",;"),
                     "bad manifest schema: delimiter must be a single character",
                     id="schema-two-character-delimiter"),
    ])
    def test_bad_schema_or_files_exit_3(self, tmp_path, workspace, capsys, edit, message):
        copy_data_with(workspace, tmp_path, edit_manifest=edit)
        out = tmp_path / "f.csv"
        assert main(["features", "--data", str(tmp_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()


_BAD_USERS = [{"id": "a", "amp_scale": 1.0, "noise_sigma": 0.1},
              {"id": "b", "amp_scale": 1.0, "noise_sigma": -0.1}]
def _three_channels(manifest):
    manifest["schema"]["channel_columns"] = [0, 1, 2]
    manifest["q"] = 3


def _first_two_classes(manifest):
    manifest["classes"] = manifest["classes"][:2]
    manifest["files"] = [f for f in manifest["files"] if f["class"] in manifest["classes"]]


class TestCheckpointDataMismatch:
    """The workspace checkpoint was trained on 6 channels and 4 classes."""

    @pytest.mark.parametrize("cmd, edit, message", [
        ("embed", _three_channels, "data has 3 channels, checkpoint expects 6"),
        ("evaluate", _three_channels, "data has 3 channels, checkpoint expects 6"),
        ("embed", _set("classes", ["routine", "brew", "meal", "tidy", "nap"]),
         "data has 5 classes, checkpoint expects 4"),
        ("evaluate", _set("classes", ["routine", "brew", "meal", "tidy", "nap"]),
         "data has 5 classes, checkpoint expects 4"),
        ("evaluate", _first_two_classes, "data has 2 classes, checkpoint expects 4"),
    ], ids=["embed-3-channels", "evaluate-3-channels", "embed-5-classes",
            "evaluate-5-classes", "evaluate-2-classes"])
    def test_exit_3_one_line_no_output(self, tmp_path, workspace, checkpoint, capsys,
                                       cmd, edit, message):
        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_manifest=edit)
        out = tmp_path / "out"
        extra = ["--held-out-user", "u4"] if cmd == "evaluate" else []
        assert main([cmd, "--checkpoint", checkpoint, "--data", str(data),
                     "--out", str(out)] + extra) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {message}\n"
        assert not out.exists()


_BAD_MOTIFS = {"sway": {"channels": [["x", 2.0, 0.0, 0.1]], "duration": [4, 8]}}


def _synth_named(classes=("a", "b"), motif="swing", users=("u1", "u2")):
    """A synth section whose only fault can be one of the names given."""
    return {"motifs": {motif: {"channels": [[1.0, 2.0, 0.0, 0.1]], "duration": [4, 8]}},
            "grammars": {c: {"probs": {motif: 1.0}, "target_len": 64} for c in classes},
            "users": [{"id": u, "amp_scale": 1.0, "noise_sigma": 0.1} for u in users]}


class TestBadConfigValue:
    """One wrong-type and one out-of-range value per config section."""

    @pytest.mark.parametrize("section, key, value, flags", [
        pytest.param("train", "epochs", 2.5, [], id="train-epochs-float"),
        pytest.param("train", "epochs", True, [], id="train-epochs-bool"),
        pytest.param("train", "lr", float("nan"), [], id="train-lr-nan"),
        pytest.param("train", "seed", -1, [], id="train-seed-negative"),
        pytest.param("train", "seed", None, ["--seed", "-1"], id="seed-flag-negative"),
        pytest.param("charm", "r", 16.5, [], id="charm-r-float"),
        pytest.param("charm", "leaky_slope", "x", [], id="charm-slope-string"),
        pytest.param("charm", "leaky_slope", 1.5, [], id="charm-slope-above-1"),
        pytest.param("mlp", "leaky_slope", -0.5, ["--model", "mlp"], id="mlp-slope-negative"),
        pytest.param("charm", "z", 0, [], id="charm-z-zero"),
        pytest.param("mlp", "hidden", 8.5, ["--model", "mlp"], id="mlp-hidden-float"),
        pytest.param("mlp", "dropout_p", 1.5, ["--model", "mlp"], id="mlp-dropout-above-1"),
        pytest.param("sampling", "stride", 0, [], id="sampling-stride-zero"),
        pytest.param("sampling", "stride", -4, [], id="sampling-stride-negative"),
        pytest.param("sampling", "stride", 2.5, [], id="sampling-stride-float"),
        pytest.param("sampling", "stride", "x", [], id="sampling-stride-string"),
        pytest.param("synth", "samples_per_class_per_user", 2.5, [], id="synth-samples-float"),
        pytest.param("synth", "seed", True, [], id="synth-seed-bool"),
        pytest.param("synth", "sample_rate_hz", 0, [], id="synth-rate-zero"),
        pytest.param("synth", "users", _BAD_USERS, [], id="synth-user-noise-negative"),
        pytest.param("synth", "motifs", _BAD_MOTIFS, [], id="synth-motif-amplitude-string"),
    ])
    def test_exit_2_one_line_no_output(self, tmp_path, workspace, capsys,
                                       section, key, value, flags):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({} if value is None else {section: {key: value}}))
        out = tmp_path / "out"
        if section == "synth":
            args = ["gen-synth"]
        else:
            args = ["train", "--data", workspace["data"], "--held-out-user", "u4"]
        assert main(args + flags + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        named = {"users": "noise_sigma", "motifs": "amplitude"}.get(key, key)
        assert f"{named} must be" in err and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("section, bad", [
        pytest.param(_synth_named(classes=("rou,tine", "b")), "rou,tine", id="synth-class-comma"),
        pytest.param(_synth_named(classes=(" routine", "b")), " routine", id="synth-class-space"),
        pytest.param(_synth_named(classes=("null", "b")), "null", id="synth-class-null"),
        pytest.param(_synth_named(classes=("a\nb", "b")), "a\nb", id="synth-class-newline"),
        pytest.param(_synth_named(classes=("a/b", "b")), "a/b", id="synth-class-slash"),
        pytest.param(_synth_named(motif="a,b"), "a,b", id="synth-motif-comma"),
        pytest.param(_synth_named(motif="null"), "null", id="synth-motif-null"),
        pytest.param(_synth_named(motif="a\rb"), "a\rb", id="synth-motif-cr"),
        pytest.param(_synth_named(motif="a "), "a ", id="synth-motif-trailing-space"),
        pytest.param(_synth_named(users=("a/b", "b")), "a/b", id="synth-user-slash"),
        pytest.param(_synth_named(users=("a\0b", "b")), "a\x00b", id="synth-user-nul"),
        pytest.param(_synth_named(users=("1_a", "1")), "1_a", id="synth-user-underscore"),
        pytest.param(_synth_named(users=("u1", "u2", "u1")), "u1", id="synth-user-repeated"),
    ])
    def test_name_the_files_cannot_carry_exit_2(self, tmp_path, capsys, section, bad):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": section}))
        assert main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "must hold no" in err and repr(bad) in err and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_names_the_files_carry_load_back(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": _synth_named(classes=("a b", "c-d"), motif="e.f")}))
        assert main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        segments, classes, _ = load_data_dir(tmp_path / "out")
        assert classes == ("a b", "c-d") and len(segments) == 2 * 2 * 20
        assert {lab for seg in segments for lab in seg.low_label_tracks["motif"]} == {"e.f"}

    @pytest.mark.parametrize("cmd", ["evaluate", "embed", "features"])
    def test_every_command_checks_every_section(self, tmp_path, workspace, checkpoint,
                                                capsys, cmd):
        # none of these three reads the train section; a bad value still fails
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"train": {"epochs": 2.5}}))
        out = tmp_path / "out"
        args = {"evaluate": ["--checkpoint", checkpoint, "--held-out-user", "u4"],
                "embed": ["--checkpoint", checkpoint],
                "features": []}[cmd]
        assert main([cmd, "--data", workspace["data"], "--config", str(cfg),
                     "--out", str(out)] + args) == 2
        err = capsys.readouterr().err
        assert "epochs must be" in err and len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == ["config.json"]


class TestNotUtf8:
    @pytest.mark.parametrize("target, code", [
        ("config", 2), ("grouping", 2), ("manifest", 3), ("sensor file", 3)])
    def test_exit_code_one_line(self, tmp_path, workspace, checkpoint, capsys,
                                target, code):
        data = tmp_path / "data"
        data.mkdir()
        first = copy_data_with(workspace, data)
        out = tmp_path / "out"
        bad, args = {
            "config": (tmp_path / "config.json", ["gen-synth", "--config"]),
            "grouping": (tmp_path / "groups.txt",
                         ["embed", "--checkpoint", checkpoint, "--data", str(data),
                          "--grouping"]),
            "manifest": (data / "manifest.json", ["features", "--data", str(data)]),
            "sensor file": (data / first, ["features", "--data", str(data)]),
        }[target]
        original = bad.read_bytes() if bad.exists() else b"{}"
        bad.write_bytes(b"\xff" + original)
        if target in ("config", "grouping"):
            args.append(str(bad))
        assert main(args + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert str(bad) in err and len(err.splitlines()) == 1
        assert not out.exists()


def _keep_first_file(manifest):
    manifest["files"] = manifest["files"][:1]


def _field_1_on_line_3(token):
    def edit(text):
        lines = text.split(b"\n")
        fields = lines[2].split(b",")
        fields[1] = token
        lines[2] = b",".join(fields)
        return b"\n".join(lines)
    return edit


def _line_3_short(text):
    lines = text.split(b"\n")
    lines[2] = b",".join(lines[2].split(b",")[:3])
    return b"\n".join(lines)


def _every_line_short(text):
    return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in text.splitlines())


def _extra_field_on_every_other_line(text):
    return b"\n".join(line + b",x" if i % 2 and line else line
                      for i, line in enumerate(text.split(b"\n")))


# id: (edit of a sensor file's bytes, the message after the file's path when
# the edited file is refused, or whether its features equal the clean file's
# when it loads)
LOADER_MUTATIONS = {
    "non-numeric": (_field_1_on_line_3(b"oops"), ":3: bad numeric value 'oops' in column 1"),
    "short-row": (_line_3_short, ":3: expected >= 8 fields, got 3"),
    "every-row-short": (_every_line_short, ":1: expected >= 8 fields, got 7"),
    "inf": (_field_1_on_line_3(b"inf"), ":3: non-finite value 'inf' in column 1"),
    "1e500": (_field_1_on_line_3(b"1e500"), ":3: non-finite value '1e500' in column 1"),
    "not-utf-8": (_field_1_on_line_3(b"\xff"), ": not UTF-8 text: 'utf-8' codec can't "
                                               "decode byte 0xff in position "),
    "empty": (lambda text: b"", ": no usable rows"),
    "whitespace-only": (lambda text: b" \t \n  \n", ": no usable rows"),
    "whitespace-channel-field": (_field_1_on_line_3(b"  "), False),
    "ragged": (_extra_field_on_every_other_line, True),
}


class TestLoaderRefusals:
    """Each edit of a sensor file, made as it stands and with a blank line
    appended, ends the same through `charm features`: one stderr line, exit 3
    and no output file, or the same output when the file loads."""

    @pytest.mark.parametrize("mutation", LOADER_MUTATIONS)
    def test_same_with_a_blank_line_appended(self, tmp_path, workspace, capsys, mutation):
        edit, expected = LOADER_MUTATIONS[mutation]
        data = tmp_path / "data"
        data.mkdir()
        path = data / copy_data_with(workspace, data, edit_manifest=_keep_first_file)
        clean = path.read_bytes()
        text = edit(clean)
        results = []
        for variant in (clean, text, text + b"\n"):
            path.write_bytes(variant)
            out = tmp_path / "features.csv"
            code = main(["features", "--data", str(data), "--out", str(out), "--quiet"])
            results.append((code, capsys.readouterr().err,
                            out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        clean_code, clean_err, clean_features = results.pop(0)
        assert (clean_code, clean_err) == (0, "") and clean_features
        assert results[0] == results[1]
        code, err, written = results[0]
        if isinstance(expected, bool):
            assert (code, err) == (0, "") and written
            assert (written == clean_features) == expected
        else:
            assert code == 3 and written is None
            assert err.startswith(f"data error: {path}{expected}")
            assert len(err.splitlines()) == 1 and "Traceback" not in err


def _null_high_labels(text):
    rows = [line.split(",") for line in text.split("\n") if line]
    return "".join(",".join(row[:6] + ["null"] + row[7:]) + "\n" for row in rows)


def _edited(edit):
    """A checkpoint corruption that calls edit(header, payload) on the parsed
    header and a mutable copy of the payload, and writes both back."""
    def corrupt(blob):
        header, payload = blob[len(MAGIC):].split(b"\n", 1)
        header, payload = json.loads(header), bytearray(payload)
        edit(header, payload)
        return MAGIC + json.dumps(header).encode() + b"\n" + bytes(payload)
    return corrupt


def _short_channel_stats(header, payload):
    header["channel_means"] = header["channel_means"][:5]
    header["channel_stds"] = header["channel_stds"][:5]


def _nan_channel_std(header, payload):
    header["channel_stds"][0] = float("nan")


def _inf_channel_mean(header, payload):
    header["channel_means"][0] = float("inf")


def _nan_weight(header, payload):
    payload[8:16] = struct.pack("<d", float("nan"))


def _huge_z(header, payload):
    header["config"]["z"] = 10**9


def _huge_z_and_shapes(header, payload):
    _huge_z(header, payload)
    header["shapes"][4][1] = 10**9 * header["config"]["low_out"]


def _billion_mlp_layers(header, payload):
    header["kind"], header["config"] = "mlp", {"layers": 10**9}


def _version_2(header, payload):
    header["version"] = 2


def _unknown_kind(header, payload):
    header["kind"] = "lstm"


def _wider_first_shape(header, payload):
    header["shapes"][0][0] += 1


UNWRITABLE = ["missing-directory", "not-a-directory", "is-a-directory"]


class TestErrorLines:
    """User-facing failures: the exit code, one stderr line and no output."""

    @staticmethod
    def fails(args, out, code, message, capsys):
        assert main(args + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    @staticmethod
    def unwritable(tmp_path, where):
        """An output path that cannot be written, and the error line naming it."""
        if where == "is-a-directory":
            path = tmp_path / "adir"
            path.mkdir()
            return path, f"i/o error: [Errno 21] Is a directory: '{path}'"
        if where == "missing-directory":
            path = tmp_path / "nodir" / "x"
            return path, f"i/o error: [Errno 2] No such file or directory: '{path}'"
        (tmp_path / "afile").write_text("")
        path = tmp_path / "afile" / "x"
        return path, f"i/o error: [Errno 20] Not a directory: '{path}'"

    @pytest.mark.parametrize("where", UNWRITABLE)
    @pytest.mark.parametrize("cmd", ["evaluate", "embed", "features"])
    def test_unwritable_out_named_exit_1(self, tmp_path, workspace, checkpoint,
                                         monkeypatch, capsys, cmd, where):
        def loads(*_, **__):
            raise AssertionError(f"{cmd} read the data before refusing its output path")

        monkeypatch.setattr(cli, "load_data_dir", loads)
        out, message = self.unwritable(tmp_path, where)
        before = sorted(os.walk(tmp_path))
        args = {"evaluate": ["--checkpoint", checkpoint, "--held-out-user", "u4"],
                "embed": ["--checkpoint", checkpoint],
                "features": []}[cmd]
        assert main([cmd, "--data", workspace["data"], "--quiet", "--out", str(out)] + args) == 1
        assert capsys.readouterr().err == message + "\n"
        assert sorted(os.walk(tmp_path)) == before

    @pytest.mark.parametrize("where", UNWRITABLE)
    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_train_unwritable_out_refused_before_loading(
            self, tmp_path, workspace, monkeypatch, capsys, flag, where):
        def loads(*_, **__):
            raise AssertionError("train read the data before refusing its output path")

        monkeypatch.setattr(cli, "load_data_dir", loads)
        bad, message = self.unwritable(tmp_path, where)
        before = sorted(os.walk(tmp_path))
        out, history = ((bad, tmp_path / "h.json") if flag == "--out"
                        else (tmp_path / "x.ckpt", bad))
        assert main(["train", "--config", workspace["config"], "--data", workspace["data"],
                     "--held-out-user", "u4", "--out", str(out), "--history", str(history),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert sorted(os.walk(tmp_path)) == before

    @pytest.mark.parametrize("history", ["x.ckpt", "./x.ckpt"])
    def test_history_on_the_checkpoint_refused_before_loading(
            self, tmp_path, workspace, monkeypatch, capsys, history):
        def loads(*_, **__):
            raise AssertionError("train read the data before refusing its history path")

        monkeypatch.setattr(cli, "load_data_dir", loads)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", workspace["config"], "--data", workspace["data"],
                     "--held-out-user", "u4", "--out", "x.ckpt", "--history", history,
                     "--quiet"]) == 2
        assert capsys.readouterr().err == (f"config error: --history {history} would "
                                           "overwrite the --out checkpoint\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("cmd, target", [
        ("evaluate", "checkpoint"), ("evaluate", "config"), ("evaluate", "manifest"),
        ("embed", "checkpoint"), ("embed", "config"), ("embed", "grouping"),
        ("embed", "manifest"), ("features", "config"), ("features", "manifest")])
    def test_out_on_an_input_refused_before_loading(self, tmp_path, workspace, checkpoint,
                                                    monkeypatch, capsys, cmd, target):
        def loads(*_, **__):
            raise AssertionError(f"{cmd} read the data before refusing its output path")

        monkeypatch.setattr(cli, "load_data_dir", loads)
        (tmp_path / "data").mkdir()
        inputs = {"checkpoint": tmp_path / "model.ckpt", "config": tmp_path / "config.json",
                  "grouping": tmp_path / "groups.txt",
                  "manifest": tmp_path / "data" / "manifest.json"}
        inputs["checkpoint"].write_bytes(Path(checkpoint).read_bytes())
        inputs["config"].write_bytes(Path(workspace["config"]).read_bytes())
        inputs["grouping"].write_text("swing=arm\n")
        inputs["manifest"].write_bytes((Path(workspace["data"]) / "manifest.json").read_bytes())
        before = {name: path.read_bytes() for name, path in inputs.items()}
        args = {"evaluate": ["--checkpoint", inputs["checkpoint"], "--held-out-user", "u4"],
                "embed": ["--checkpoint", inputs["checkpoint"], "--grouping", inputs["grouping"]],
                "features": []}[cmd]
        monkeypatch.chdir(tmp_path)
        out = os.path.relpath(inputs[target])  # the input spelled another way
        assert main([cmd, "--config", str(inputs["config"]), "--data", str(tmp_path / "data"),
                     *map(str, args), "--out", out, "--quiet"]) == 2
        name = "--data manifest" if target == "manifest" else f"--{target}"
        assert capsys.readouterr().err == f"config error: --out {out} would overwrite the {name}\n"
        assert {name: path.read_bytes() for name, path in inputs.items()} == before

    def test_missing_grouping_exit_2(self, tmp_path, workspace, checkpoint, capsys):
        grouping = tmp_path / "nope.txt"
        self.fails(["embed", "--checkpoint", checkpoint, "--data", workspace["data"],
                    "--grouping", str(grouping)], tmp_path / "emb.csv", 2,
                   f"config error: cannot read grouping: [Errno 2] No such file or directory: "
                   f"'{grouping}'", capsys)

    def test_embed_mlp_checkpoint_exit_4(self, tmp_path, workspace, capsys):
        ckpt = tmp_path / "mlp.ckpt"
        save_checkpoint(MlpModel.init(MlpConfig(n_target=512, q=6, m=4), make_rng(0)),
                        ChannelStats(np.zeros(6), np.ones(6)), ckpt)
        self.fails(["embed", "--checkpoint", str(ckpt), "--data", workspace["data"]],
                   tmp_path / "emb.csv", 4,
                   "checkpoint error: embedding extraction requires a charm checkpoint",
                   capsys)

    @pytest.mark.parametrize("kind, cfg", [
        (MlpModel, MlpConfig(n_target=512, q=6, m=4)),
        (CharmModel, CharmConfig(r=16, q=6, z=32, m=4, low_out=1)),
    ], ids=["mlp", "low-out-1"])
    def test_embed_checkpoint_refused_before_loading(self, tmp_path, workspace, monkeypatch,
                                                     capsys, kind, cfg):
        def loads(*_, **__):
            raise AssertionError("embed read the data before refusing its checkpoint")

        monkeypatch.setattr(cli, "load_data_dir", loads)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(kind.init(cfg, make_rng(0)), ChannelStats(np.zeros(6), np.ones(6)), ckpt)
        self.fails(["embed", "--checkpoint", str(ckpt), "--data", workspace["data"]],
                   tmp_path / "emb.csv", 4, "checkpoint error: embedding extraction ", capsys)

    def test_embed_degenerate_embedding_exit_3(self, tmp_path, workspace, capsys):
        model = CharmModel.init(CharmConfig(r=16, q=6, z=32, m=4), make_rng(0))
        model.params[:] = 0.0  # every window embeds to the same point
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(model, ChannelStats(np.zeros(6), np.ones(6)), ckpt)
        self.fails(["embed", "--checkpoint", str(ckpt), "--data", workspace["data"]],
                   tmp_path / "emb.csv", 3,
                   "data error: embedding analysis: degenerate input: all rows identical",
                   capsys)

    @pytest.mark.parametrize("text, message", [
        (None, "config error: cannot read config: "),
        ("[]", "top level must be an object"),
        ('{"train": [1]}', "section 'train' must be an object"),
    ], ids=["missing", "list", "section-not-object"])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        self.fails(["gen-synth", "--config", str(cfg)], tmp_path / "data", 2, message,
                   capsys)

    @pytest.mark.parametrize("text, message", [
        ("swing armwork\n", "expected 'label=group' lines, got 'swing armwork'"),
        ("# comments only\n\n", "empty grouping file"),
    ], ids=["no-equals", "comments-only"])
    def test_bad_grouping_exit_2(self, tmp_path, workspace, checkpoint, capsys,
                                 text, message):
        grouping = tmp_path / "groups.txt"
        grouping.write_text(text)
        self.fails(["embed", "--checkpoint", checkpoint, "--data", workspace["data"],
                    "--grouping", str(grouping)], tmp_path / "emb.csv", 2,
                   f"config error: {grouping}: {message}", capsys)

    def test_single_user_held_out_exit_3(self, tmp_path, workspace, capsys):
        def only_u4(manifest):
            manifest["files"] = [f for f in manifest["files"] if f["user"] == "u4"]

        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_manifest=only_u4)
        self.fails(["train", "--config", workspace["config"], "--data", str(data),
                    "--held-out-user", "u4"], tmp_path / "x.ckpt", 3,
                   "data error: held-out user leaves an empty training set", capsys)

    def test_class_only_the_held_out_user_has_named_exit_3(self, tmp_path, workspace, capsys):
        def tidy_only_u4(manifest):
            for entry in manifest["files"]:
                if entry["class"] == "tidy":
                    entry["user"] = "u4"

        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_manifest=tidy_only_u4)
        self.fails(["train", "--config", workspace["config"], "--data", str(data),
                    "--held-out-user", "u4"], tmp_path / "x.ckpt", 3,
                   "data error: class 'tidy' has no training samples", capsys)

    @pytest.mark.parametrize("edit_file, edit_manifest, message", [
        (lambda text: "\n  \n\n", None, ": no usable rows"),
        (_null_high_labels, _keep_first_file, ": no labeled segments found"),
    ], ids=["blank-lines-only", "all-runs-null"])
    def test_no_usable_data_exit_3(self, tmp_path, workspace, capsys,
                                   edit_file, edit_manifest, message):
        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_file=edit_file, edit_manifest=edit_manifest)
        self.fails(["features", "--data", str(data)], tmp_path / "f.csv", 3, message,
                   capsys)

    def test_embed_too_few_windows_exit_3(self, tmp_path, workspace, checkpoint, capsys):
        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_manifest=_keep_first_file,
                       edit_file=lambda text: "\n".join(text.split("\n")[:40]))
        self.fails(["embed", "--checkpoint", checkpoint, "--data", str(data)],
                   tmp_path / "emb.csv", 3,
                   "data error: not enough label-pure windows for embedding analysis",
                   capsys)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda blob: MAGIC + b'{"version": 1}', "missing header"),
        (lambda blob: MAGIC + b"not json\n", "corrupt header: "),
        (lambda blob: MAGIC + b"[1]\n", "corrupt header: not a JSON object"),
        (_edited(_short_channel_stats), "channel stats do not match model input channels"),
        (_edited(_nan_channel_std), "malformed header: means and stds must be finite"),
        (_edited(_inf_channel_mean), "malformed header: means and stds must be finite"),
        (_edited(_nan_weight), "non-finite parameter values"),
        (_edited(_version_2), "unsupported checkpoint version 2"),
        (_edited(_unknown_kind), "unknown model kind 'lstm'"),
        (_edited(_wider_first_shape), "array shapes [[33, 96], [32], "),
        (lambda blob: blob[:-8], "truncated or corrupt payload (296728 bytes, expected 296736)"),
    ], ids=["no-header-newline", "header-not-json", "header-list", "short-channel-stats",
            "nan-channel-std", "inf-channel-mean", "nan-weight", "version-2", "unknown-kind",
            "shapes-not-the-config's", "payload-8-bytes-short"])
    def test_bad_checkpoint_header_exit_4(self, tmp_path, workspace, checkpoint, capsys,
                                          corrupt, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(corrupt(Path(checkpoint).read_bytes()))
        self.fails(["evaluate", "--checkpoint", str(bad), "--data", workspace["data"],
                    "--held-out-user", "u4"], tmp_path / "metrics.txt", 4,
                   f"checkpoint error: {bad}: {message}", capsys)

    @pytest.mark.parametrize("edit, message", [
        (_huge_z, "truncated or corrupt payload (296736 bytes, expected 8192000034592)"),
        (_huge_z_and_shapes,
         "truncated or corrupt payload (296736 bytes, expected 8192000034592)"),
        (_billion_mlp_layers, "8 array shapes for 1000000000 layers"),
    ], ids=["huge-z", "huge-z-and-shapes", "billion-mlp-layers"])
    def test_payload_sized_before_the_model_is_built_exit_4(
            self, tmp_path, workspace, checkpoint, capsys, monkeypatch, edit, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(_edited(edit)(Path(checkpoint).read_bytes()))

        def build(cls, cfg, rng):  # a z of 10**9 would ask for 7.45 TiB here
            raise AssertionError("the model was built")

        def list_layers(cfg):  # 10**9 MLP layers would ask for an 8 GB list here
            raise AssertionError("the layers were listed")

        monkeypatch.setattr(CharmModel, "init", classmethod(build))
        monkeypatch.setattr(MlpModel, "init", classmethod(build))
        monkeypatch.setattr(MlpConfig, "stack_dims", property(list_layers))
        self.fails(["evaluate", "--checkpoint", str(bad), "--data", workspace["data"],
                    "--held-out-user", "u4"], tmp_path / "metrics.txt", 4,
                   f"checkpoint error: {bad}: {message}", capsys)

    def test_diverging_training_exit_3(self, tmp_path, workspace, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"train": {"lr": 1e100, "epochs": 1}}))
        self.fails(["train", "--config", str(cfg), "--data", workspace["data"],
                    "--held-out-user", "u4"], tmp_path / "x.ckpt", 3,
                   "data error: training diverged in epoch 1: non-finite logits; "
                   "try a smaller train.lr", capsys)
        assert not (tmp_path / "x.ckpt.history.json").exists()

    @pytest.mark.parametrize("model", ["charm", "mlp"])
    def test_finite_but_absurd_training_exit_3(self, tmp_path, workspace, capsys, model):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"train": {"lr": 1e10, "epochs": 2}}))
        assert main(["train", "--config", str(cfg), "--data", workspace["data"],
                     "--held-out-user", "u4", "--model", model,
                     "--out", str(tmp_path / "big.ckpt")]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"data error: training diverged in epoch 1: mean loss \S+ is over "
                            r"100 times the first batch's \S+; try a smaller train\.lr\n", err)
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.24 TiB for an array"),
         "out of memory: Unable to allocate 2.24 TiB for an array"),
        (MemoryError(), "out of memory: an allocation failed"),
    ], ids=["numpy-message", "no-message"])
    def test_out_of_memory_exit_1(self, tmp_path, workspace, capsys, monkeypatch,
                                  error, message):
        def no_memory(*args, **kwargs):  # stands in for a layer too large to allocate
            raise error

        monkeypatch.setattr(Stack, "init", no_memory)
        self.fails(["train", "--data", workspace["data"], "--held-out-user", "u4",
                    "--model", "mlp"], tmp_path / "x.ckpt", 1, message, capsys)
        assert not (tmp_path / "x.ckpt.history.json").exists()

    def test_evaluate_overflowing_weights_exit_3(self, tmp_path, workspace, checkpoint,
                                                 capsys):
        model, stats = load_checkpoint(checkpoint)
        model.params *= 1e120  # finite weights whose outputs overflow, with no warning
        big = tmp_path / "big.ckpt"
        save_checkpoint(model, stats, big)
        self.fails(["evaluate", "--checkpoint", str(big), "--data", workspace["data"],
                    "--held-out-user", "u4"], tmp_path / "metrics.txt", 3,
                   "data error: the model's outputs on this data are not finite: ", capsys)

    def test_embed_refuses_non_finite_weights_exit_4(self, tmp_path, workspace, checkpoint,
                                                     capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(_edited(_nan_weight)(Path(checkpoint).read_bytes()))
        self.fails(["embed", "--checkpoint", str(bad), "--data", workspace["data"]],
                   tmp_path / "emb.csv", 4,
                   f"checkpoint error: {bad}: non-finite parameter values", capsys)


def _unknown_motif(section):
    section["grammars"]["stroll"]["probs"] = {"nope": 1.0}


def _two_channel_motif(section):
    section["motifs"]["jolt"] = {"channels": [[0.3, 6.0, 1.0, -0.2]] * 2, "duration": [2, 5]}
    section["grammars"]["rest"]["probs"] = {"swing": 0.5, "jolt": 0.5}


def _zero_channel_std(header, payload):
    header["channel_stds"][0] = 0.0


def _one_std_fewer(header, payload):
    header["channel_stds"] = header["channel_stds"][:-1]


def _empty_then_bad_field_on_line_5(text):
    lines = text.split("\n")
    fields = lines[4].split(",")
    fields[1:3] = ["", "oops"]
    lines[4] = ",".join(fields)
    return "\n".join(lines)


class TestRefusalsAtTheirSource:
    """Refusals that only an unusual input reaches, each checked where the
    input enters: the exit code, one stderr line, no traceback, no output."""

    @staticmethod
    def refused(args, out, code, line, capsys):
        assert main(args + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == line + "\n" and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (_unknown_motif, "grammar 'stroll' references unknown motif 'nope'"),
        (_two_channel_motif, "all motifs must have the same channel count"),
    ], ids=["unknown-motif", "motif-channel-counts-differ"])
    def test_synth_config_exit_2(self, tmp_path, capsys, edit, message):
        section = _synth_named(classes=("stroll", "rest"))
        edit(section)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": section}))
        self.refused(["gen-synth", "--config", str(cfg)], tmp_path / "out", 2,
                     f"config error: bad synth config: {message}", capsys)
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("edit, message", [
        (_zero_channel_std, "stds must be clamped to >= 1e-08"),
        (_one_std_fewer, "means/stds must be 1-D and the same length"),
    ], ids=["zero-channel-std", "means-and-stds-lengths-differ"])
    def test_checkpoint_channel_stats_exit_4(self, tmp_path, workspace, checkpoint, capsys,
                                             edit, message):
        bad = tmp_path / "z.ckpt"
        bad.write_bytes(_edited(edit)(Path(checkpoint).read_bytes()))
        self.refused(["evaluate", "--checkpoint", str(bad), "--data", workspace["data"],
                      "--held-out-user", "u4"], tmp_path / "metrics.txt", 4,
                     f"checkpoint error: {bad}: malformed header: {message}", capsys)

    def test_empty_field_before_a_bad_token_exit_3(self, tmp_path, workspace, capsys):
        data = tmp_path / "data"
        data.mkdir()
        first = copy_data_with(workspace, data, edit_file=_empty_then_bad_field_on_line_5,
                               edit_manifest=_keep_first_file)
        self.refused(["features", "--data", str(data)], tmp_path / "f.csv", 3,
                     f"data error: {data / first}:5: bad numeric value 'oops' in column 2",
                     capsys)


def _header_config(key, value):
    def edit(header, payload):
        header["config"][key] = value
    return edit


def _two_dimensional_means(header, payload):
    header["channel_means"] = [header["channel_means"]]


class TestInnerFaultsRefusedWhereInputEnters:
    """The faults that functions past the entry checks no longer look for:
    each is refused where a config value, a flag, a checkpoint header or a
    data set enters, or the loader cannot build it. The ids name the
    function that trusts its caller for it."""

    @pytest.mark.parametrize("section, key, value, flags", [
        pytest.param("train", "lr", 0.0, [], id="Adam-lr-zero"),
        pytest.param("charm", "r", 0, [], id="window-r-zero"),
        pytest.param("charm", "low_hidden", 0, [], id="Stack.init-low-hidden-zero"),
        pytest.param("charm", "low_out", 0, [], id="Stack.init-low-out-zero"),
        pytest.param("charm", "high_hidden", 0, [], id="Stack.init-high-hidden-zero"),
        pytest.param("charm", "dropout_p", 1.0, [], id="dropout_mask-p-one"),
        pytest.param("charm", "dropout_p", -0.1, [], id="dropout_mask-p-negative"),
        pytest.param("mlp", "layers", 1, ["--model", "mlp"], id="Stack.init-one-mlp-layer"),
        pytest.param("mlp", "hidden", 0, ["--model", "mlp"], id="Stack.init-mlp-hidden-zero"),
    ])
    def test_config_value_exit_2(self, tmp_path, workspace, capsys, section, key, value,
                                 flags):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        assert main(["train", "--data", workspace["data"], "--held-out-user", "u4",
                     "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad {section} config: {key} must be ")
        assert len(err.splitlines()) == 1 and f"got {value!r}" in err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_unknown_model_kind_exit_2(self, tmp_path, workspace, capsys):
        # train's kind lookup trusts argparse's choices
        with pytest.raises(SystemExit) as exit_:
            main(["train", "--data", workspace["data"], "--held-out-user", "u4",
                  "--model", "cnn", "--out", str(tmp_path / "x.ckpt")])
        assert exit_.value.code == 2
        assert "invalid choice: 'cnn'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("edit, message", [
        pytest.param(_header_config("dropout_p", 1.0), "dropout_p must be",
                     id="dropout_mask-p-one"),
        pytest.param(_header_config("low_hidden", 0), "low_hidden must be",
                     id="Stack.init-low-hidden-zero"),
        pytest.param(_header_config("m", 0), "m must be", id="Stack.init-m-zero"),
        pytest.param(_header_config("r", 0), "r must be", id="window-r-zero"),
        pytest.param(_header_config("q", 0), "q must be", id="normalize-q-zero"),
        pytest.param(_two_dimensional_means, "means/stds must be 1-D and the same length",
                     id="normalize-2-D-means"),
    ])
    def test_checkpoint_header_exit_4(self, tmp_path, workspace, checkpoint, capsys,
                                      edit, message):
        bad = tmp_path / "z.ckpt"
        bad.write_bytes(_edited(edit)(Path(checkpoint).read_bytes()))
        out = tmp_path / "metrics.txt"
        assert main(["evaluate", "--checkpoint", str(bad), "--data", workspace["data"],
                     "--held-out-user", "u4", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"checkpoint error: {bad}: malformed header: {message}")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_held_out_user_without_labeled_runs_exit_3(self, tmp_path, workspace, checkpoint,
                                                       capsys):
        # evaluate trusts its caller for a non-empty set; train refuses the user
        # the manifest names as evaluate does, not as one the data lacks
        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data)
        for path in data.glob("uu4_*.csv"):
            path.write_text(_null_high_labels(path.read_text()))
        line = "data error: held-out user 'u4' has no labeled segments"
        TestRefusalsAtTheirSource.refused(
            ["evaluate", "--checkpoint", checkpoint, "--data", str(data),
             "--held-out-user", "u4"], tmp_path / "metrics.txt", 3, line, capsys)
        TestRefusalsAtTheirSource.refused(
            ["train", "--config", workspace["config"], "--data", str(data),
             "--held-out-user", "u4"], tmp_path / "x.ckpt", 3, line, capsys)
        assert os.listdir(tmp_path) == ["data"]

    def test_crops_are_the_checkpoints_input_shape(self, workspace, checkpoint):
        # the models' _logits and embed_windows trust the crops' shape
        model, _ = load_checkpoint(checkpoint)
        segments, _, _ = cli._load_data_for(model, workspace["data"], user="u4")
        crops = _crops({"sampling": {"stride": 97}}, segments, model.cfg.n_target)
        assert crops and {crop.data.shape for crop in crops} == {
            (model.cfg.n_target, model.cfg.q)}
        assert len(model.predict(np.stack([crop.data for crop in crops]))) == len(crops)

    def test_loaded_segments_are_2d_finite_with_q_channels(self, workspace):
        # handcrafted_features, window and normalize trust this shape
        segments, _, schema = load_data_dir(workspace["data"])
        q = len(schema.channel_columns)
        for seg in segments:
            assert seg.data.ndim == 2 and seg.data.shape[0] >= 1 and seg.data.shape[1] == q
            assert seg.data.dtype == np.float64 and np.isfinite(seg.data).all()

    def test_loaded_high_labels_index_the_classes(self, workspace):
        # check_ce_inputs trusts every target to be a class index
        segments, classes, _ = load_data_dir(workspace["data"])
        labels = {seg.high_label for seg in segments}
        assert labels == set(range(len(classes)))
        assert all(type(label) is int for label in labels)

    def test_loaded_tracks_have_the_data_length(self, workspace):
        # label_pure_windows trusts each track to have one label a sample
        segments, _, schema = load_data_dir(workspace["data"])
        for seg in segments:
            assert set(seg.low_label_tracks) == set(schema.low_label_columns)
            for track in seg.low_label_tracks.values():
                assert isinstance(track, list) and len(track) == len(seg.data)


class TestEvaluateReadsOnlyHeldOutUser:
    def test_other_users_files_are_not_parsed(self, tmp_path, workspace, checkpoint):
        # a file of another user that the loader would reject
        data = tmp_path / "data"
        data.mkdir()
        first = copy_data_with(workspace, data, edit_file=put_on_line_3("inf"))
        manifest = json.loads((data / "manifest.json").read_text())
        assert next(e["user"] for e in manifest["files"] if e["file"] == first) != "u4"
        args = ["evaluate", "--checkpoint", checkpoint, "--held-out-user", "u4", "--quiet"]
        assert main(args + ["--data", str(data), "--out", str(tmp_path / "copy.txt")]) == 0
        assert main(args + ["--data", workspace["data"],
                            "--out", str(tmp_path / "all.txt")]) == 0
        assert (tmp_path / "copy.txt").read_bytes() == (tmp_path / "all.txt").read_bytes()

    def test_unknown_user_message_as_train_gives_it(self, tmp_path, workspace, checkpoint,
                                                    capsys):
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", workspace["data"],
                     "--held-out-user", "u9", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "data error: unknown user 'u9'; available users: " \
                      "['u1', 'u2', 'u3', 'u4']\n"
        assert main(["train", "--config", workspace["config"], "--data", workspace["data"],
                     "--held-out-user", "u9", "--out", str(out)]) == 3
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_malformed_manifest_exit_3(self, tmp_path, workspace, checkpoint, capsys):
        copy_data_with(workspace, tmp_path, edit_manifest=_drop("files", 1, "user"))
        out = tmp_path / "out"
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", str(tmp_path),
                     "--held-out-user", "u4", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "'files' must be a list of objects" in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestCropLongerThanEverySegment:
    """The crop is checked before any segment is padded to it, so these runs
    allocate nothing of its size (at r = 4096 one padded crop alone is 6 MB,
    and every segment would get one)."""

    @pytest.fixture(autouse=True)
    def no_padding(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a segment was cropped or padded")
        monkeypatch.setattr(ds, "make_fixed_length_samples", fail)

    @pytest.mark.parametrize("model", ["charm", "mlp"])
    def test_train_exit_3_one_line(self, tmp_path, workspace, capsys, model):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"charm": {"r": 4096}}))
        out = tmp_path / "x.ckpt"
        assert main(["train", "--config", str(cfg), "--data", workspace["data"],
                     "--held-out-user", "u4", "--model", model, "--out", str(out)]) == 3
        longest = max(len(seg.data) for seg in load_data_dir(workspace["data"])[0])
        assert capsys.readouterr().err == (f"data error: crop length 131072 is longer than "
                                           f"every segment (the longest has {longest} "
                                           f"samples)\n")
        assert not out.exists()

    def test_evaluate_exit_3_one_line(self, tmp_path, workspace, capsys):
        ckpt = tmp_path / "long.ckpt"
        save_checkpoint(MlpModel.init(MlpConfig(n_target=4096, q=6, m=4, hidden=2),
                                      make_rng(0)),
                        ChannelStats(np.zeros(6), np.ones(6)), ckpt)
        out = tmp_path / "metrics.txt"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", workspace["data"],
                     "--held-out-user", "u4", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: crop length 4096 is longer than every segment")
        assert len(err.splitlines()) == 1 and not out.exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen-synth", "train", "evaluate",
                                     "embed", "features"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--config" in out and "--quiet" in out
        assert ("--seed" in out) == (cmd in ("gen-synth", "train"))

    @pytest.mark.parametrize("cmd", ["evaluate", "embed", "features"])
    def test_seed_refused_where_no_seed_is_read(self, tmp_path, workspace, checkpoint,
                                                capsys, cmd):
        args = {"evaluate": ["--checkpoint", checkpoint, "--held-out-user", "u4"],
                "embed": ["--checkpoint", checkpoint],
                "features": []}[cmd]
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--data", workspace["data"], "--out", str(tmp_path / "out"),
                  "--seed", "1", *args])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def use_cpus(monkeypatch, n):
    """Make map_files see n CPUs: 1 runs its calls here, 2 on a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# Module-level, so that a pool worker can unpickle them by name.
def _pid(_):
    return os.getpid()


def _square(x):
    return x * x


def _exit_now(_):
    os._exit(7)


def _sigint_handler(_):
    return signal.getsignal(signal.SIGINT)


DOOMED_FILE = "uu2_meal_001.csv"  # the one file whose worker dies in the dead-worker tests


def _load_entry_or_die(job):
    if job[1]["file"] == DOOMED_FILE:
        os._exit(9)
    return _load_entry(job)


def _write_segment_or_die(job):
    if os.path.basename(job[0]) == DOOMED_FILE:
        os._exit(9)
    return _write_segment(job)


def dir_digest(path):
    h = hashlib.sha256()
    for p in sorted(Path(path).iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _bad_token(text):
    lines = text.split("\n")
    lines[4] = "x" + lines[4]
    return "\n".join(lines)


def _short_row(text):
    lines = text.split("\n")
    lines[2] = ",".join(lines[2].split(",")[:3])
    return "\n".join(lines)


class TestOneProcessPerCpu:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_map_files_in_order_no_process_left(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        assert map_files(_square, range(50)) == [x * x for x in range(50)]
        pids = set(map_files(_pid, range(8)))
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and len(pids) <= cpus
        assert multiprocessing.active_children() == []

    def test_map_files_hands_out_at_most_8_items_a_chunk(self, monkeypatch):
        # a Ctrl-C or a failed call waits only for the chunks already handed out
        use_cpus(monkeypatch, 2)
        chunks = []
        pool_map = ProcessPoolExecutor.map

        def spy(self, fn, *iterables, **kwargs):
            chunks.append(kwargs["chunksize"])
            return pool_map(self, fn, *iterables, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", spy)
        for n in (400, 64, 16, 3):
            assert map_files(_square, range(n)) == [x * x for x in range(n)]
        assert chunks == [8, 8, 2, 1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_gen_synth_same_bytes(self, tmp_path, workspace, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / "data"
        assert main(["gen-synth", "--config", workspace["config"],
                     "--out", str(out), "--quiet"]) == 0
        assert dir_digest(out) == dir_digest(workspace["data"])

    def test_dead_worker_raises_promptly(self, monkeypatch):
        use_cpus(monkeypatch, 2)

        def hung(*_):
            raise TimeoutError("map_files hung after a worker died")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ChildProcessError, match="a worker process died") as info:
                map_files(_exit_now, range(8))
            assert isinstance(info.value.__cause__, BrokenProcessPool)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cmd", ["features", "gen-synth"])
    def test_dead_worker_exit_1_one_line(self, tmp_path, workspace, monkeypatch, capsys,
                                         cmd):
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(ds, "_load_entry", _load_entry_or_die)
        monkeypatch.setattr(synth, "_write_segment", _write_segment_or_die)
        out = tmp_path / "out"
        args = {"features": ["features", "--data", workspace["data"]],
                "gen-synth": ["gen-synth", "--config", workspace["config"]]}[cmd]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "i/o error: a worker process died before its files were done "
            "(killed, or out of memory)\n")
        assert not (out / "manifest.json" if cmd == "gen-synth" else out).exists()
        assert multiprocessing.active_children() == []

    def test_workers_ignore_sigint(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        assert map_files(_sigint_handler, range(4)) == [signal.SIG_IGN] * 4
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

    # Each case breaks an early file one way and a late file with a
    # non-numeric token; the error must name the early one.
    @pytest.mark.parametrize("fault, code, message", [
        ("token", 3, ":5: bad numeric value"),
        ("missing", 1, "No such file"),
        ("not utf-8", 3, "not UTF-8 text"),
        ("short row", 3, ":3: expected >= 8 fields, got 3"),
    ])
    def test_first_bad_file_in_manifest_order(self, tmp_path, workspace, monkeypatch,
                                              capsys, fault, code, message):
        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data)
        names = [e["file"] for e in json.loads((data / "manifest.json").read_text())["files"]]
        early, late = data / names[1], data / names[-2]
        late.write_text(_bad_token(late.read_text()))
        if fault == "missing":
            early.unlink()
        elif fault == "not utf-8":
            early.write_bytes(b"\xff" + early.read_bytes())
        else:
            edit = {"token": _bad_token, "short row": _short_row}[fault]
            early.write_text(edit(early.read_text()))
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"features-{cpus}.csv"
            results.append((main(["features", "--data", str(data), "--out", str(out)]),
                            capsys.readouterr().err))
            assert not out.exists()
        assert results[0] == results[1]
        got, err = results[0]
        assert got == code and len(err.splitlines()) == 1
        assert str(early) in err and message in err and names[-2] not in err


def test_interrupt_exit_130_one_line(monkeypatch, capsys):
    def interrupted(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_features", interrupted)
    assert main(["features", "--data", "d", "--out", "f.csv"]) == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_failed_write_over_a_dataset_leaves_no_manifest(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synth", "--seed", "42", "--out", str(data), "--quiet"]) == 0
    cfg = cli.build_synth_config({}, seed_override=7)
    segments = synth.gen_dataset(cfg)
    segments[200].user_id = "missing/u1"  # the 201st file's directory does not exist
    with pytest.raises(FileNotFoundError):
        synth.write_dataset(segments, cfg, str(data))
    assert not (data / "manifest.json").exists()
    out = tmp_path / "features.csv"
    assert main(["features", "--data", str(data), "--out", str(out)]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


SEED_42_DIGEST = "01f780f599473be345ac88e8e21ae396f1fce1b3723b023c39c01dc7f1f737c2"


def test_seed_42_files_and_load_same_on_one_cpu_and_pool(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)
    data = str(tmp_path / "data")
    assert main(["gen-synth", "--seed", "42", "--out", data, "--quiet"]) == 0
    assert dir_digest(data) == SEED_42_DIGEST
    pool, labels, schema = load_data_dir(data)
    use_cpus(monkeypatch, 1)
    one, labels_one, schema_one = load_data_dir(data)
    assert (labels_one, schema_one) == (labels, schema)
    assert len(one) == len(pool)
    for a, b in zip(one, pool):
        assert np.array_equal(a.data, b.data) and a.data.dtype == b.data.dtype
        assert (a.high_label, a.user_id, a.source, a.low_label_tracks) == \
            (b.high_label, b.user_id, b.source, b.low_label_tracks)

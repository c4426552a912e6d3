import csv
import hashlib
import json
import multiprocessing
import os
import re
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from charm import cli, embed, synth
from charm import dataset as ds
from charm.cli import _crops, main
from charm.dataset import load_data_dir, map_files
from charm.model import load_checkpoint, save_checkpoint
from charm.synth import _write_segment
from conftest import SMALL_CONFIG, field_on_line_3, synth_named

# Refusals, the runs that end with a non-zero exit code and one stderr line,
# are cases of tests/test_refusals.py; the tests here check what a command
# does, or more of a refusal than that file's runner asserts.


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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

    def test_default_stride_is_half_the_crop_at_least_one(self):
        seg = ds.LabeledSegment(np.arange(1024.0)[:, None], 0, "u1")

        def offsets(n_target):
            return [int(crop.data[0, 0]) for crop in _crops([seg], n_target)]

        assert offsets(512) == [0, 256, 512]
        assert offsets(1) == list(range(1024))  # r = z = 1

    def test_mlp_model_kind(self, workspace, tmp_path):
        out = tmp_path / "mlp.ckpt"
        assert main(["train", "--config", workspace["config"],
                     "--data", workspace["data"], "--held-out-user", "u4",
                     "--model", "mlp", "--out", str(out), "--quiet"]) == 0
        assert os.path.exists(out)


class TestTrainValidatesAsEvaluateScores:
    """train splits the users before it crops, so its validation crops are
    the ones evaluate scores."""

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


def _synth_segments():
    """The workspace's dataset built in memory: (segments, class names)."""
    scfg = cli.build_synth_config(SMALL_CONFIG)
    return synth.to_labeled_segments(synth.gen_dataset(scfg), scfg)


def _run_fold(cfg, segments, classes, held_out_user="u4", model="charm"):
    """cli.run_fold with the configs cmd_train builds for the same data."""
    mcfg = cli.build_charm_config(cfg, q=segments[0].data.shape[1], m=len(classes))
    if model == "mlp":
        mcfg = cli.build_mlp_config(cfg, n_target=mcfg.n_target, q=mcfg.q, m=mcfg.m)
    return cli.run_fold(segments, classes, held_out_user, model,
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

    def test_manifest_null_token_skips_windows(self, workspace, checkpoint, tmp_path):
        def none_motif_on_first_32_rows(text):
            lines = text.split(b"\n")
            for i in range(32):  # two r=16 windows
                lines[i] = lines[i].rsplit(b",", 1)[0] + b",none"
            return b"\n".join(lines)

        data = tmp_path / "data"
        data.mkdir()
        copy_data_with(workspace, data, edit_file=none_motif_on_first_32_rows,
                       edit_manifest=lambda m: m["schema"].update(null_label_token="none"))
        out = tmp_path / "emb.csv"
        assert main(["embed", "--checkpoint", checkpoint, "--data", str(data),
                     "--out", str(out), "--quiet"]) == 0
        labels = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert labels and "none" not in labels

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


def copy_data_with(workspace, dst, edit_file=None, edit_manifest=None):
    """Copy the workspace data directory, applying an edit to the bytes of its
    first data file and/or to the parsed manifest; returns that file's name."""
    src = Path(workspace["data"])
    manifest = json.loads((src / "manifest.json").read_bytes())
    first = manifest["files"][0]["file"]
    for entry in manifest["files"]:
        data = (src / entry["file"]).read_bytes()
        (dst / entry["file"]).write_bytes(
            edit_file(data) if edit_file and entry["file"] == first else data)
    if edit_manifest:
        edit_manifest(manifest)
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return first


class TestHugeFiniteValues:
    """A finite value the loader takes, far from the float limit: a 0 exit
    writes only finite numbers."""

    @pytest.fixture
    def data_with(self, tmp_path, workspace):
        def make(token):
            data = tmp_path / "data"
            data.mkdir()
            first = copy_data_with(workspace, data, edit_file=field_on_line_3(token))
            manifest = json.loads((data / "manifest.json").read_text())
            assert next(e["user"] for e in manifest["files"] if e["file"] == first) != "u4"
            return str(data)
        return make

    def test_1e150_train_and_embed_exit_0_finite(self, tmp_path, workspace, data_with,
                                                 capsys):
        data, ckpt = data_with(b"1e150"), tmp_path / "x.ckpt"
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


class TestBadConfigValue:
    """Synth names that file names and CSV fields can carry load back."""

    def test_names_the_files_carry_load_back(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": synth_named(classes=("a b", "c-d"), motif="e.f")}))
        assert main(["gen-synth", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        segments, classes, _ = load_data_dir(tmp_path / "out")
        assert classes == ("a b", "c-d") and len(segments) == 2 * 2 * 20
        assert {lab for seg in segments for lab in seg.low_label_tracks["motif"]} == {"e.f"}


def _extra_field_on_every_other_line(text):
    return b"\n".join(line + b",x" if i % 2 and line else line
                      for i, line in enumerate(text.split(b"\n")))


# id: (edit of a sensor file's bytes that the loader takes, whether the
# features it then writes equal the clean file's)
LOADER_REPAIRS = {
    "whitespace-channel-field": (field_on_line_3(b"  "), False),
    "ragged": (_extra_field_on_every_other_line, True),
}


class TestLoaderAccepts:
    """Each edit of a sensor file that the loader takes, made as it stands
    and with a blank line appended, gives the same `charm features` output;
    the edits it refuses, in both forms, are cases of tests/test_refusals.py."""

    @pytest.mark.parametrize("mutation", LOADER_REPAIRS)
    def test_same_with_a_blank_line_appended(self, tmp_path, workspace, capsys, mutation):
        edit, equal = LOADER_REPAIRS[mutation]
        data = tmp_path / "data"
        data.mkdir()
        path = data / copy_data_with(workspace, data,
                                     edit_manifest=lambda m: m.update(files=m["files"][:1]))
        clean = path.read_bytes()
        written = []
        for variant in (clean, edit(clean), edit(clean) + b"\n"):
            path.write_bytes(variant)
            out = tmp_path / "features.csv"
            assert main(["features", "--data", str(data), "--out", str(out), "--quiet"]) == 0
            assert capsys.readouterr().err == ""
            written.append(out.read_bytes())
        clean_features, edited, blank_line_appended = written
        assert clean_features and edited == blank_line_appended
        assert (edited == clean_features) == equal


class TestInnerFaultsRefusedWhereInputEnters:
    """The faults that functions past the entry checks no longer look for:
    each is refused where a config value, a flag, a checkpoint header or a
    data set enters (the cases of tests/test_refusals.py with this class's
    name in their ids, which name the function that trusts its caller), or
    the loader cannot build it, as these tests check."""

    def test_crops_are_the_checkpoints_input_shape(self, workspace, checkpoint):
        # the models' _logits and embed_windows trust the crops' shape
        model, _ = load_checkpoint(checkpoint)
        segments, _, _ = cli._load_data_for(model, workspace["data"], user="u4")
        crops = _crops(segments, model.cfg.n_target)
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
        first = copy_data_with(workspace, data, edit_file=field_on_line_3(b"inf"))
        manifest = json.loads((data / "manifest.json").read_text())
        assert next(e["user"] for e in manifest["files"] if e["file"] == first) != "u4"
        args = ["evaluate", "--checkpoint", checkpoint, "--held-out-user", "u4", "--quiet"]
        assert main(args + ["--data", str(data), "--out", str(tmp_path / "copy.txt")]) == 0
        assert main(args + ["--data", workspace["data"],
                            "--out", str(tmp_path / "all.txt")]) == 0
        assert (tmp_path / "copy.txt").read_bytes() == (tmp_path / "all.txt").read_bytes()


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen-synth", "train", "evaluate",
                                     "embed", "features"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--quiet" in out
        assert ("--config" in out) == ("--seed" in out) == (cmd in ("gen-synth", "train"))


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


DOOMED_FILE = "uu2_meal_001.csv"  # the one file whose worker dies in the dead-worker test


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

    def test_dead_worker_in_gen_synth_exit_1_no_manifest(self, tmp_path, workspace,
                                                         monkeypatch, capsys):
        # the files written before the worker died stay; the manifest is not written
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(synth, "_write_segment", _write_segment_or_die)
        out = tmp_path / "out"
        assert main(["gen-synth", "--config", workspace["config"], "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "i/o error: a worker process died before its files were done "
            "(killed, or out of memory)\n")
        assert not (out / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    def test_workers_ignore_sigint(self, monkeypatch):
        # the parent keeps its own handler: Python's default, or SIG_IGN when the
        # suite was started in the background
        use_cpus(monkeypatch, 2)
        before = signal.getsignal(signal.SIGINT)
        assert map_files(_sigint_handler, range(4)) == [signal.SIG_IGN] * 4
        assert signal.getsignal(signal.SIGINT) is before

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

import hashlib
import json
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from charm.cli import _stride_for, main
from charm.dataset import load_data_dir, map_files

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
        assert _stride_for({}, 512) == 256
        assert _stride_for({}, 1) == 1  # r = z = 1
        assert _stride_for({"sampling": {"stride": 3}}, 512) == 3

    def test_mlp_model_kind(self, workspace, tmp_path):
        out = tmp_path / "mlp.ckpt"
        assert main(["train", "--config", workspace["config"],
                     "--data", workspace["data"], "--held-out-user", "u4",
                     "--model", "mlp", "--out", str(out), "--quiet"]) == 0
        assert os.path.exists(out)


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


class TestFeatures:
    def test_feature_table(self, workspace, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["features", "--data", workspace["data"],
                     "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(header) == 2 + 5 * 6  # id, label, 5 features x 6 channels
        assert len(lines) == 1 + 4 * 4 * 2

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


def put_inf_on_line_3(text):
    lines = text.split("\n")
    fields = lines[2].split(",")
    fields[1] = "inf"
    lines[2] = ",".join(fields)
    return "\n".join(lines)


class TestNonFiniteValues:
    @pytest.mark.parametrize("cmd", ["train", "features"])
    def test_inf_exit_3_no_output(self, tmp_path, workspace, capsys, cmd):
        data = tmp_path / "data"
        data.mkdir()
        first = copy_data_with(workspace, data, edit_file=put_inf_on_line_3)
        out = tmp_path / "out"
        args = {"train": ["train", "--config", workspace["config"],
                          "--held-out-user", "u4"],
                "features": ["features"]}[cmd]
        assert main(args + ["--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{first}:3: non-finite value 'inf' in column 1" in err
        assert os.listdir(tmp_path) == ["data"]


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


class TestHelp:
    @pytest.mark.parametrize("cmd", ["gen-synth", "train", "evaluate",
                                     "embed", "features"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--config" in out and "--seed" in out


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
            with pytest.raises(BrokenProcessPool):
                map_files(_exit_now, range(8))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

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

"""The small synthetic workspace that the command tests share, and the
helpers that more than one test module uses."""

import json

import pytest

from charm.cli import main

SMALL_CONFIG = {
    "synth": {"samples_per_class_per_user": 2},
    "train": {"epochs": 2, "seed": 7},
}


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """SMALL_CONFIG's dataset: 4 classes x 4 users x 2 segments, one file each."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    data = root / "data"
    assert main(["gen-synth", "--config", str(cfg), "--out", str(data),
                 "--quiet"]) == 0
    return {"root": root, "config": str(cfg), "data": str(data)}


@pytest.fixture(scope="session")
def checkpoint(workspace):
    """The CHARM checkpoint `train` writes on the workspace with u4 held out."""
    path = workspace["root"] / "model.ckpt"
    code = main(["train", "--config", workspace["config"],
                 "--data", workspace["data"], "--held-out-user", "u4",
                 "--model", "charm", "--out", str(path), "--quiet"])
    assert code == 0
    return str(path)


def field_on_line_3(token):
    """An edit of a data file's bytes that puts `token` in field 1 of line 3."""
    def edit(text):
        lines = text.split(b"\n")
        fields = lines[2].split(b",")
        fields[1] = token
        lines[2] = b",".join(fields)
        return b"\n".join(lines)
    return edit


def synth_named(classes=("a", "b"), motif="swing", users=("u1", "u2")):
    """A synth config section whose only fault can be one of the names given."""
    return {"motifs": {motif: {"channels": [[1.0, 2.0, 0.0, 0.1]], "duration": [4, 8]}},
            "grammars": {c: {"probs": {motif: 1.0}, "target_len": 64} for c in classes},
            "users": [{"id": u, "amp_scale": 1.0, "noise_sigma": 0.1} for u in users]}

"""README's exit-code table, run: every case is a refusal of `charm`, run
through `charm.cli.main` in a directory that holds what README's example
lines name: `data/` (the workspace's dataset, 4 classes x 4 users x 2
files), `z.ckpt` (its CHARM checkpoint with u4 held out) and `run.json`
(its config), plus the files a case writes, such as `groups.txt` or
`README.md`. Each case asserts its exit code; one stderr line (argparse's
last, after its usage line) and no output on stdout; no traceback; that
line matched in full, where `…` matches any text; no child process left;
and a directory byte-identical to the one before the run: no output, no
temporary file, no input changed.

Cases are grouped under the README row they document, named by its example
line; `tests/test_readme.py` checks that every non-zero row has a case and
that some case of each row prints its example line. A case's id is the id
of the test it replaced, so `-k` finds it, or says what it adds.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from charm import cli
from charm import dataset as ds
from charm.cli import main
from charm.dataset import _load_entry
from charm.model import MAGIC, CharmConfig, CharmModel, MlpConfig, MlpModel, save_checkpoint
from charm.neurocore import Stack, make_rng
from charm.preprocess import ChannelStats
from conftest import SMALL_CONFIG, field_on_line_3, synth_named


@dataclass(frozen=True)
class Case:
    """`argv`, split on spaces, exits `code` and prints `line`, or its row's
    example line when None. `files` maps a path, or a glob of paths, to the
    bytes to write there, None to delete it, or a function from its bytes
    (None when absent) to either; `patches` are (object, name, value) set
    for the run alone."""

    id: str
    argv: str
    code: int
    line: str | None = None
    files: dict = field(default_factory=dict)
    patches: tuple = ()


def raising(error):
    """A stand-in that raises `error` when the command calls it."""
    def call(*args, **kwargs):
        raise error
    return call


def never(what):
    """A stand-in for `what` that fails the case when the command calls it."""
    return raising(AssertionError(f"{what} ran before the refusal"))


NO_LOAD = ((cli, "load_data_dir", never("cli.load_data_dir")),)
NO_PADDING = ((ds, "make_fixed_length_samples", never("ds.make_fixed_length_samples")),)
NO_MODEL = ((CharmModel, "init", classmethod(never("CharmModel.init"))),
            (MlpModel, "init", classmethod(never("MlpModel.init"))),
            (MlpConfig, "stack_dims", property(never("MlpConfig.stack_dims"))))
TWO_CPUS = ((os, "sched_getaffinity", lambda pid: {0, 1}),)

EVALUATE = "evaluate --checkpoint z.ckpt --data data/ --held-out-user u4"
EMBED = "embed --checkpoint z.ckpt --data data/"
TRAIN = "train --config run.json --data data/ --held-out-user u4"
FIRST = "data/uu1_routine_000.csv"  # the manifest's first file
MANIFEST = "data/manifest.json"


def config(cfg):
    return {"run.json": json.dumps(cfg).encode()}


def manifest(edit):
    """edit(manifest) on the parsed manifest; it edits in place or returns
    the new value."""
    def apply(old):
        parsed = json.loads(old)
        new = edit(parsed)
        return json.dumps(parsed if new is None else new).encode()
    return {MANIFEST: apply}


def _drop(*path):
    def edit(node):
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def _set(*path):
    *keys, value = path

    def edit(node):
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return edit


def _keep_first_file(manifest):
    manifest["files"] = manifest["files"][:1]


def _three_channels(manifest):
    manifest["schema"]["channel_columns"] = [0, 1, 2]
    manifest["q"] = 3


def _first_two_classes(manifest):
    manifest["classes"] = manifest["classes"][:2]
    manifest["files"] = [f for f in manifest["files"] if f["class"] in manifest["classes"]]


def _only_u4(manifest):
    manifest["files"] = [f for f in manifest["files"] if f["user"] == "u4"]


def _tidy_only_u4(manifest):
    for entry in manifest["files"]:
        if entry["class"] == "tidy":
            entry["user"] = "u4"


# edits of a data file's bytes

def _first_lines(n):
    return lambda text: b"".join(text.splitlines(keepends=True)[:n])


def _line_3_short(text):
    lines = text.split(b"\n")
    lines[2] = b",".join(lines[2].split(b",")[:3])
    return b"\n".join(lines)


def _every_line_short(text):
    return b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in text.splitlines())


def _empty_then_bad_field_on_line_5(text):
    lines = text.split(b"\n")
    fields = lines[4].split(b",")
    fields[1:3] = [b"", b"oops"]
    lines[4] = b",".join(fields)
    return b"\n".join(lines)


def _null_high_labels(text):
    rows = [line.split(b",") for line in text.split(b"\n") if line]
    return b"".join(b",".join(row[:6] + [b"null"] + row[7:]) + b"\n" for row in rows)


def _not_utf8(text):
    return b"\xff" + text


# edits of a checkpoint's bytes

def _edited(edit):
    """edit(header, payload) on the parsed header and a mutable copy of the
    payload, both written back."""
    def corrupt(blob):
        header, payload = blob[len(MAGIC):].split(b"\n", 1)
        header, payload = json.loads(header), bytearray(payload)
        edit(header, payload)
        return MAGIC + json.dumps(header).encode() + b"\n" + bytes(payload)
    return {"z.ckpt": corrupt}


def _header_config(key, value):
    def edit(header, payload):
        header["config"][key] = value
    return _edited(edit)


def _short_channel_stats(header, payload):
    header["channel_means"] = header["channel_means"][:5]
    header["channel_stds"] = header["channel_stds"][:5]


def _nan_channel_std(header, payload):
    header["channel_stds"][0] = float("nan")


def _inf_channel_mean(header, payload):
    header["channel_means"][0] = float("inf")


def _zero_channel_std(header, payload):
    header["channel_stds"][0] = 0.0


def _one_std_fewer(header, payload):
    header["channel_stds"] = header["channel_stds"][:-1]


def _two_dimensional_means(header, payload):
    header["channel_means"] = [header["channel_means"]]


def _nan_weight(header, payload):
    payload[8:16] = struct.pack("<d", float("nan"))


def _zero_weights(header, payload):  # every window embeds to the same point
    payload[:] = bytes(len(payload))


def _weights_times_1e120(header, payload):  # finite weights whose outputs overflow
    payload[:] = (np.frombuffer(payload, "<f8") * 1e120).astype("<f8").tobytes()


def _huge_z(header, payload):  # a z of 10**9 would ask for 7.45 TiB if built
    header["config"]["z"] = 10**9


def _huge_z_and_shapes(header, payload):
    _huge_z(header, payload)
    header["shapes"][4][1] = 10**9 * header["config"]["low_out"]


def _billion_mlp_layers(header, payload):  # their list alone would take 8 GB
    header["kind"], header["config"] = "mlp", {"layers": 10**9}


def _version_2(header, payload):
    header["version"] = 2


def _unknown_kind(header, payload):
    header["kind"] = "lstm"


def _wider_first_shape(header, payload):
    header["shapes"][0][0] += 1


def _saved(make):
    """z.ckpt holding the model make() builds, with zero means and unit stds."""
    def build(old):
        save_checkpoint(make(), ChannelStats(np.zeros(6), np.ones(6)), "z.ckpt")
        return Path("z.ckpt").read_bytes()
    return {"z.ckpt": build}


MLP_CHECKPOINT = _saved(lambda: MlpModel.init(MlpConfig(n_target=512, q=6, m=4), make_rng(0)))


# config sections

_BAD_USERS = [{"id": "a", "amp_scale": 1.0, "noise_sigma": 0.1},
              {"id": "b", "amp_scale": 1.0, "noise_sigma": -0.1}]
_BAD_MOTIFS = {"sway": {"channels": [["x", 2.0, 0.0, 0.1]], "duration": [4, 8]}}


def _synth_edited(edit):
    section = synth_named(classes=("stroll", "rest"))
    edit(section)
    return config({"synth": section})


def _unknown_motif(section):
    section["grammars"]["stroll"]["probs"] = {"nope": 1.0}


def _two_channel_motif(section):
    section["motifs"]["jolt"] = {"channels": [[0.3, 6.0, 1.0, -0.2]] * 2, "duration": [2, 5]}
    section["grammars"]["rest"]["probs"] = {"swing": 0.5, "jolt": 0.5}


def _bad_value(id, section, key, value, rule, flags=""):
    """TestBadConfigValue's wrong-type or out-of-range value."""
    argv = "gen-synth" if section == "synth" else f"train --data data/ --held-out-user u4{flags}"
    return Case(f"TestBadConfigValue::test_exit_2_one_line_no_output[{id}]",
                f"{argv} --config run.json --out out", 2,
                f"config error: bad {section} config: {key} must be {rule}, got {value!r}",
                config({section: {key: value}}))


NAMES = ("config error: bad synth config: class and motif names must hold no ',' or line "
         "break, no leading or trailing space, and not be 'null'; got ")
SLASH = "config error: bad synth config: class names and user ids must hold no '/' or NUL, got "
USERS = "config error: bad synth config: user ids must hold no '_' and be distinct, got "


def _bad_name(id, line, **names):
    """TestBadConfigValue's synth name that a file name or CSV field cannot carry."""
    return Case(f"TestBadConfigValue::test_name_the_files_cannot_carry_exit_2[{id}]",
                "gen-synth --config run.json --out out", 2, line,
                config({"synth": synth_named(**names)}))


def _inner_value(id, section, key, value, rule, flags=""):
    """A config value that a function past the entry checks trusts."""
    return Case(f"TestInnerFaultsRefusedWhereInputEnters::test_config_value_exit_2[{id}]",
                f"train --data data/ --held-out-user u4 --config run.json --out x.ckpt{flags}",
                2, f"config error: bad {section} config: {key} must be {rule}, got {value!r}",
                config({section: {key: value}}))


# A worker process of the pool that loads the data files dies on this file;
# module-level, so that the worker can unpickle the function by name.
DOOMED_FILE = "uu2_meal_001.csv"


def _load_entry_or_die(job):
    if job[1]["file"] == DOOMED_FILE:
        os._exit(9)
    return _load_entry(job)


def _unwritable(test, param, argv):
    """`argv` with an --out that cannot be written, each of three ways."""
    return [Case(f"{test}[{param}-missing-directory]", argv.format(out="nodir/x"), 1,
                 "i/o error: [Errno 2] No such file or directory: 'nodir/x'", patches=NO_LOAD),
            Case(f"{test}[{param}-not-a-directory]", argv.format(out="README.md/x"), 1,
                 files={"README.md": b""}, patches=NO_LOAD),
            Case(f"{test}[{param}-is-a-directory]", argv.format(out="data"), 1,
                 "i/o error: [Errno 21] Is a directory: 'data'", patches=NO_LOAD)]


def _out_on_input(cmd, target):
    """An --out that names one of the run's inputs, spelled another way."""
    args = {"evaluate": " --checkpoint ./z.ckpt --held-out-user u4",
            "embed": " --checkpoint ./z.ckpt --grouping ./groups.txt", "features": "",
            "train": " --config ./run.json --held-out-user u4"}[cmd]
    out, name = {"checkpoint": ("z.ckpt", "--checkpoint"), "config": ("run.json", "--config"),
                 "grouping": ("groups.txt", "--grouping"),
                 "manifest": (MANIFEST, "--data manifest")}[target]
    return Case(f"TestErrorLines::test_out_on_an_input_refused_before_loading[{cmd}-{target}]",
                f"{cmd} --data ./data{args} --out {out} --quiet", 2,
                f"config error: --out {out} would overwrite the {name}",
                {"groups.txt": b"swing=arm\n"}, NO_LOAD)


LOADER_REFUSALS = {  # TestLoaderRefusals' refused edits of the manifest's only file
    "non-numeric": (field_on_line_3(b"oops"), ":3: bad numeric value 'oops' in column 1"),
    "short-row": (_line_3_short, ":3: expected >= 8 fields, got 3"),
    "every-row-short": (_every_line_short, ":1: expected >= 8 fields, got 7"),
    "inf": (field_on_line_3(b"inf"), ":3: non-finite value 'inf' in column 1"),
    "1e500": (field_on_line_3(b"1e500"), ":3: non-finite value '1e500' in column 1"),
    "not-utf-8": (field_on_line_3(b"\xff"), ": not UTF-8 text: 'utf-8' codec can't decode "
                                             "byte 0xff in position …: invalid start byte"),
    "empty": (lambda text: b"", ": no usable rows"),
    "whitespace-only": (lambda text: b" \t \n  \n", ": no usable rows"),
}


def _loader_refusals(*kinds):
    """Each edit as it stands and with a blank line appended: the same refusal."""
    cases = []
    for kind in kinds:
        edit, message = LOADER_REFUSALS[kind]
        for variant, edited in (("", edit), ("-blank-line-appended",
                                             lambda text, edit=edit: edit(text) + b"\n")):
            cases.append(Case(
                f"TestLoaderRefusals::test_same_with_a_blank_line_appended[{kind}{variant}]",
                "features --data data/ --out features.csv --quiet", 3,
                f"data error: {FIRST}{message}", {**manifest(_keep_first_file), FIRST: edited}))
    return cases


SCHEMA_KEYS = ("data error: data/manifest.json: manifest 'schema' must be an object with keys "
               "delimiter, channel_columns, high_label_column")
SCHEMA = "data error: data/manifest.json: bad manifest schema: "
FILES_RULE = ("data error: data/manifest.json: manifest 'files' must be a list of objects, each "
              "with string 'file' and 'user'")
CLASSES_RULE = ("data error: data/manifest.json: manifest 'classes' must be a list of at least 2 "
                "distinct names, got ")
FIVE_CLASSES = _set("classes", ["routine", "brew", "meal", "tidy", "nap"])
ONE_GROUP = b"".join(f"{m}=all\n".encode() for m in (
    "swing", "reach", "twist", "tap", "lift", "shake", "glide", "press"))

ROWS = {
    "i/o error: [Errno 2] No such file or directory: 'data/uu1_routine_001.csv'": [
        Case("missing-listed-data-file", "features --data data/ --out f.csv", 1,
             files={"data/uu1_routine_001.csv": None}),
    ],
    "i/o error: [Errno 20] Not a directory: 'README.md/x'": [
        *_unwritable("TestErrorLines::test_unwritable_out_named_exit_1", "evaluate",
                     EVALUATE + " --quiet --out {out}"),
        *_unwritable("TestErrorLines::test_unwritable_out_named_exit_1", "embed",
                     EMBED + " --quiet --out {out}"),
        *_unwritable("TestErrorLines::test_unwritable_out_named_exit_1", "features",
                     "features --data data/ --quiet --out {out}"),
        *_unwritable("TestErrorLines::test_train_unwritable_out_refused_before_loading", "--out",
                     TRAIN + " --out {out} --history h.json --quiet"),
        *_unwritable("TestErrorLines::test_train_unwritable_out_refused_before_loading",
                     "--history", TRAIN + " --out x.ckpt --history {out} --quiet"),
    ],
    "i/o error: a worker process died before its files were done (killed, or out of memory)": [
        Case("TestOneProcessPerCpu::test_dead_worker_exit_1_one_line[features]",
             "features --data data/ --out out", 1,
             patches=TWO_CPUS + ((ds, "_load_entry", _load_entry_or_die),)),
    ],
    "out of memory: Unable to allocate 2.24 TiB for an array …": [
        # the real request may be granted under memory overcommit and then filled
        Case("TestErrorLines::test_out_of_memory_exit_1[numpy-message]",
             f"{TRAIN} --model mlp --out x.ckpt", 1, files=config({"mlp": {"hidden": 100000000}}),
             patches=((Stack, "init", raising(MemoryError(
                 "Unable to allocate 2.24 TiB for an array with shape (100000000, 3072) "
                 "and data type float64"))),)),
        Case("TestErrorLines::test_out_of_memory_exit_1[no-message]",
             "train --data data/ --held-out-user u4 --model mlp --out x.ckpt", 1,
             "out of memory: an allocation failed",
             patches=((Stack, "init", raising(MemoryError())),)),
    ],
    "charm: error: unrecognized arguments: --seed 1": [
        Case("TestHelp::test_seed_refused_where_no_seed_is_read[evaluate]",
             "evaluate --data data/ --out out --seed 1 --checkpoint z.ckpt --held-out-user u4", 2),
        Case("TestHelp::test_seed_refused_where_no_seed_is_read[embed]",
             "embed --data data/ --out out --seed 1 --checkpoint z.ckpt", 2),
        Case("TestHelp::test_seed_refused_where_no_seed_is_read[features]",
             "features --data data/ --out out --seed 1", 2),
        *[Case(f"TestHelp::test_config_refused_where_no_config_is_read[{cmd}]",
               f"{cmd} --data data/ --config run.json --out out{args}", 2,
               "charm: error: unrecognized arguments: --config run.json")
          for cmd, args in (("evaluate", " --checkpoint z.ckpt --held-out-user u4"),
                            ("embed", " --checkpoint z.ckpt"), ("features", ""))],
        Case("TestInnerFaultsRefusedWhereInputEnters::test_unknown_model_kind_exit_2",
             "train --data data/ --held-out-user u4 --model cnn --out x.ckpt", 2,
             "charm train: error: argument --model: invalid choice: 'cnn' …"),
    ],
    "config error: run.json: unknown key synth.'bogus_knob'": [
        Case("TestGenSynth::test_unknown_config_key_exit_2", "gen-synth --config run.json --out d",
             2, files=config({"synth": {"bogus_knob": 1}})),
        Case("TestGenSynth::test_unknown_section_exit_2", "gen-synth --config run.json --out d", 2,
             "config error: run.json: unknown section 'mystery'", config({"mystery": {}})),
        *[Case(f"TestErrorLines::test_removed_sampling_section_exit_2[{cmd}]",
               f"{argv} --out out", 2, "config error: run.json: unknown section 'sampling'",
               config({"sampling": {"stride": 3}}))
          for cmd, argv in (("gen-synth", "gen-synth --config run.json"), ("train", TRAIN))],
        Case("TestErrorLines::test_bad_config_file_exit_2[list]",
             "gen-synth --config run.json --out d", 2,
             "config error: run.json: top level must be an object", {"run.json": b"[]"}),
        Case("TestErrorLines::test_bad_config_file_exit_2[not-json]",
             "gen-synth --config run.json --out d", 2, "config error: run.json: invalid JSON: "
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
             {"run.json": b"{"}),
        Case("TestErrorLines::test_bad_config_file_exit_2[section-not-object]",
             "gen-synth --config run.json --out d", 2,
             "config error: run.json: section 'train' must be an object",
             {"run.json": b'{"train": [1]}'}),
    ],
    "config error: bad train config: lr must be a finite float in (0, inf), got nan": [
        _bad_value("train-epochs-float", "train", "epochs", 2.5, "an int in [1, inf)"),
        _bad_value("train-epochs-bool", "train", "epochs", True, "an int in [1, inf)"),
        _bad_value("train-lr-nan", "train", "lr", float("nan"), "a finite float in (0, inf)"),
        _bad_value("train-seed-negative", "train", "seed", -1, "an int in [0, inf)"),
        Case("TestBadConfigValue::test_exit_2_one_line_no_output[seed-flag-negative]",
             "train --data data/ --held-out-user u4 --seed -1 --config run.json --out out", 2,
             "config error: bad train config: seed must be an int in [0, inf), got -1",
             config({})),
        _bad_value("charm-r-float", "charm", "r", 16.5, "an int in [1, inf)"),
        _bad_value("charm-slope-string", "charm", "leaky_slope", "x", "a finite float in [0, 1]"),
        _bad_value("charm-slope-above-1", "charm", "leaky_slope", 1.5, "a finite float in [0, 1]"),
        _bad_value("mlp-slope-negative", "mlp", "leaky_slope", -0.5, "a finite float in [0, 1]",
                   " --model mlp"),
        _bad_value("charm-z-zero", "charm", "z", 0, "an int in [1, inf)"),
        _bad_value("mlp-hidden-float", "mlp", "hidden", 8.5, "an int in [1, inf)", " --model mlp"),
        _bad_value("mlp-dropout-above-1", "mlp", "dropout_p", 1.5, "a finite float in [0, 1)",
                   " --model mlp"),
        _bad_value("synth-samples-float", "synth", "samples_per_class_per_user", 2.5,
                   "an int in [1, inf)"),
        _bad_value("synth-seed-bool", "synth", "seed", True, "an int in [0, inf)"),
        _bad_value("synth-rate-zero", "synth", "sample_rate_hz", 0, "a finite float in (0, inf)"),
        Case("TestBadConfigValue::test_exit_2_one_line_no_output[synth-user-noise-negative]",
             "gen-synth --config run.json --out out", 2, "config error: bad synth config: "
             "noise_sigma must be a finite float in [0, inf), got -0.1",
             config({"synth": {"users": _BAD_USERS}})),
        Case("TestBadConfigValue::test_exit_2_one_line_no_output[synth-motif-amplitude-string]",
             "gen-synth --config run.json --out out", 2,
             "config error: bad synth config: amplitude must be a finite float, got 'x'",
             config({"synth": {"motifs": _BAD_MOTIFS}})),
        _bad_name("synth-class-comma", NAMES + "'rou,tine'", classes=("rou,tine", "b")),
        _bad_name("synth-class-space", NAMES + "' routine'", classes=(" routine", "b")),
        _bad_name("synth-class-null", NAMES + "'null'", classes=("null", "b")),
        _bad_name("synth-class-newline", NAMES + "'a\\nb'", classes=("a\nb", "b")),
        _bad_name("synth-class-slash", SLASH + "'a/b'", classes=("a/b", "b")),
        _bad_name("synth-motif-comma", NAMES + "'a,b'", motif="a,b"),
        _bad_name("synth-motif-null", NAMES + "'null'", motif="null"),
        _bad_name("synth-motif-cr", NAMES + "'a\\rb'", motif="a\rb"),
        _bad_name("synth-motif-trailing-space", NAMES + "'a '", motif="a "),
        _bad_name("synth-user-slash", SLASH + "'a/b'", users=("a/b", "b")),
        _bad_name("synth-user-nul", SLASH + "'a\\x00b'", users=("a\0b", "b")),
        _bad_name("synth-user-underscore", USERS + "['1_a', '1']", users=("1_a", "1")),
        _bad_name("synth-user-repeated", USERS + "['u1', 'u2', 'u1']", users=("u1", "u2", "u1")),
        Case("TestBadConfigValue::test_every_command_checks_every_section[gen-synth]",
             "gen-synth --config run.json --out out", 2,
             "config error: bad train config: epochs must be an int in [1, inf), got 2.5",
             config({"train": {"epochs": 2.5}})),
        Case("TestBadConfigValue::test_every_command_checks_every_section[train]",
             f"{TRAIN} --out x.ckpt", 2, "config error: bad synth config: "
             "samples_per_class_per_user must be an int in [1, inf), got 2.5",
             config({"synth": {"samples_per_class_per_user": 2.5}})),
        *[Case(f"TestBadConfigValue::test_synth_shape_exit_2[{id}]",
               "gen-synth --config run.json --out out", 2,
               f"config error: bad synth config: {line}", _synth_edited(edit))
          for id, edit, line in (
            ("duration-lo-above-hi", _set("motifs", "swing", "duration", [8, 4]),
             "bad duration range (8, 4)"),
            ("probabilities-sum-below-1", _set("grammars", "stroll", "probs", {"swing": 0.5}),
             "motif probabilities sum to 0.5, not 1"),
            ("one-grammar", _drop("grammars", "rest"), "need at least 2 classes"),
            ("one-user", _set("users", [{"id": "u1", "amp_scale": 1.0, "noise_sigma": 0.1}]),
             "need at least 2 users (LOSO requires a held-out user)"))],
        _inner_value("Adam-lr-zero", "train", "lr", 0.0, "a finite float in (0, inf)"),
        _inner_value("window-r-zero", "charm", "r", 0, "an int in [1, inf)"),
        _inner_value("Stack.init-low-hidden-zero", "charm", "low_hidden", 0, "an int in [1, inf)"),
        _inner_value("Stack.init-low-out-zero", "charm", "low_out", 0, "an int in [1, inf)"),
        _inner_value("Stack.init-high-hidden-zero", "charm", "high_hidden", 0,
                     "an int in [1, inf)"),
        _inner_value("dropout_mask-p-one", "charm", "dropout_p", 1.0, "a finite float in [0, 1)"),
        _inner_value("dropout_mask-p-negative", "charm", "dropout_p", -0.1,
                     "a finite float in [0, 1)"),
        _inner_value("Stack.init-one-mlp-layer", "mlp", "layers", 1, "an int in [2, inf)",
                     " --model mlp"),
        _inner_value("Stack.init-mlp-hidden-zero", "mlp", "hidden", 0, "an int in [1, inf)",
                     " --model mlp"),
        Case("TestGenSynth::test_motif_without_channels_exit_2",
             "gen-synth --config run.json --out d", 2,
             "config error: bad synth config: motif 'still' has no channels", config({"synth": {
                 "motifs": {"still": {"channels": [], "duration": [4, 8]}},
                 "grammars": {"a": {"probs": {"still": 1.0}, "target_len": 10},
                              "b": {"probs": {"still": 1.0}, "target_len": 12}}}})),
    ],
    "config error: bad synth config: grammar 'stroll' references unknown motif 'nope'": [
        Case("TestRefusalsAtTheirSource::test_synth_config_exit_2[unknown-motif]",
             "gen-synth --config run.json --out out", 2, files=_synth_edited(_unknown_motif)),
    ],
    "config error: bad synth config: all motifs must have the same channel count": [
        Case("TestRefusalsAtTheirSource::test_synth_config_exit_2[motif-channel-counts-differ]",
             "gen-synth --config run.json --out out", 2, files=_synth_edited(_two_channel_motif)),
    ],
    "config error: groups.txt: expected 'label=group' lines, got 'swing armwork'": [
        Case("TestErrorLines::test_bad_grouping_exit_2[no-equals]",
             f"{EMBED} --grouping groups.txt --out emb.csv", 2,
             files={"groups.txt": b"swing armwork\n"}),
        Case("TestErrorLines::test_bad_grouping_exit_2[comments-only]",
             f"{EMBED} --grouping groups.txt --out emb.csv", 2,
             "config error: groups.txt: empty grouping file",
             {"groups.txt": b"# comments only\n\n"}),
        Case("TestNotUtf8::test_exit_code_one_line[config-2]",
             "gen-synth --config run.json --out out", 2, "config error: run.json: not UTF-8 "
             "text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
             {"run.json": b"\xff{}"}),
        Case("TestNotUtf8::test_exit_code_one_line[grouping-2]",
             f"{EMBED} --grouping groups.txt --out out", 2, "config error: groups.txt: not UTF-8 "
             "text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
             {"groups.txt": b"\xff{}"}),
    ],
    "config error: cannot read grouping: [Errno 2] No such file or directory: 'nope.txt'": [
        Case("TestErrorLines::test_missing_grouping_exit_2",
             f"{EMBED} --grouping nope.txt --out emb.csv", 2),
        Case("TestErrorLines::test_bad_config_file_exit_2[missing]",
             "gen-synth --config run.json --out d", 2,
             "config error: cannot read config: [Errno 2] No such file or directory: 'run.json'",
             {"run.json": None}),
    ],
    "config error: --out z.ckpt would overwrite the --checkpoint": [
        *[_out_on_input(cmd, target) for cmd, target in (
            ("evaluate", "checkpoint"), ("evaluate", "manifest"), ("embed", "checkpoint"),
            ("embed", "grouping"), ("embed", "manifest"), ("features", "manifest"),
            ("train", "config"), ("train", "manifest"))],
        *[Case(f"TestErrorLines::test_history_on_the_checkpoint_refused_before_loading[{path}]",
               f"{TRAIN} --out x.ckpt --history {path} --quiet", 2,
               f"config error: --history {path} would overwrite the --out checkpoint",
               patches=NO_LOAD) for path in ("x.ckpt", "./x.ckpt")],
    ],
    "data error: cannot read manifest: [Errno 2] No such file or directory: "
    "'nowhere/manifest.json'": [
        Case("TestFeatures::test_missing_data_dir_exit_3", "features --data nowhere --out f.csv",
             3),
        Case("TestFeatures::test_bad_manifest_exit_3[not-json]",
             "features --data data/ --out f.csv", 3, "data error: data/manifest.json: invalid "
             "JSON: Expecting value: line 1 column 1 (char 0)", {MANIFEST: b"not json"}),
    ],
    "data error: data/manifest.json: bad manifest schema: delimiter must be a single "
    "character": [
        *[Case(f"TestManifestValidation::test_bad_schema_or_files_exit_3[{id}]",
               "features --data data/ --out f.csv", 3, line, manifest(edit))
          for id, edit, line in (
            ("schema-no-delimiter", _drop("schema", "delimiter"), SCHEMA_KEYS),
            ("schema-no-channels", _drop("schema", "channel_columns"), SCHEMA_KEYS),
            ("schema-no-high-label", _drop("schema", "high_label_column"), SCHEMA_KEYS),
            ("schema-not-object", _set("schema", ["delimiter"]), SCHEMA_KEYS),
            ("schema-shared-column", _set("schema", {"delimiter": ",", "channel_columns": [0, 1],
                                                     "high_label_column": 1}),
             SCHEMA + "schema column indices must be distinct"),
            ("schema-float-column", _set("schema", {"delimiter": ",", "channel_columns": [0.0, 1],
                                                    "high_label_column": 2}),
             SCHEMA + "schema column must be an int in [0, inf), got 0.0"),
            ("entry-no-file", _drop("files", 0, "file"), FILES_RULE),
            ("entry-no-user", _drop("files", 1, "user"), FILES_RULE),
            ("files-not-list", _set("files", {"file": "x.csv", "user": "u1"}), FILES_RULE),
            ("entry-not-object", _set("files", ["x.csv"]), FILES_RULE),
            ("q-not-channel-count", _set("q", 5),
             "data error: data/manifest.json: manifest 'q' is 5 but the schema has 6 channel "
             "columns"),
            ("classes-not-list", _set("classes", "routine"), CLASSES_RULE + "'routine'"),
            ("classes-one-name", _set("classes", ["routine"]), CLASSES_RULE + "['routine']"),
            ("classes-duplicate", _set("classes", ["routine", "brew", "routine"]),
             CLASSES_RULE + "['routine', 'brew', 'routine']"),
            ("schema-low-labels-not-object", _set("schema", "low_label_columns", [7]),
             SCHEMA + "low_label_columns must be dict | None, got [7]"),
            ("schema-delimiter-not-string", _set("schema", "delimiter", [","]),
             SCHEMA + "delimiter must be str, got [',']"),
            ("schema-null-token-not-string", _set("schema", "null_label_token", 5),
             SCHEMA + "null_label_token must be str, got 5"),
            ("schema-high-label-bool", _set("schema", "high_label_column", True),
             SCHEMA + "high_label_column must be an int in [0, inf), got True"),
            ("schema-no-channel-columns", _set("schema", "channel_columns", []),
             SCHEMA + "schema needs at least one channel column"),
            ("schema-two-character-delimiter", _set("schema", "delimiter", ",;"), None))],
        *[Case(f"TestFeatures::test_bad_manifest_exit_3[{drop}]",
               "features --data data/ --out f.csv", 3, "data error: data/manifest.json: manifest "
               "must be a JSON object with keys schema, files, classes, q", manifest(edit))
          for drop, edit in (("None", lambda manifest: [manifest]), ("schema", _drop("schema")),
                             ("files", _drop("files")), ("classes", _drop("classes")),
                             ("q", _drop("q")))],
        Case("TestEvaluateReadsOnlyHeldOutUser::test_malformed_manifest_exit_3",
             f"{EVALUATE} --out out", 3, FILES_RULE, manifest(_drop("files", 1, "user"))),
    ],
    "data error: data/uu1_routine_000.csv: not UTF-8 text: …": [
        Case("TestNotUtf8::test_exit_code_one_line[sensor file-3]",
             "features --data data/ --out out", 3, "data error: data/uu1_routine_000.csv: not "
             "UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
             {FIRST: _not_utf8}),
        Case("TestNotUtf8::test_exit_code_one_line[manifest-3]", "features --data data/ --out out",
             3, "data error: data/manifest.json: not UTF-8 text: 'utf-8' codec can't decode "
             "byte 0xff in position 0: invalid start byte", {MANIFEST: _not_utf8}),
        *_loader_refusals("not-utf-8"),
    ],
    "data error: data/uu1_routine_000.csv:5: bad numeric value 'oops' in column 2": [
        Case("TestRefusalsAtTheirSource::test_empty_field_before_a_bad_token_exit_3",
             "features --data data/ --out f.csv", 3,
             files={**manifest(_keep_first_file), FIRST: _empty_then_bad_field_on_line_5}),
        *_loader_refusals("non-numeric", "short-row", "every-row-short", "inf", "1e500"),
        *[Case(f"TestNonFiniteValues::test_inf_exit_3_no_output[{cmd}]", f"{argv} --out out", 3,
               f"data error: {FIRST}:3: non-finite value 'inf' in column 1",
               {FIRST: field_on_line_3(b"inf")})
          for cmd, argv in (("train", TRAIN), ("features", "features --data data/"))],
    ],
    "data error: data/uu1_routine_000.csv: no usable rows": [
        *_loader_refusals("empty", "whitespace-only"),
        Case("TestErrorLines::test_no_usable_data_exit_3[blank-lines-only]",
             "features --data data/ --out f.csv", 3, files={FIRST: lambda text: b"\n  \n\n"}),
    ],
    "data error: data/: no labeled segments found": [
        Case("TestErrorLines::test_no_usable_data_exit_3[all-runs-null]",
             "features --data data/ --out f.csv", 3,
             files={**manifest(_keep_first_file), FIRST: _null_high_labels}),
    ],
    "data error: unknown user 'u9'; available users: ['u1', 'u2', 'u3', 'u4']": [
        Case("TestTrain::test_unknown_user_exit_3",
             "train --config run.json --data data/ --held-out-user u9 --out x.ckpt", 3),
        Case("TestEvaluateReadsOnlyHeldOutUser::test_unknown_user_message_as_train_gives_it"
             "[evaluate]",
             "evaluate --checkpoint z.ckpt --data data/ --held-out-user u9 --out out", 3),
        Case("TestEvaluateReadsOnlyHeldOutUser::test_unknown_user_message_as_train_gives_it"
             "[train]", "train --config run.json --data data/ --held-out-user u9 --out out", 3),
    ],
    "data error: held-out user 'u4' has no labeled segments": [
        Case("TestInnerFaultsRefusedWhereInputEnters::test_held_out_user_without_labeled_runs"
             f"_exit_3[{cmd}]", argv, 3, files={"data/uu4_*.csv": _null_high_labels})
        for cmd, argv in (("evaluate", f"{EVALUATE} --out metrics.txt"),
                          ("train", f"{TRAIN} --out x.ckpt"))
    ],
    "data error: held-out user leaves an empty training set": [
        Case("TestErrorLines::test_single_user_held_out_exit_3", f"{TRAIN} --out x.ckpt", 3,
             files=manifest(_only_u4)),
    ],
    "data error: class 'tidy' has no training samples": [
        Case("TestErrorLines::test_class_only_the_held_out_user_has_named_exit_3",
             f"{TRAIN} --out x.ckpt", 3, files=manifest(_tidy_only_u4)),
    ],
    "data error: data has 5 classes, checkpoint expects 4": [
        Case("TestCheckpointDataMismatch::test_exit_3_one_line_no_output[embed-3-channels]",
             f"{EMBED} --out out", 3, "data error: data has 3 channels, checkpoint expects 6",
             manifest(_three_channels)),
        Case("TestCheckpointDataMismatch::test_exit_3_one_line_no_output[evaluate-3-channels]",
             f"{EVALUATE} --out out", 3, "data error: data has 3 channels, checkpoint expects 6",
             manifest(_three_channels)),
        Case("TestCheckpointDataMismatch::test_exit_3_one_line_no_output[embed-5-classes]",
             f"{EMBED} --out out", 3, files=manifest(FIVE_CLASSES)),
        Case("TestCheckpointDataMismatch::test_exit_3_one_line_no_output[evaluate-5-classes]",
             f"{EVALUATE} --out out", 3, files=manifest(FIVE_CLASSES)),
        Case("TestCheckpointDataMismatch::test_exit_3_one_line_no_output[evaluate-2-classes]",
             f"{EVALUATE} --out out", 3, "data error: data has 2 classes, checkpoint expects 4",
             manifest(_first_two_classes)),
    ],
    "data error: crop length 512 is longer than every segment (the longest has 400 samples)": [
        *[Case("TestTrainValidatesAsEvaluateScores::test_held_out_user_shorter_than_the_crop"
               f"_exit_3_as_evaluate[{cmd}]", argv, 3, files={"data/uu4_*.csv": _first_lines(400)})
          for cmd, argv in (("evaluate", EVALUATE), ("train", f"{TRAIN} --out x.ckpt"))],
        Case("TestTrainValidatesAsEvaluateScores::test_training_users_shorter_than_the_crop"
             "_exit_3", f"{TRAIN} --out x.ckpt", 3,
             "data error: crop length 512 is longer than every segment (the longest has 300 "
             "samples)",
             {"data/uu[123]_*.csv": _first_lines(300)}),
        *[Case(f"TestCropLongerThanEverySegment::test_train_exit_3_one_line[{model}]",
               f"{TRAIN} --model {model} --out x.ckpt", 3, "data error: crop length 131072 is "
               "longer than every segment (the longest has 768 samples)",
               config({"charm": {"r": 4096}}),
               NO_PADDING) for model in ("charm", "mlp")],
        Case("TestCropLongerThanEverySegment::test_evaluate_exit_3_one_line",
             f"{EVALUATE} --out metrics.txt", 3, "data error: crop length 4096 is longer than "
             "every segment (the longest has 768 samples)", _saved(lambda: MlpModel.init(
                 MlpConfig(n_target=4096, q=6, m=4, hidden=2), make_rng(0))), NO_PADDING),
    ],
    "data error: data has no low-level label track 'locomotion'": [
        Case("TestEmbed::test_missing_track_exit_3", f"{EMBED} --track locomotion --out e.csv", 3),
    ],
    "data error: embedding analysis: degenerate input: all rows identical (zero covariance)": [
        Case("TestErrorLines::test_embed_degenerate_embedding_exit_3", f"{EMBED} --out emb.csv", 3,
             files=_edited(_zero_weights)),
        Case("TestEmbed::test_grouping_into_one_label_exit_3",
             f"{EMBED} --grouping groups.txt --out emb.csv", 3,
             "data error: embedding analysis needs at least 2 distinct labels, got ['all']",
             {"groups.txt": ONE_GROUP}),
        Case("TestErrorLines::test_embed_too_few_windows_exit_3", f"{EMBED} --out emb.csv", 3,
             "data error: not enough label-pure windows for embedding analysis",
             {**manifest(_keep_first_file), FIRST: _first_lines(40)}),
    ],
    "data error: the model's outputs on this data are not finite: softmax: non-finite logits": [
        Case("TestErrorLines::test_evaluate_overflowing_weights_exit_3",
             f"{EVALUATE} --out metrics.txt", 3, files=_edited(_weights_times_1e120)),
    ],
    "data error: embedding analysis: the embeddings' 2-D PCA is not finite "
    "(values too large for float64)": [
        Case("TestNonFiniteValues::test_finite_value_near_the_float_limit_exit_3_no_output[embed]",
             f"{EMBED} --out out.csv", 3, files={FIRST: field_on_line_3(b"1e308")}),
    ],
    "data error: data/uu1_routine_000.csv[0:768]: a hand-crafted feature is not finite "
    "(values too large for float64)": [
        Case("TestNonFiniteValues::test_finite_value_near_the_float_limit_exit_3_no_output"
             "[features]", "features --data data/ --out out.csv", 3,
             files={FIRST: field_on_line_3(b"1e308")}),
    ],
    "data error: training data cannot be normalized: means and stds must be finite": [
        Case("TestHugeFiniteValues::test_1e160_train_exit_3_no_output", f"{TRAIN} --out x.ckpt", 3,
             files={FIRST: field_on_line_3(b"1e160")}),
    ],
    "data error: training diverged in epoch 1: non-finite logits; try a smaller train.lr": [
        Case("TestErrorLines::test_diverging_training_exit_3", f"{TRAIN} --out x.ckpt", 3,
             files=config({"train": {"lr": 1e100, "epochs": 1}})),
    ],
    "data error: training diverged in epoch 1: mean loss … is over 100 times the first "
    "batch's …; try a smaller train.lr": [
        Case(f"TestErrorLines::test_finite_but_absurd_training_exit_3[{model}]",
             f"{TRAIN} --model {model} --out big.ckpt", 3,
             files=config({"train": {"lr": 1e10, "epochs": 2}})) for model in ("charm", "mlp")
    ],
    "checkpoint error: cannot read checkpoint: [Errno 2] No such file or directory: 'u9.ckpt'": [
        Case("TestEvaluate::test_missing_checkpoint_exit_4",
             "evaluate --checkpoint u9.ckpt --data data/ --held-out-user u4", 4),
    ],
    "checkpoint error: embedding extraction requires a charm checkpoint": [
        Case("TestErrorLines::test_embed_mlp_checkpoint_exit_4", f"{EMBED} --out emb.csv", 4,
             files=MLP_CHECKPOINT),
        Case("TestErrorLines::test_embed_checkpoint_refused_before_loading[mlp]",
             f"{EMBED} --out emb.csv", 4, files=MLP_CHECKPOINT, patches=NO_LOAD),
    ],
    "checkpoint error: embedding extraction needs low_out >= 2 for a 2-D PCA, checkpoint has 1": [
        Case("TestErrorLines::test_embed_checkpoint_refused_before_loading[low-out-1]",
             f"{EMBED} --out emb.csv", 4, files=_saved(lambda: CharmModel.init(
                 CharmConfig(r=16, q=6, z=32, m=4, low_out=1), make_rng(0))), patches=NO_LOAD),
    ],
    "checkpoint error: z.ckpt: malformed header: …": [
        *[Case(f"TestEvaluate::test_bad_header_config_exit_4[{old.decode()}-{new.decode()}-{key}]",
               EVALUATE, 4, f"checkpoint error: z.ckpt: malformed header: {message}",
               {"z.ckpt": lambda blob, old=old, new=new: blob.replace(old, new, 1)})
          for old, new, key, message in (
            (b'"r": 16,', b'"r": 16.5,', "r", "r must be an int in [1, inf), got 16.5"),
            (b'"low_out_activation": true', b'"low_out_activation": "no"', "low_out_activation",
             "low_out_activation must be bool, got 'no'"),
            (b'"leaky_slope": 0.01,', b'"leaky_slope": 5.0,', "leaky_slope",
             "leaky_slope must be a finite float in [0, 1], got 5.0"))],
        *[Case(f"TestInnerFaultsRefusedWhereInputEnters::test_checkpoint_header_exit_4[{id}]",
               f"{EVALUATE} --out metrics.txt", 4,
               f"checkpoint error: z.ckpt: malformed header: {key} must be {rule}, got {value!r}",
               _header_config(key, value))
          for id, key, value, rule in (
            ("dropout_mask-p-one", "dropout_p", 1.0, "a finite float in [0, 1)"),
            ("Stack.init-low-hidden-zero", "low_hidden", 0, "an int in [1, inf)"),
            ("Stack.init-m-zero", "m", 0, "an int in [1, inf)"),
            ("window-r-zero", "r", 0, "an int in [1, inf)"),
            ("normalize-q-zero", "q", 0, "an int in [1, inf)"))],
        Case("TestEvaluate::test_bad_checkpoint_exit_4", EVALUATE, 4,
             "checkpoint error: z.ckpt: bad magic; not a checkpoint file",
             {"z.ckpt": b"not a checkpoint"}),
        *[Case(f"TestErrorLines::test_bad_checkpoint_header_exit_4[{id}]",
               f"{EVALUATE} --out metrics.txt", 4, f"checkpoint error: z.ckpt: {message}", files)
          for id, files, message in (
            ("no-header-newline", {"z.ckpt": MAGIC + b'{"version": 1}'}, "missing header"),
            ("header-not-json", {"z.ckpt": MAGIC + b"not json\n"},
             "corrupt header: Expecting value: line 1 column 1 (char 0)"),
            ("header-list", {"z.ckpt": MAGIC + b"[1]\n"}, "corrupt header: not a JSON object"),
            ("version-2", _edited(_version_2), "unsupported checkpoint version 2"),
            ("unknown-kind", _edited(_unknown_kind), "unknown model kind 'lstm'"),
            ("shapes-not-the-config's", _edited(_wider_first_shape),
             "array shapes [[33, 96], [32], [32, 32], [32], [32, 1024], [32], [4, 32], [4]] do "
             "not match config-derived [[32, 96], [32], [32, 32], [32], [32, 1024], [32], "
             "[4, 32], [4]]"))],
        Case("TestErrorLines::test_payload_sized_before_the_model_is_built_exit_4"
             "[billion-mlp-layers]", f"{EVALUATE} --out metrics.txt", 4,
             "checkpoint error: z.ckpt: 8 array shapes for 1000000000 layers",
             _edited(_billion_mlp_layers), NO_MODEL),
    ],
    "checkpoint error: z.ckpt: truncated or corrupt payload (296736 bytes, expected …)": [
        *[Case(f"TestErrorLines::test_payload_sized_before_the_model_is_built_exit_4[{id}]",
               f"{EVALUATE} --out metrics.txt", 4, "checkpoint error: z.ckpt: truncated or "
               "corrupt payload (296736 bytes, expected 8192000034592)", _edited(edit), NO_MODEL)
          for id, edit in (("huge-z", _huge_z), ("huge-z-and-shapes", _huge_z_and_shapes))],
        Case("TestErrorLines::test_bad_checkpoint_header_exit_4[payload-8-bytes-short]",
             f"{EVALUATE} --out metrics.txt", 4, "checkpoint error: z.ckpt: truncated or corrupt "
             "payload (296728 bytes, expected 296736)", {"z.ckpt": lambda blob: blob[:-8]}),
    ],
    "checkpoint error: z.ckpt: malformed header: means and stds must be finite": [
        Case(f"TestErrorLines::test_bad_checkpoint_header_exit_4[{id}]",
             f"{EVALUATE} --out metrics.txt", 4, files=_edited(edit))
        for id, edit in (("nan-channel-std", _nan_channel_std),
                         ("inf-channel-mean", _inf_channel_mean))
    ],
    "checkpoint error: z.ckpt: malformed header: stds must be clamped to >= 1e-08": [
        Case("TestRefusalsAtTheirSource::test_checkpoint_channel_stats_exit_4[zero-channel-std]",
             f"{EVALUATE} --out metrics.txt", 4, files=_edited(_zero_channel_std)),
    ],
    "checkpoint error: z.ckpt: malformed header: means/stds must be 1-D and the same length": [
        Case("TestRefusalsAtTheirSource::test_checkpoint_channel_stats_exit_4"
             "[means-and-stds-lengths-differ]", f"{EVALUATE} --out metrics.txt", 4,
             files=_edited(_one_std_fewer)),
        Case("TestInnerFaultsRefusedWhereInputEnters::test_checkpoint_header_exit_4"
             "[normalize-2-D-means]", f"{EVALUATE} --out metrics.txt", 4,
             files=_edited(_two_dimensional_means)),
        Case("TestErrorLines::test_bad_checkpoint_header_exit_4[short-channel-stats]",
             f"{EVALUATE} --out metrics.txt", 4,
             "checkpoint error: z.ckpt: channel stats do not match model input channels",
             _edited(_short_channel_stats)),
    ],
    "checkpoint error: z.ckpt: non-finite parameter values": [
        Case("TestErrorLines::test_bad_checkpoint_header_exit_4[nan-weight]",
             f"{EVALUATE} --out metrics.txt", 4, files=_edited(_nan_weight)),
        Case("TestErrorLines::test_embed_refuses_non_finite_weights_exit_4",
             f"{EMBED} --out emb.csv", 4, files=_edited(_nan_weight)),
    ],
    "interrupted": [
        Case("test_interrupt_exit_130_one_line", "features --data data/ --out f.csv", 130,
             patches=((cli, "cmd_features", raising(KeyboardInterrupt())),)),
    ],
}

CASES = [(row, case) for row, cases in ROWS.items() for case in cases]


def matches(pattern, line):
    """Whether `line` is `pattern` in full, where `…` matches any text."""
    return re.fullmatch(".*".join(map(re.escape, pattern.split("…"))), line) is not None


def tree():
    """Every path under the working directory: a file's bytes, None for a directory."""
    found = {}
    for root, dirs, files in os.walk("."):
        found.update({os.path.join(root, name): None for name in dirs})
        found.update({os.path.join(root, name): Path(root, name).read_bytes() for name in files})
    return found


@pytest.mark.parametrize("row, case", CASES, ids=[case.id for _, case in CASES])
def test_refused(row, case, workspace, checkpoint, tmp_path, monkeypatch, capsys):
    # links, not copies: every write below replaces a file and never writes through one
    shutil.copytree(workspace["data"], tmp_path / "data", copy_function=os.link)
    os.link(checkpoint, tmp_path / "z.ckpt")
    (tmp_path / "run.json").write_text(json.dumps(SMALL_CONFIG))
    monkeypatch.chdir(tmp_path)
    for name, new in case.files.items():
        for path in sorted(Path().glob(name)) or [Path(name)]:
            old = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
            data = new(old) if callable(new) else new
            assert data != old, f"the edit of {path} changed nothing"
            if data is not None:
                path.write_bytes(data)
    before = tree()
    for target, name, value in case.patches:
        monkeypatch.setattr(target, name, value)
    try:
        code, usage = main(case.argv.split()), False
    except SystemExit as exit_:  # argparse, after its usage line
        code, usage = exit_.code, True
    out, err = capsys.readouterr()
    lines = err.splitlines()
    if usage:
        assert lines[0].startswith("usage: charm")
        lines = lines[-1:]
    assert (code, out) == (case.code, "")
    assert len(lines) == 1 and "Traceback" not in err, err
    assert matches(case.line or row, lines[0]), lines[0]
    after = tree()
    assert [path for path in sorted(before.keys() | after.keys())
            if before.get(path, "absent") != after.get(path, "absent")] == []
    assert multiprocessing.active_children() == []

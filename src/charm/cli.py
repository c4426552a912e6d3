"""Command-line pipeline: gen-synth, train, evaluate, embed, features.

Exit codes: 0 ok, 1 I/O error or out of memory, 2 config error, 3 data
error, 4 checkpoint error, 130 interrupted. All randomness flows from one
run seed (the --seed of gen-synth and train overrides the config).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import dataset as ds
from . import embed as emb
from . import synth
from .dataset import load_data_dir
from .features import feature_header, handcrafted_features
from .model import (MODELS, CharmConfig, CheckpointError, MlpConfig, load_checkpoint,
                    save_checkpoint)
from .traineval import (TrainConfig, TrainedModel, evaluate, format_report,
                        report_key_values, train)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Run configuration: a JSON file with optional sections. A section's keys are
# the fields of its config dataclass, less the shapes the data fixes; unknown
# keys are rejected. Defaults target the desk-scale synthetic dataset.

_SECTION_KEYS = {
    section: {f.name for f in fields(cls)} - {"q", "m", "n_target"}
    for section, cls in (("train", TrainConfig), ("charm", CharmConfig),
                         ("mlp", MlpConfig), ("synth", synth.SynthConfig))}

_CLI_CHARM_DEFAULTS = {"r": 16, "z": 32}  # n_target 512 at synthetic scale


def load_run_config(path) -> dict:
    if path is None:
        return {}
    raw = ds.read_json(path, "config", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for section, body in raw.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        for key in body:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key!r}")
    _check_sections(raw)
    return raw


def _check_sections(cfg):
    """Builds every section, with the default data shapes where the data
    fixes them, so a bad value fails every command that reads the file."""
    build_train_config(cfg)
    build_charm_config(cfg, q=CharmConfig.q, m=CharmConfig.m)
    build_mlp_config(cfg, n_target=MlpConfig.n_target, q=MlpConfig.q, m=MlpConfig.m)
    build_synth_config(cfg)


def _build(section, make, **kwargs):
    """make(**kwargs); a bad value is a ConfigError naming the section."""
    try:
        return make(**kwargs)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad {section} config: {e}") from e


def build_train_config(cfg: dict, seed_override=None) -> TrainConfig:
    section = dict(cfg.get("train", {}))
    if seed_override is not None:
        section["seed"] = seed_override
    return _build("train", TrainConfig, **section)


def build_charm_config(cfg: dict, q: int, m: int) -> CharmConfig:
    return _build("charm", CharmConfig, q=q, m=m,
                  **{**_CLI_CHARM_DEFAULTS, **cfg.get("charm", {})})


def build_mlp_config(cfg: dict, n_target: int, q: int, m: int) -> MlpConfig:
    return _build("mlp", MlpConfig, n_target=n_target, q=q, m=m, **cfg.get("mlp", {}))


def build_synth_config(cfg: dict, seed_override=None) -> synth.SynthConfig:
    """The default synthetic config with the keys of the `synth` section
    replaced; `motifs`, `grammars` and `users` are parsed into their types."""
    section = dict(cfg.get("synth", {}))
    if seed_override is not None:
        section["seed"] = seed_override
    return _build("synth", _synth_config, **section)


def _entry(kind, name, body, *keys):
    """The values of `keys` in a `synth.<kind>` entry; a ValueError naming
    the entry unless it is an object of exactly those keys."""
    if not isinstance(body, dict) or body.keys() != set(keys):
        raise ValueError(f"{kind} entry {name!r} must be an object of {', '.join(keys)}")
    return [body[key] for key in keys]


def _synth_config(**section) -> synth.SynthConfig:
    if "motifs" in section:
        section["motifs"] = {
            name: synth.MotifSpec(name, tuple(synth.ChannelWave(*wave) for wave in channels),
                                  tuple(duration))
            for name, body in section["motifs"].items()
            for channels, duration in [_entry("motifs", name, body, "channels", "duration")]}
    if "grammars" in section:
        section["grammars"] = tuple(
            synth.ActivityGrammar(cls, *_entry("grammars", cls, body, "probs", "target_len"))
            for cls, body in section["grammars"].items())
    if "users" in section:
        section["users"] = tuple(
            synth.UserProfile(*_entry("users", i, body, "id", "amp_scale", "noise_sigma"))
            for i, body in enumerate(section["users"]))
    return replace(synth.default_config(), **section)


def fixed_length_dataset(segments, n_target, stride):
    """The crops of every segment of a non-empty list; a DataError, before
    any padding, when n_target is longer than every segment."""
    longest = max(len(seg.data) for seg in segments)
    if n_target > longest:
        raise ds.DataError(f"crop length {n_target} is longer than every segment "
                           f"(the longest has {longest} samples)")
    return [sample for seg in segments
            for sample in ds.make_fixed_length_samples(seg, n_target, stride)]


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and prints its summary;
# gen-synth and train read their --config first. main() owns --quiet.

def cmd_gen_synth(args):
    scfg = build_synth_config(load_run_config(args.config), seed_override=args.seed)
    segments = synth.gen_dataset(scfg)
    synth.write_dataset(segments, scfg, args.out)
    print(f"wrote {len(segments)} segments "
          f"({len(scfg.grammars)} classes x {len(scfg.users)} users x "
          f"{scfg.samples_per_class_per_user} samples) to {args.out}")
    return 0


def _crops(segments, n_target):
    """fixed_length_dataset every max(n_target // 2, 1) rows: the one crop of every command."""
    return fixed_length_dataset(segments, n_target, max(n_target // 2, 1))


def _check_outputs(args, *outputs):
    """Refuses each (flag, path, what) output before any data file is read: a
    path naming one of the run's input files or an earlier output is a
    ConfigError, one atomic_write cannot write the OSError it would meet."""
    given = {name: getattr(args, name, None) for name in ("checkpoint", "config", "grouping")}
    taken = [(f"the --{name}", path) for name, path in given.items() if path]
    taken.append(("the --data manifest", os.path.join(args.data, "manifest.json")))
    for flag, path, what in outputs:
        for name, other in taken:
            if os.path.realpath(path) == os.path.realpath(other):
                raise ConfigError(f"{flag} {path} would overwrite {name}")
        taken.append((f"the {flag} {what}", path))
    for _, path, _ in outputs:
        ds.output_dir(path)


def run_fold(segments, classes, held_out_user, model_kind, train_cfg, model_cfg):
    """`train`'s leave-one-user-out fold: (TrainedModel, TrainHistory, training crop count)."""
    train_segments, val_segments = ds.loso_split(segments, held_out_user)
    if not train_segments:
        raise ds.DataError("held-out user leaves an empty training set")
    untrained = set(range(len(classes))) - {seg.high_label for seg in train_segments}
    if untrained:
        raise ds.DataError(f"class {classes[min(untrained)]!r} has no training samples")
    train_set = _crops(train_segments, model_cfg.n_target)
    val_set = _crops(val_segments, model_cfg.n_target)
    trained, history = train(train_set, model_kind, train_cfg, model_cfg, val_segments=val_set)
    return trained, history, len(train_set)


def cmd_train(args):
    cfg = load_run_config(args.config)
    tcfg = build_train_config(cfg, seed_override=args.seed)
    hist_path = args.history or args.out + ".history.json"
    _check_outputs(args, ("--out", args.out, "checkpoint"), ("--history", hist_path, "history"))
    segments, classes, schema = load_data_dir(args.data)
    if all(seg.user_id != args.held_out_user for seg in segments):
        load_data_dir(args.data, user=args.held_out_user)  # refuses the user as evaluate does
    mcfg = build_charm_config(cfg, q=len(schema.channel_columns), m=len(classes))
    if args.model == "mlp":
        mcfg = build_mlp_config(cfg, n_target=mcfg.n_target, q=mcfg.q, m=mcfg.m)
    trained, history, n_train = run_fold(segments, classes, args.held_out_user, args.model,
                                         tcfg, mcfg)
    save_checkpoint(trained.model, trained.stats, args.out)
    ds.atomic_write(hist_path, json.dumps(asdict(history), indent=2) + "\n")
    print(f"trained {args.model} on {n_train} samples "
          f"(held-out user {args.held_out_user}, {tcfg.epochs} epochs)")
    print(f"final mean train loss {history.train_loss[-1]:.4f}, "
          f"val macro-F1 {history.val_macro_f1[-1]:.4f}")
    print(f"checkpoint: {args.out}")
    return 0


def _load_data_for(model, data_dir, user=None):
    """load_data_dir(data_dir, user); a DataError unless the data has the
    channel and class counts the checkpoint's model was trained on."""
    segments, classes, schema = load_data_dir(data_dir, user=user)
    for what, found, expected in (("channels", len(schema.channel_columns), model.cfg.q),
                                  ("classes", len(classes), model.cfg.m)):
        if found != expected:
            raise ds.DataError(f"data has {found} {what}, checkpoint expects {expected}")
    return segments, classes, schema


def cmd_evaluate(args):
    if args.out:
        _check_outputs(args, ("--out", args.out, "report"))
    model, stats = load_checkpoint(args.checkpoint)
    segments, classes, schema = _load_data_for(model, args.data, user=args.held_out_user)
    report = evaluate(TrainedModel(model, stats), _crops(segments, model.cfg.n_target))
    print(format_report(report, classes))
    if args.out:
        ds.atomic_write(args.out, report_key_values(report, classes))
    return 0


def cmd_embed(args):
    _check_outputs(args, ("--out", args.out, "CSV"))
    model, stats = load_checkpoint(args.checkpoint)
    if model.kind != "charm":
        raise CheckpointError("embedding extraction requires a charm checkpoint")
    if model.cfg.low_out < 2:
        raise CheckpointError("embedding extraction needs low_out >= 2 for a 2-D PCA, "
                              f"checkpoint has {model.cfg.low_out}")
    groups = ds.read_json(args.grouping, "grouping", ConfigError) if args.grouping else {}
    if args.grouping and not (isinstance(groups, dict) and groups
                              and all(isinstance(group, str) for group in groups.values())):
        raise ConfigError(f"{args.grouping}: grouping must be a non-empty JSON object "
                          "mapping labels to group name strings")
    segments, classes, schema = _load_data_for(model, args.data)
    if groups:  # a key that no segment's track holds merges nothing
        labels = set().union(*(seg.low_label_tracks.get(args.track, ())
                               for seg in segments if seg.low_label_tracks))
        unknown = [key for key in groups if key not in labels]
        if labels and unknown:
            raise ConfigError(f"{args.grouping}: grouping key {unknown[0]!r} names no label of "
                              f"track {args.track!r}: {sorted(labels)}")
    n_windows, n_labels, score, n_scored, share, largest = emb.embed_segments(
        model, stats, segments, args.track, schema.null_label_token, groups, args.out)
    print(f"{n_windows} label-pure windows, {n_labels} labels -> {args.out}")
    print(f"2-D PCA: {share:.2%} of the embedding variance; "
          f"largest |normalized value| {largest:.4g}")
    scored = f"{n_scored} of {n_windows} windows"
    print(f"silhouette: {score:.4f} ({scored})" if score is not None
          else f"silhouette: undefined ({scored}, all one label)")
    return 0


def _feature_row(seg, classes, data_dir):
    """A segment's `features` CSV row; a DataError naming its source in
    data_dir when a feature is not finite (values too large for float64)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        values = handcrafted_features(seg.data)
    if not np.isfinite(values).all():
        raise ds.DataError(f"{os.path.join(data_dir, seg.source)}: a hand-crafted feature "
                           "is not finite (values too large for float64)")
    return [seg.source, classes[seg.high_label], *map(repr, map(float, values))]


def cmd_features(args):
    _check_outputs(args, ("--out", args.out, "CSV"))
    segments, classes, schema = load_data_dir(args.data)
    q = len(schema.channel_columns)
    header = ["segment_id", "label", *feature_header([f"ch{i}" for i in range(q)])]
    rows = (_feature_row(seg, classes, args.data) for seg in segments)
    ds.atomic_write(args.out, (",".join(map(ds.csv_field, row)) + "\n"
                               for row in itertools.chain([header], rows)))
    print(f"wrote {len(segments)} feature rows ({5 * q} columns) to {args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="charm",
        description="Hierarchical high-level activity recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_key=None):
        p.add_argument("--quiet", action="store_true", help="suppress output")
        if seed_key:  # a command that reads a run config
            p.add_argument("--config", help="JSON run configuration (defaults used if omitted)")
            p.add_argument("--seed", type=int, help=f"override {seed_key}")

    p = sub.add_parser("gen-synth", help="generate the synthetic dataset")
    common(p, "synth.seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train with a held-out user (LOSO)")
    common(p, "train.seed")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--held-out-user", required=True, help="validation user id")
    p.add_argument("--model", choices=tuple(MODELS), default="charm")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None,
                   help="training history path (default: <out>.history.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the held-out user")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--held-out-user", required=True)
    p.add_argument("--out", default=None, help="machine-readable report path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="export 2-D PCA of low-level embeddings")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--track", default=synth.MOTIF_TRACK,
                   help="low-level label track name")
    p.add_argument("--grouping", default=None,
                   help='JSON object merging labels into groups, e.g. {"swing": "arm"}')
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("features", help="export hand-crafted per-channel features")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_features)
    return parser


def main(argv=None) -> int:
    """Runs one command and turns its refusal into an exit code and one
    stderr line; under --quiet the command's stdout is discarded."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        stdout = io.StringIO() if args.quiet else sys.stdout
        with contextlib.redirect_stdout(stdout):
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ds.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: gen-synth, train, evaluate, embed, features.

Exit codes: 0 ok, 1 I/O error or out of memory, 2 config error, 3 data
error, 4 checkpoint error, 130 interrupted. All randomness flows from one
run seed (--seed overrides the config).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
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
_SECTION_KEYS["sampling"] = {"stride"}

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
    _stride_for(cfg, 1)


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


def _synth_config(**section) -> synth.SynthConfig:
    if "motifs" in section:
        section["motifs"] = {
            name: synth.MotifSpec(
                name, tuple(synth.ChannelWave(*wave) for wave in spec["channels"]),
                tuple(spec["duration"]))
            for name, spec in section["motifs"].items()}
    if "grammars" in section:
        section["grammars"] = tuple(
            synth.ActivityGrammar(cls, body["probs"], body["target_len"])
            for cls, body in section["grammars"].items())
    if "users" in section:
        section["users"] = tuple(
            synth.UserProfile(u["id"], u["amp_scale"], u["noise_sigma"])
            for u in section["users"])
    return replace(synth.default_config(), **section)


def fixed_length_dataset(segments, n_target, stride):
    """The crops of every segment; a DataError, before any padding, when
    n_target is longer than every segment."""
    longest = max((len(seg.data) for seg in segments), default=0)
    if segments and n_target > longest:
        raise ds.DataError(f"crop length {n_target} is longer than every segment "
                           f"(the longest has {longest} samples)")
    return [sample for seg in segments
            for sample in ds.make_fixed_length_samples(seg, n_target, stride)]


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and the checked run config,
# and prints its summary; main() owns --config and --quiet.

def cmd_gen_synth(args, cfg):
    scfg = build_synth_config(cfg, seed_override=args.seed)
    segments = synth.gen_dataset(scfg)
    synth.write_dataset(segments, scfg, args.out)
    print(f"wrote {len(segments)} segments "
          f"({len(scfg.grammars)} classes x {len(scfg.users)} users x "
          f"{scfg.samples_per_class_per_user} samples) to {args.out}")
    return 0


def _stride_for(cfg, n_target):
    """The `sampling.stride` key, a positive int; n_target // 2 (at least 1)
    without it."""
    stride = cfg.get("sampling", {}).get("stride", max(n_target // 2, 1))
    _build("sampling", ds.check_value, name="stride", value=stride, kind=int,
           interval="[1, inf)")
    return stride


def cmd_train(args, cfg):
    tcfg = build_train_config(cfg, seed_override=args.seed)
    hist_path = args.history or args.out + ".history.json"
    for path in (args.out, hist_path):  # refused before the training, not after it
        ds.output_dir(path)
    segments, classes, schema = load_data_dir(args.data)
    q = len(schema.channel_columns)
    m = len(classes)
    mcfg = build_charm_config(cfg, q=q, m=m)
    if args.model == "mlp":
        mcfg = build_mlp_config(cfg, n_target=mcfg.n_target, q=q, m=m)
    n_target = mcfg.n_target
    samples = fixed_length_dataset(segments, n_target, _stride_for(cfg, n_target))
    train_set, val_set = ds.loso_split(samples, args.held_out_user)
    if not train_set:
        raise ds.DataError("held-out user leaves an empty training set")
    trained, history = train(train_set, args.model, tcfg, mcfg,
                             val_segments=val_set)
    save_checkpoint(trained.model, trained.stats, args.out)
    ds.atomic_write(hist_path, json.dumps(asdict(history), indent=2) + "\n")
    print(f"trained {args.model} on {len(train_set)} samples "
          f"(held-out user {args.held_out_user}, {tcfg.epochs} epochs)")
    print(f"final mean train loss {history.train_loss[-1]:.4f}, "
          f"val macro-F1 {history.val_macro_f1[-1]:.4f}")
    print(f"checkpoint: {args.out}")
    return 0


def _check_data_fits(model, classes, schema):
    """A DataError unless the data has the channel and class counts the
    checkpoint was trained on."""
    q, m = len(schema.channel_columns), len(classes)
    if q != model.cfg.q:
        raise ds.DataError(f"data has {q} channels, checkpoint expects {model.cfg.q}")
    if m != model.cfg.m:
        raise ds.DataError(f"data has {m} classes, checkpoint expects {model.cfg.m}")


def cmd_evaluate(args, cfg):
    model, stats = load_checkpoint(args.checkpoint)
    segments, classes, schema = load_data_dir(args.data, user=args.held_out_user)
    _check_data_fits(model, classes, schema)
    n_target = model.cfg.n_target
    val_set = fixed_length_dataset(segments, n_target, _stride_for(cfg, n_target))
    report = evaluate(TrainedModel(model, stats), val_set)
    print(format_report(report, classes))
    if args.out:
        ds.atomic_write(args.out, report_key_values(report, classes))
    return 0


def _read_grouping(path):
    groups = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}: expected 'label=group' lines, got {line!r}")
                label, group = line.split("=", 1)
                groups[label.strip()] = group.strip()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from e
    if not groups:
        raise ConfigError(f"{path}: empty grouping file")
    return groups


def cmd_embed(args, cfg):
    model, stats = load_checkpoint(args.checkpoint)
    if model.kind != "charm":
        raise CheckpointError("embedding extraction requires a charm checkpoint")
    if model.cfg.low_out < 2:
        raise CheckpointError("embedding extraction needs low_out >= 2 for a 2-D PCA, "
                              f"checkpoint has {model.cfg.low_out}")
    groups = _read_grouping(args.grouping) if args.grouping else {}
    segments, classes, schema = load_data_dir(args.data)
    _check_data_fits(model, classes, schema)
    n_windows, n_labels, score = emb.embed_segments(model, stats, segments, args.track,
                                                    schema.null_label_token, groups, args.out)
    print(f"{n_windows} label-pure windows, {n_labels} labels -> {args.out}")
    scored = f"{min(n_windows, emb.SILHOUETTE_SAMPLE)} of {n_windows} windows"
    print(f"silhouette: {score:.4f} ({scored})" if score is not None
          else f"silhouette: undefined ({scored}, all one label)")
    return 0


def _feature_row(seg, classes):
    """A segment's `features` CSV row; a DataError naming its source when a
    feature is not finite (values too large for float64)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        values = handcrafted_features(seg.data)
    if not np.isfinite(values).all():
        raise ds.DataError(f"{seg.source}: a hand-crafted feature is not finite "
                           "(values too large for float64)")
    return [seg.source, classes[seg.high_label], *map(repr, map(float, values))]


def cmd_features(args, cfg):
    segments, classes, schema = load_data_dir(args.data)
    q = len(schema.channel_columns)
    header = ["segment_id", "label", *feature_header([f"ch{i}" for i in range(q)])]
    rows = (_feature_row(seg, classes) for seg in segments)
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

    def common(p):
        p.add_argument("--config", default=None,
                       help="JSON run configuration (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress output")

    p = sub.add_parser("gen-synth", help="generate the synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train with a held-out user (LOSO)")
    common(p)
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
                   help="file of label=group lines to merge labels")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("features", help="export hand-crafted per-channel features")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_features)
    return parser


def main(argv=None) -> int:
    """Runs one command. The --config file is read and checked before any
    command starts, so a bad value fails every command that is given it,
    and under --quiet the command's stdout is discarded."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        stdout = io.StringIO() if args.quiet else sys.stdout
        with contextlib.redirect_stdout(stdout):
            return args.func(args, cfg)
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

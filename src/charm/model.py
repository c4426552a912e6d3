"""Two-stage hierarchical classifier ("charm"), the MLP baseline,
low-level embedding extraction, and checkpoint persistence."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from .dataset import atomic_write, check_fields
from .neurocore import (Stack, check_ce_inputs, flatten_params, make_rng, softmax,
                        softmax_ce_grad, view_arrays)
from .preprocess import ChannelStats

EMBED_CHUNK = 4096  # at most this many windows per low-encoder forward in embed_windows


class CheckpointError(Exception):
    pass


class _Config:
    """What both model configs share: every field checked, and a parameter
    count from `stack_dims`, the (layer widths, final activation) of each
    stack in parameter order."""

    def __post_init__(self):
        check_fields(self)

    @property
    def n_params(self) -> int:
        return sum((d_in + 1) * d_out for dims, _ in self.stack_dims
                   for d_in, d_out in zip(dims, dims[1:]))

    @property
    def n_layers(self) -> int:
        return sum(len(dims) - 1 for dims, _ in self.stack_dims)


@dataclass(frozen=True)
class CharmConfig(_Config):
    """Shapes and regularization of the two-stage model. n_target = r * z."""

    r: Annotated[int, "[1, inf)"] = 16        # low-level window length in samples
    q: Annotated[int, "[1, inf)"] = 18        # input channels
    low_hidden: Annotated[int, "[1, inf)"] = 32
    low_out: Annotated[int, "[1, inf)"] = 32  # per-window feature dimension
    z: Annotated[int, "[1, inf)"] = 160       # windows per input sequence
    high_hidden: Annotated[int, "[1, inf)"] = 32
    m: Annotated[int, "[1, inf)"] = 4         # class count
    dropout_p: Annotated[float, "[0, 1)"] = 0.05
    leaky_slope: Annotated[float, "[0, 1]"] = 0.01
    low_out_activation: bool = True

    @property
    def n_target(self) -> int:
        return self.r * self.z

    @property
    def stack_dims(self):
        """The low encoder over one window, then the high encoder over the
        concatenated window features."""
        return (([self.r * self.q, self.low_hidden, self.low_out], self.low_out_activation),
                ([self.z * self.low_out, self.high_hidden, self.m], False))


@dataclass(frozen=True)
class MlpConfig(_Config):
    """Flat baseline: 4 dense layers over the flattened normalized input."""

    n_target: Annotated[int, "[1, inf)"] = 2560
    q: Annotated[int, "[1, inf)"] = 18
    m: Annotated[int, "[1, inf)"] = 4
    hidden: Annotated[int, "[1, inf)"] = 16
    layers: Annotated[int, "[2, inf)"] = 4
    dropout_p: Annotated[float, "[0, 1)"] = 0.05
    leaky_slope: Annotated[float, "[0, 1]"] = 0.01

    @property
    def stack_dims(self):
        return (([self.n_target * self.q] + [self.hidden] * (self.layers - 1) + [self.m],
                 False),)

    n_layers = property(lambda self: self.layers)  # stack_dims' count, without listing it


class _Model:
    """The rules both models share: softmax and weighted cross-entropy on
    the logits of the subclass's `_logits` hook, which maps a float batch
    [B, n_target, q] and an rng, None for inference, to (logits [B, m],
    backward(d_logits, grads), features [B, ...] or None). `stacks` holds
    the model's Stacks in parameter order, and `params` is the one float64
    vector that every array of param_arrays() is a view of."""

    def __init__(self, cfg, stacks):
        self.cfg, self.stacks = cfg, tuple(stacks)
        self.params, self._spans = flatten_params(self.stacks)

    @classmethod
    def init(cls, cfg, rng):
        """A model of fresh Stack.init stacks, one per cfg.stack_dims entry,
        drawn in order from `rng`."""
        return cls(cfg, [Stack.init(dims, rng, slope=cfg.leaky_slope, dropout_p=cfg.dropout_p,
                                    final_activation=final) for dims, final in cfg.stack_dims])

    def param_arrays(self):
        return [p for stack in self.stacks for p in stack.param_arrays()]

    def forward(self, sample):
        """One sample [n_target, q], inference mode. Returns (class
        probabilities [m], features or None)."""
        logits, _, features = self._logits(np.asarray(sample, dtype=float)[None], None)
        return softmax(logits[0]), None if features is None else features[0]

    def predict(self, batch):
        """Class indices [B] of a normalized batch [B, n_target, q], inference
        mode; ties break to the lowest class index."""
        logits, _, _ = self._logits(np.asarray(batch, dtype=float), None)
        return np.argmax(softmax(logits), axis=-1)

    def loss_and_grads(self, batch, targets, class_weights, rng):
        """Training-mode forward + full reverse pass of the mean weighted
        cross-entropy over a batch [B, n_target, q] with integer targets
        [B]; one sample [n_target, q] with an int target is the batch of
        one. Returns (loss, gradient arrays aligned with param_arrays(),
        the flat gradient vector they view). Each call returns a new
        vector."""
        batch = np.asarray(batch, dtype=float)
        if batch.ndim == 2:
            batch, targets = batch[None], [targets]
        logits, backward, _ = self._logits(batch, rng)
        losses, d_logits = softmax_ce_grad(*check_ce_inputs(logits, targets, class_weights))
        grad = np.empty_like(self.params)
        grads = view_arrays(grad, self._spans)
        backward(d_logits, grads)
        return float(losses.sum()) / len(losses), grads, grad


class CharmModel(_Model):
    """Shared low-level encoder applied per window, high-level encoder over
    the concatenated window features."""

    kind = "charm"
    low = property(lambda self: self.stacks[0])
    high = property(lambda self: self.stacks[1])

    def _logits(self, batch, rng):
        """Low encoder on [B*z, r*q], high encoder on [B, z*low_out];
        features are the window features [B, z, low_out]."""
        n, z = batch.shape[0], self.cfg.z
        low_feats, low_cache = self.low.forward(batch.reshape(n * z, -1), rng)
        logits, high_cache = self.high.forward(low_feats.reshape(n, -1), rng)

        def backward(d_logits, grads):
            n_low = 2 * len(self.low.layers)
            d_concat = self.high.backward(high_cache, d_logits, grads[n_low:])
            self.low.backward(low_cache, d_concat.reshape(n * z, -1), grads[:n_low],
                              input_grad=False)

        return logits, backward, low_feats.reshape(n, z, -1)

    def embed_windows(self, windows):
        """Low-level encoder only, inference mode. windows: [k, r, q] -> [k, low_out],
        k = 0 included, encoded in ceil(k / EMBED_CHUNK) near-equal parts."""
        w = np.asarray(windows, dtype=float)
        flat = w.reshape(w.shape[0], self.cfg.r * self.cfg.q)
        out = np.empty((len(flat), self.cfg.low_out))
        # near-equal parts, so no part is a short tail that BLAS would round
        # differently from one forward over all windows
        n = max(1, -(-len(flat) // EMBED_CHUNK))
        for part, dst in zip(np.array_split(flat, n), np.array_split(out, n)):
            dst[...] = self.low.forward(part)[0]
        return out


class MlpModel(_Model):
    kind = "mlp"
    stack = property(lambda self: self.stacks[0])

    def _logits(self, batch, rng):
        logits, cache = self.stack.forward(batch.reshape(batch.shape[0], -1), rng)
        return (logits, lambda d, grads: self.stack.backward(cache, d, grads, input_grad=False),
                None)


MODELS = {"charm": (CharmConfig, CharmModel), "mlp": (MlpConfig, MlpModel)}


# ---------------------------------------------------------------------------
# Checkpoint format: magic line, one JSON header line (version, kind, config,
# channel stats, array shapes), then the model's flat parameter vector (the
# arrays of param_arrays() concatenated in order) as little-endian float64.

MAGIC = b"CHARM1\n"
CHECKPOINT_VERSION = 1


def save_checkpoint(model, stats: ChannelStats, path):
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "config": asdict(model.cfg),
        "channel_means": [float(v) for v in stats.means],
        "channel_stds": [float(v) for v in stats.stds],
        "shapes": [list(p.shape) for p in model.param_arrays()],
    }
    blob = model.params.astype("<f8", copy=False).tobytes()
    payload = MAGIC + (json.dumps(header, sort_keys=True) + "\n").encode("utf-8") + blob
    atomic_write(path, payload)


def load_checkpoint(path):
    """Returns (model, ChannelStats). Raises CheckpointError on any malformed,
    truncated, or shape-inconsistent file."""
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if not payload.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    rest = payload[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header")
    try:
        header = json.loads(rest[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('version')!r}")

    kind = header.get("kind")
    if not isinstance(kind, str) or kind not in MODELS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    cfg_cls, model_cls = MODELS[kind]
    try:
        cfg = cfg_cls(**header["config"])
        # sized from the config before the model is built, so no header makes
        # the model larger than the file, nor n_params list more layers than
        # the header's `shapes` (two arrays a layer) hold
        if len(header["shapes"]) != 2 * cfg.n_layers:
            raise CheckpointError(f"{path}: {len(header['shapes'])} array shapes for "
                                  f"{cfg.n_layers} layers")
        size, expected = len(rest) - nl - 1, cfg.n_params * 8
        if size != expected:
            raise CheckpointError(
                f"{path}: truncated or corrupt payload ({size} bytes, expected {expected})")
        model = model_cls.init(cfg, make_rng(0))
        stats = ChannelStats(np.array(header["channel_means"]),
                             np.array(header["channel_stds"]))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e

    shapes = [list(p.shape) for p in model.param_arrays()]
    if header.get("shapes") != shapes:
        raise CheckpointError(
            f"{path}: array shapes {header.get('shapes')} do not match config-derived {shapes}")
    model.params[...] = np.frombuffer(rest[nl + 1:], dtype="<f8")
    if stats.means.shape[0] != model.cfg.q:
        raise CheckpointError(f"{path}: channel stats do not match model input channels")
    if not np.isfinite(model.params).all():
        raise CheckpointError(f"{path}: non-finite parameter values")
    return model, stats

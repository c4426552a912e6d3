"""Two-stage hierarchical classifier ("charm"), the MLP baseline,
low-level embedding extraction, and checkpoint persistence."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Annotated

import numpy as np

from .dataset import atomic_write, check_fields
from .neurocore import Stack, make_rng, softmax, softmax_ce_grad, weighted_cross_entropy
from .preprocess import ChannelStats, window


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class CharmConfig:
    """Shapes and regularization of the two-stage model. n_target = r * z."""

    r: Annotated[int, "[1, inf)"] = 16        # low-level window length in samples
    q: Annotated[int, "[1, inf)"] = 18        # input channels
    low_hidden: Annotated[int, "[1, inf)"] = 32
    low_out: Annotated[int, "[1, inf)"] = 32  # per-window feature dimension
    z: Annotated[int, "[1, inf)"] = 160       # windows per input sequence
    high_hidden: Annotated[int, "[1, inf)"] = 32
    m: Annotated[int, "[1, inf)"] = 4         # class count
    dropout_p: Annotated[float, "[0, 1)"] = 0.05
    leaky_slope: float = 0.01
    low_out_activation: bool = True

    def __post_init__(self):
        check_fields(self)

    @property
    def n_target(self) -> int:
        return self.r * self.z


@dataclass(frozen=True)
class MlpConfig:
    """Flat baseline: 4 dense layers over the flattened normalized input."""

    n_target: Annotated[int, "[1, inf)"] = 2560
    q: Annotated[int, "[1, inf)"] = 18
    m: Annotated[int, "[1, inf)"] = 4
    hidden: Annotated[int, "[1, inf)"] = 16
    layers: Annotated[int, "[2, inf)"] = 4
    dropout_p: Annotated[float, "[0, 1)"] = 0.05
    leaky_slope: float = 0.01

    def __post_init__(self):
        check_fields(self)

    @property
    def input_dim(self) -> int:
        return self.n_target * self.q


class _Model:
    """The training rule both models share: softmax and weighted
    cross-entropy on the logits of the subclass's `_logits` hook, which
    returns (logits [1, m], backward(d_logits) -> grads, features or None)
    and checks the input shape."""

    def forward(self, sample, training: bool = False, rng=None):
        """Returns (class probabilities [m], features or None)."""
        logits, _, features = self._logits(sample, training, rng)
        return softmax(logits[0]), features

    def loss_and_grads(self, sample, target: int, class_weights, rng):
        """Training-mode forward + full reverse pass. Gradient order matches
        param_arrays()."""
        logits, backward, _ = self._logits(sample, True, rng)
        loss = weighted_cross_entropy(logits[0], target, class_weights)
        d_logits = softmax_ce_grad(logits[0], target, class_weights[target])
        return loss, backward(d_logits[None, :]), softmax(logits[0])


class CharmModel(_Model):
    """Shared low-level encoder applied per window, high-level encoder over
    the concatenated window features."""

    kind = "charm"

    def __init__(self, cfg: CharmConfig, low: Stack, high: Stack):
        self.cfg = cfg
        self.low = low
        self.high = high

    @classmethod
    def init(cls, cfg: CharmConfig, rng) -> "CharmModel":
        low = Stack.init([cfg.r * cfg.q, cfg.low_hidden, cfg.low_out], rng,
                         slope=cfg.leaky_slope, dropout_p=cfg.dropout_p,
                         final_activation=cfg.low_out_activation)
        high = Stack.init([cfg.z * cfg.low_out, cfg.high_hidden, cfg.m], rng,
                          slope=cfg.leaky_slope, dropout_p=cfg.dropout_p,
                          final_activation=False)
        return cls(cfg, low, high)

    def param_arrays(self):
        return self.low.param_arrays() + self.high.param_arrays()

    def _logits(self, sample, training, rng):
        """Features are the low-level window features [z, low_out]."""
        sample = np.asarray(sample, dtype=float)
        if sample.shape != (self.cfg.n_target, self.cfg.q):
            raise ValueError(
                f"expected input shape {(self.cfg.n_target, self.cfg.q)}, got {sample.shape}")
        flat = window(sample, self.cfg.r).reshape(self.cfg.z, -1)
        low_feats, low_cache = self.low.forward(flat, training, rng)
        logits, high_cache = self.high.forward(low_feats.reshape(1, -1), training, rng)

        def backward(d_logits):
            high_grads, d_concat = self.high.backward(high_cache, d_logits)
            low_grads, _ = self.low.backward(low_cache, d_concat.reshape(self.cfg.z, -1))
            return low_grads + high_grads

        return logits, backward, low_feats

    def embed_windows(self, windows):
        """Low-level encoder only, inference mode. windows: [k, r, q] -> [k, low_out]."""
        w = np.asarray(windows, dtype=float)
        if w.ndim != 3 or w.shape[1:] != (self.cfg.r, self.cfg.q):
            raise ValueError(
                f"expected [k, {self.cfg.r}, {self.cfg.q}] windows, got {w.shape}")
        out, _ = self.low.forward(w.reshape(w.shape[0], -1), training=False)
        return out


class MlpModel(_Model):
    kind = "mlp"

    def __init__(self, cfg: MlpConfig, stack: Stack):
        self.cfg = cfg
        self.stack = stack

    @classmethod
    def init(cls, cfg: MlpConfig, rng) -> "MlpModel":
        dims = [cfg.input_dim] + [cfg.hidden] * (cfg.layers - 1) + [cfg.m]
        stack = Stack.init(dims, rng, slope=cfg.leaky_slope,
                           dropout_p=cfg.dropout_p, final_activation=False)
        return cls(cfg, stack)

    def param_arrays(self):
        return self.stack.param_arrays()

    def _logits(self, sample, training, rng):
        sample = np.asarray(sample, dtype=float)
        if sample.size != self.cfg.input_dim:
            raise ValueError(
                f"expected {self.cfg.input_dim} input values, got {sample.size}")
        logits, cache = self.stack.forward(sample.reshape(1, -1), training, rng)
        return logits, lambda d_logits: self.stack.backward(cache, d_logits)[0], None


MODELS = {"charm": (CharmConfig, CharmModel), "mlp": (MlpConfig, MlpModel)}


# ---------------------------------------------------------------------------
# Checkpoint format: magic line, one JSON header line (version, kind, config,
# channel stats, array shapes), then the parameter arrays concatenated as
# little-endian float64 in param_arrays() order.

MAGIC = b"CHARM1\n"
CHECKPOINT_VERSION = 1


def save_checkpoint(model, stats: ChannelStats, path):
    params = model.param_arrays()
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "config": asdict(model.cfg),
        "channel_means": [float(v) for v in stats.means],
        "channel_stds": [float(v) for v in stats.stds],
        "shapes": [list(p.shape) for p in params],
    }
    blob = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in params)
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
        model = model_cls.init(cfg_cls(**header["config"]), make_rng(0))
        stats = ChannelStats(np.array(header["channel_means"]),
                             np.array(header["channel_stds"]))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed header: {e}") from e

    params = model.param_arrays()
    shapes = [list(p.shape) for p in params]
    if header.get("shapes") != shapes:
        raise CheckpointError(
            f"{path}: array shapes {header.get('shapes')} do not match config-derived {shapes}")
    blob = rest[nl + 1:]
    expected = sum(p.size for p in params) * 8
    if len(blob) != expected:
        raise CheckpointError(
            f"{path}: truncated or corrupt payload ({len(blob)} bytes, expected {expected})")
    offset = 0
    for p in params:
        nbytes = p.size * 8
        vals = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").reshape(p.shape)
        p[...] = vals
        offset += nbytes
    if stats.means.shape[0] != model.cfg.q:
        raise CheckpointError(f"{path}: channel stats do not match model input channels")
    return model, stats

"""Training loop (mini-batches of TRAIN_BATCH samples, Adam, mean weighted
cross-entropy) and the evaluation harness producing per-class
precision/recall/F1 reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .dataset import DataError, check_fields
from .model import MODELS
from .neurocore import Adam, NonFiniteError, make_rng
from .preprocess import ChannelStats, fit_and_normalize, normalize

EVAL_CHUNK = 256  # samples per batched forward in evaluate; bounds its memory
TRAIN_BATCH = 8   # samples per Adam step in train
# train refuses an epoch whose mean loss exceeds this many times the loss of
# its first batch, taken before any Adam step
DIVERGED_LOSS_RATIO = 100


@dataclass(frozen=True)
class TrainConfig:
    epochs: Annotated[int, "[1, inf)"] = 10
    lr: Annotated[float, "(0, inf)"] = 2e-3
    seed: Annotated[int, "[0, inf)"] = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)        # per-epoch mean
    val_macro_f1: list = field(default_factory=list)      # per-epoch, if val given


@dataclass
class TrainedModel:
    """Model plus the training-set normalization it must be used with."""

    model: object  # CharmModel | MlpModel
    stats: ChannelStats


def compute_class_weights(label_counts) -> np.ndarray:
    """w_i proportional to 1/count_i (every count > 0), rescaled so mean(w) = 1."""
    w = 1.0 / np.asarray(label_counts, dtype=float)
    return w / w.mean()


def train(train_segments, model_kind, train_cfg: TrainConfig, model_cfg,
          val_segments=None):
    """Fit the normalizer on the train split, then take one Adam step per
    shuffled batch of TRAIN_BATCH samples (the last batch of an epoch holds
    the rest); with val_segments, score them after every epoch as evaluate
    does. Returns (TrainedModel, TrainHistory); a run whose logits, loss or
    parameters turn non-finite, or whose epoch loss exceeds
    DIVERGED_LOSS_RATIO times its first batch's, is a DataError."""
    labels = np.array([seg.high_label for seg in train_segments])
    class_weights = compute_class_weights(np.bincount(labels, minlength=model_cfg.m))

    inputs = np.stack([seg.data for seg in train_segments])
    try:
        with np.errstate(all="ignore"):  # values near the float limit overflow the std
            stats = fit_and_normalize(inputs)
    except ValueError as e:
        raise DataError(f"training data cannot be normalized: {e}") from e
    if val_segments:
        val_chunks = list(_normalized_chunks(val_segments, stats))  # one stack for every epoch

    rng = make_rng(train_cfg.seed)
    model = MODELS[model_kind][1].init(model_cfg, rng)
    opt = Adam(model.params, lr=train_cfg.lr)
    history = TrainHistory()

    n = len(inputs)
    first_loss = None
    try:
        # a diverging run ends in the one DataError below, not numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, train_cfg.epochs + 1):
                order = rng.permutation(n)
                losses = []  # each batch's summed loss
                for start in range(0, n, TRAIN_BATCH):
                    idx = order[start:start + TRAIN_BATCH]
                    loss, _, grad = model.loss_and_grads(inputs[idx], labels[idx],
                                                         class_weights, rng)
                    if first_loss is None:
                        first_loss = loss
                    opt.step(model.params, grad)
                    losses.append(loss * len(idx))
                history.train_loss.append(float(np.sum(losses) / n))
                if not (np.isfinite(history.train_loss[-1]) and np.isfinite(model.params).all()):
                    raise NonFiniteError("non-finite loss or parameters")
                if history.train_loss[-1] > DIVERGED_LOSS_RATIO * first_loss:
                    raise _diverged(epoch, f"mean loss {history.train_loss[-1]:.4g} is over "
                                           f"{DIVERGED_LOSS_RATIO} times the first batch's "
                                           f"{first_loss:.4g}")
                if val_segments:
                    history.val_macro_f1.append(_score(model, val_chunks, val_segments).macro_f1)
    except NonFiniteError as e:
        raise _diverged(epoch, e) from e

    return TrainedModel(model, stats), history


def _diverged(epoch, reason) -> DataError:
    return DataError(f"training diverged in epoch {epoch}: {reason}; try a smaller train.lr")


def _normalized_chunks(segments, stats: ChannelStats):
    """The segments' data stacked EVAL_CHUNK at a time and normalized in place."""
    for i in range(0, len(segments), EVAL_CHUNK):
        x = np.stack([seg.data for seg in segments[i:i + EVAL_CHUNK]])
        yield normalize(x, stats, out=x)


@dataclass
class MetricsReport:
    confusion: np.ndarray          # [m, m], rows = truth, cols = prediction
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float


def confusion_matrix(truth, predictions, m: int) -> np.ndarray:
    cells = np.asarray(truth, dtype=np.intp) * m + np.asarray(predictions, dtype=np.intp)
    return np.bincount(cells, minlength=m * m).reshape(m, m)


def metrics_from_confusion(cm) -> MetricsReport:
    """Per-class P/R/F1 with the 0/0 -> 0 convention, macro averages, accuracy."""
    cm = np.asarray(cm)
    tp = np.diag(cm).astype(float)
    pred_tot = cm.sum(axis=0).astype(float)
    true_tot = cm.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(pred_tot > 0, tp / pred_tot, 0.0)
        recall = np.where(true_tot > 0, tp / true_tot, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    total = cm.sum()
    return MetricsReport(
        confusion=cm,
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        accuracy=float(tp.sum() / total) if total else 0.0,
    )


def _score(model, chunks, segments) -> MetricsReport:
    """Report of the model's predictions on `chunks`, consecutive normalized
    batches of `segments`, against their labels."""
    preds = np.concatenate([model.predict(chunk) for chunk in chunks])
    truth = [seg.high_label for seg in segments]
    return metrics_from_confusion(confusion_matrix(truth, preds, model.cfg.m))


def evaluate(trained: TrainedModel, val_segments) -> MetricsReport:
    """Normalizes the raw segments and predicts them EVAL_CHUNK at a time; a
    model whose outputs on them are not finite is a DataError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
            return _score(trained.model, _normalized_chunks(val_segments, trained.stats),
                          val_segments)
    except NonFiniteError as e:
        raise DataError(f"the model's outputs on this data are not finite: {e}") from e


def format_report(report: MetricsReport, class_names) -> str:
    """Per-class table plus macro row and accuracy."""
    lines = [f"{'class':<20} {'P':>7} {'R':>7} {'F1':>7} {'support':>8}"]
    support = report.confusion.sum(axis=1)
    for i, name in enumerate(class_names):
        lines.append(f"{name:<20} {report.precision[i]:7.4f} "
                     f"{report.recall[i]:7.4f} {report.f1[i]:7.4f} {support[i]:8d}")
    lines.append(f"{'macro':<20} {report.macro_precision:7.4f} "
                 f"{report.macro_recall:7.4f} {report.macro_f1:7.4f} "
                 f"{int(support.sum()):8d}")
    lines.append(f"accuracy: {report.accuracy:.4f}")
    lines.append("confusion (rows=truth, cols=prediction):")
    for row in report.confusion:
        lines.append("  " + " ".join(f"{v:6d}" for v in row))
    return "\n".join(lines)


def report_key_values(report: MetricsReport, class_names) -> str:
    """Machine-readable key=value serialization of a MetricsReport."""
    lines = []
    for i, name in enumerate(class_names):
        lines.append(f"precision.{name}={float(report.precision[i])!r}")
        lines.append(f"recall.{name}={float(report.recall[i])!r}")
        lines.append(f"f1.{name}={float(report.f1[i])!r}")
    lines.append(f"macro_precision={report.macro_precision!r}")
    lines.append(f"macro_recall={report.macro_recall!r}")
    lines.append(f"macro_f1={report.macro_f1!r}")
    lines.append(f"accuracy={report.accuracy!r}")
    for i in range(report.confusion.shape[0]):
        row = ",".join(str(v) for v in report.confusion[i])
        lines.append(f"confusion.{class_names[i]}={row}")
    return "\n".join(lines) + "\n"

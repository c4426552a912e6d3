"""Training loop (batch size 1, Adam, weighted cross-entropy) and the
evaluation harness producing per-class precision/recall/F1 reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .dataset import check_fields
from .model import MODELS
from .neurocore import Adam, make_rng
from .preprocess import ChannelStats, fit_normalizer, normalize


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: Annotated[int, "[1, inf)"] = 10
    lr: Annotated[float, "(0, inf)"] = 5e-4
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
    """w_i proportional to 1/count_i, rescaled so mean(w) = 1."""
    counts = np.asarray(label_counts, dtype=float)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError("label_counts must be a non-empty vector")
    zero = np.nonzero(counts <= 0)[0]
    if zero.size:
        raise TrainingError(f"class index {int(zero[0])} has no training samples")
    w = 1.0 / counts
    return w / w.mean()


def train(train_segments, model_kind, train_cfg: TrainConfig, model_cfg,
          val_segments=None):
    """Fit the normalizer on the train split, then run one Adam step per
    sample; with val_segments, evaluate on them after every epoch. Returns
    (TrainedModel, TrainHistory)."""
    if not train_segments:
        raise TrainingError("empty training set")
    labels = np.array([seg.high_label for seg in train_segments])
    counts = np.bincount(labels, minlength=model_cfg.m)
    if np.count_nonzero(counts) < 2:
        raise TrainingError("training set must contain at least 2 classes")
    class_weights = compute_class_weights(counts)

    stats = fit_normalizer([seg.data for seg in train_segments])
    inputs = [normalize(seg.data, stats) for seg in train_segments]

    rng = make_rng(train_cfg.seed)
    if model_kind not in MODELS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    model = MODELS[model_kind][1].init(model_cfg, rng)
    params = model.param_arrays()
    opt = Adam(params, lr=train_cfg.lr)
    history = TrainHistory()

    for _ in range(train_cfg.epochs):
        losses = []
        for idx in rng.permutation(len(inputs)):
            loss, grads, _ = model.loss_and_grads(
                inputs[idx], int(labels[idx]), class_weights, rng)
            opt.step(params, grads)
            losses.append(loss)
        history.train_loss.append(float(np.mean(losses)))
        if val_segments:
            history.val_macro_f1.append(
                evaluate(TrainedModel(model, stats), val_segments).macro_f1)

    return TrainedModel(model, stats), history


def predict(trained: TrainedModel, segment) -> int:
    """Class index for one raw (un-normalized) segment."""
    probs, _ = trained.model.forward(normalize(segment.data, trained.stats), training=False)
    return int(np.argmax(probs))  # ties break to the lowest class index


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
    cm = np.zeros((m, m), dtype=int)
    for t, p in zip(truth, predictions):
        cm[t, p] += 1
    return cm


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


def evaluate(trained: TrainedModel, val_segments) -> MetricsReport:
    if not val_segments:
        raise TrainingError("empty validation set")
    m = trained.model.cfg.m
    truth = [seg.high_label for seg in val_segments]
    preds = [predict(trained, seg) for seg in val_segments]
    return metrics_from_confusion(confusion_matrix(truth, preds, m))


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

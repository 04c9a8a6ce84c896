"""Confusion counts and the derived accuracy, F1, and balanced-accuracy metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with class 1 (non-misleading) as positive."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    ba: float
    accuracy: float
    f1: float
    n: int
    support_pos: int
    support_neg: int
    degenerate: tuple[str, ...] = ()


def confusion(preds, truth) -> ConfusionMatrix:
    """Count tp/tn/fp/fn over parallel 0/1 labels (lists or arrays, bools and 1.0 too)."""
    preds, truth = np.asarray(preds), np.asarray(truth)
    if preds.ndim != 1 or preds.shape != truth.shape or preds.size == 0:
        raise ValueError(f"preds and truth must be equal-length and non-empty, "
                         f"got shapes {preds.shape} vs {truth.shape}")
    for labels in (preds, truth):
        if labels.dtype.kind not in "biuf" or not np.all((labels == 0) | (labels == 1)):
            raise ValueError(f"labels must be 0 or 1, got {labels.dtype} values {labels!r}")
    # bin 2 * truth + pred: tn, fp, fn, tp
    tn, fp, fn, tp = np.bincount((2 * truth + preds).astype(np.int64), minlength=4).tolist()
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Mean of sensitivity and specificity; a zero-support class contributes rate 0."""
    tpr = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    tnr = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp > 0 else 0.0
    return 0.5 * (tpr + tnr)


def f1_and_accuracy(cm: ConfusionMatrix) -> tuple[float, float]:
    """Positive-class F1 (0 when its denominator vanishes) and plain accuracy."""
    denom = 2 * cm.tp + cm.fp + cm.fn
    f1 = 2 * cm.tp / denom if denom > 0 else 0.0
    accuracy = (cm.tp + cm.tn) / cm.n
    return f1, accuracy


def metrics_report(cm: ConfusionMatrix) -> MetricsReport:
    """Bundle all metrics, flagging degenerate denominators explicitly."""
    flags = []
    if cm.tp + cm.fn == 0:
        flags.append("no_positive_support")
    if cm.tn + cm.fp == 0:
        flags.append("no_negative_support")
    if 2 * cm.tp + cm.fp + cm.fn == 0:
        flags.append("f1_undefined")
    f1, accuracy = f1_and_accuracy(cm)
    return MetricsReport(
        ba=balanced_accuracy(cm),
        accuracy=accuracy,
        f1=f1,
        n=cm.n,
        support_pos=cm.tp + cm.fn,
        support_neg=cm.tn + cm.fp,
        degenerate=tuple(flags),
    )

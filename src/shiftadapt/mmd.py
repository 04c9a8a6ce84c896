"""Gaussian-kernel contrastive discrepancy and its exact gradient.

The class-pair discrepancy D{c1}{c2} is a biased V-statistic (self-pairs
included in the double sums) whose three sums, source-source,
target-target and source-target, are restricted to an indicator-selected
class pair and normalized by the indicator count. The contrastive loss
combines the intra-class terms positively and the inter-class terms with
weight -1/2. Both the value and the gradient are weighted sums over the
three kernel blocks, with one set of class-pair weights.
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


class ContrastiveResult(NamedTuple):
    value: float
    skipped: tuple[str, ...]


class ContrastiveGradients(NamedTuple):
    grad_source: np.ndarray  # (n, d)
    grad_target: np.ndarray  # (m, d)
    skipped: tuple[str, ...]


def _block_rows(width: int) -> int:
    """Rows per block, so that a block's (rows, width) difference holds at
    most _BLOCK_ENTRIES floats (always at least one row)."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances, a block of rows of a at a time through one scratch
    difference. Each entry is the einsum of one difference row, so the split
    into blocks moves no bit."""
    out = np.empty((a.shape[0], b.shape[0]))
    rows = min(_block_rows(b.size), a.shape[0])
    scratch = np.empty((rows, *b.shape))
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        diff = scratch[: block.shape[0]]
        np.subtract(block[:, None, :], b[None, :, :], out=diff)
        out[start : start + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-_sq_dists(a, b) / gamma)


def median_bandwidth(batch_a: EmbeddingBatch, batch_b: EmbeddingBatch) -> float:
    """Median pairwise squared distance over the union, self-pairs excluded.

    Falls back to 1.0 when the median vanishes (e.g. all vectors identical).
    """
    stacked = np.vstack([batch_a.vectors, batch_b.vectors])
    n = stacked.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least two vectors in total")
    # The strict upper triangle in row-major order, one block of rows at a
    # time: rows start..stop against the columns after start.
    upper = np.empty(n * (n - 1) // 2)
    filled = start = 0
    while start < n - 1:
        cols = stacked[start + 1 :]
        stop = min(n - 1, start + _block_rows(cols.size))
        d2 = _sq_dists(stacked[start:stop], cols)
        # Local row i keeps columns i and after: global column > global row.
        kept = d2[np.arange(cols.shape[0]) >= np.arange(stop - start)[:, None]]
        upper[filled : filled + kept.size] = kept
        filled += kept.size
        start = stop
    med = float(np.median(upper, overwrite_input=True))
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


def contrastive_loss(
    source: EmbeddingBatch, target: EmbeddingBatch, gamma: float
) -> ContrastiveResult:
    """D00 + D11 - (D01 + D10)/2, as the sum of W∘K over the three blocks.

    Intra-class terms pull same-class examples together across domains; the
    negated inter-class terms push different classes apart. With no skipped
    terms the value factors as ||a||^2 + ||b||^2 - <a, b> over the per-class
    mean-embedding gaps a, b, so it is non-negative and minimized at 0 when
    both classes align across domains. Skipped terms add 0.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    s, t = source.vectors, target.vectors
    w_ss, w_tt, w_st, skipped = _class_pair_weights(source.labels, target.labels)
    value = (
        (w_ss * _kernel_matrix(s, s, gamma)).sum()
        + (w_tt * _kernel_matrix(t, t, gamma)).sum()
        + (w_st * _kernel_matrix(s, t, gamma)).sum()
    )
    return ContrastiveResult(float(value), skipped)


def contrastive_grad(
    source: EmbeddingBatch, target: EmbeddingBatch, gamma: float
) -> ContrastiveGradients:
    """Exact gradient of contrastive_loss w.r.t. every embedding vector.

    Uses dk(x, y)/dx = -(2/gamma) (x - y) k(x, y) on the same class-pair
    weights as contrastive_loss, so `skipped` is the same tuple.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    s, t = source.vectors, target.vectors
    w_ss, w_tt, w_st, skipped = _class_pair_weights(source.labels, target.labels)

    k_ss = _kernel_matrix(s, s, gamma)
    k_tt = _kernel_matrix(t, t, gamma)
    k_st = _kernel_matrix(s, t, gamma)
    scale = -2.0 / gamma

    # Within-domain part: for symmetric weight sums, grad_i = sum_j c_ij (x_i - x_j).
    c_ss = scale * (w_ss + w_ss.T) * k_ss
    grad_s = c_ss.sum(axis=1, keepdims=True) * s - c_ss @ s
    c_tt = scale * (w_tt + w_tt.T) * k_tt
    grad_t = c_tt.sum(axis=1, keepdims=True) * t - c_tt @ t

    # Cross-domain part; w_st already carries the -2 coefficient.
    c_st = scale * w_st * k_st
    grad_s += c_st.sum(axis=1, keepdims=True) * s - c_st @ t
    grad_t += c_st.sum(axis=0)[:, None] * t - c_st.T @ s

    return ContrastiveGradients(grad_s, grad_t, skipped)

"""Gaussian-kernel discrepancy machinery.

Squared MMD is the biased V-statistic (self-pairs included in the double
sums). The class-aware variant restricts each of the three sums to an
indicator-selected class pair and normalizes by the indicator count; the
contrastive loss combines intra-class terms positively and inter-class terms
with weight -1/2. Gradients with respect to every embedding are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError

# (c1, c2, coefficient) triples defining the contrastive combination.
_CONTRASTIVE_TERMS = ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -0.5), (1, 0, -0.5))


@dataclass(frozen=True)
class KernelConfig:
    bandwidth_mode: str = "median_heuristic"  # or "fixed"
    gamma: Optional[float] = None  # required for "fixed"

    def __post_init__(self):
        if self.bandwidth_mode not in ("fixed", "median_heuristic"):
            raise ConfigError(f"unknown bandwidth_mode {self.bandwidth_mode!r}")
        if self.bandwidth_mode == "fixed" and (self.gamma is None or self.gamma <= 0):
            raise ConfigError("fixed bandwidth_mode requires gamma > 0")


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
    value: Optional[float]  # None when every term's denominator is zero
    skipped: tuple[str, ...]


class ContrastiveGradients(NamedTuple):
    grad_source: np.ndarray  # (n, d)
    grad_target: np.ndarray  # (m, d)
    skipped: tuple[str, ...]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def gaussian_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """exp(-||x - y||^2 / gamma); 1 exactly when x == y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    d = x - y
    return float(np.exp(-(d @ d) / gamma))


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
    d2 = _sq_dists(stacked, stacked)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(d2[iu]))
    return med if med >= 1e-12 else 1.0


def mmd_sq(a: Sequence[np.ndarray], b: Sequence[np.ndarray], gamma: float) -> float:
    """Biased squared-MMD estimate: mean k(A,A) + mean k(B,B) - 2 mean k(A,B).

    Mathematically non-negative; rounding may yield values down to -1e-12,
    which callers clamp to 0 when reporting magnitudes.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("mmd_sq requires non-empty vector lists")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return float(
        _kernel_matrix(a, a, gamma).mean()
        + _kernel_matrix(b, b, gamma).mean()
        - 2.0 * _kernel_matrix(a, b, gamma).mean()
    )


def _indicator_mean(x, x_labels, y, y_labels, c1, c2, gamma):
    """Indicator-normalized kernel mean over one batch pair, or None if no pairs."""
    mx = x_labels == c1
    my = y_labels == c2
    count = int(mx.sum()) * int(my.sum())
    if count == 0:
        return None
    return float(_kernel_matrix(x[mx], y[my], gamma).sum() / count)


def class_mmd(
    source: EmbeddingBatch, target: EmbeddingBatch, c1: int, c2: int, gamma: float
) -> ContrastiveResult:
    """Class-pair discrepancy: term(S,S) + term(T,T) - 2 term(S,T).

    A term whose indicator count is zero is dropped and reported in `skipped`;
    value is None when all three are dropped.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    terms = (
        ("ss", source, source, 1.0),
        ("tt", target, target, 1.0),
        ("st", source, target, -2.0),
    )
    total = 0.0
    any_defined = False
    skipped = []
    for part, x, y, coef in terms:
        mean = _indicator_mean(x.vectors, x.labels, y.vectors, y.labels, c1, c2, gamma)
        if mean is None:
            skipped.append(part)
        else:
            total += coef * mean
            any_defined = True
    return ContrastiveResult(total if any_defined else None, tuple(skipped))


def contrastive_loss(
    source: EmbeddingBatch, target: EmbeddingBatch, gamma: float
) -> ContrastiveResult:
    """D00 + D11 - (D01 + D10)/2 composed from class_mmd calls.

    Intra-class terms pull same-class examples together across domains; the
    negated inter-class terms push different classes apart. With no skipped
    terms the value factors as ||a||^2 + ||b||^2 - <a, b> over the per-class
    mean-embedding gaps a, b, so it is non-negative and minimized at 0 when
    both classes align across domains.
    """
    total = 0.0
    any_defined = False
    skipped = []
    for c1, c2, coef in _CONTRASTIVE_TERMS:
        result = class_mmd(source, target, c1, c2, gamma)
        skipped.extend(f"d{c1}{c2}:{part}" for part in result.skipped)
        if result.value is not None:
            total += coef * result.value
            any_defined = True
    return ContrastiveResult(total if any_defined else None, tuple(skipped))


def contrastive_grad(
    source: EmbeddingBatch, target: EmbeddingBatch, gamma: float
) -> ContrastiveGradients:
    """Exact gradient of contrastive_loss w.r.t. every embedding vector.

    Uses dk(x, y)/dx = -(2/gamma) (x - y) k(x, y). Skipped terms match
    contrastive_loss exactly (same members, same order), so the gradient is
    consistent with the reported loss value.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    s, t = source.vectors, target.vectors
    sl, tl = source.labels, target.labels
    w_ss = np.zeros((sl.size, sl.size))
    w_tt = np.zeros((tl.size, tl.size))
    w_st = np.zeros((sl.size, tl.size))
    skipped = []
    for c1, c2, coef in _CONTRASTIVE_TERMS:
        for part, xl, yl, w, part_coef in (
            ("ss", sl, sl, w_ss, 1.0),
            ("tt", tl, tl, w_tt, 1.0),
            ("st", sl, tl, w_st, -2.0),
        ):
            mx = xl == c1
            my = yl == c2
            count = int(mx.sum()) * int(my.sum())
            if count == 0:
                skipped.append(f"d{c1}{c2}:{part}")
            else:
                w[np.ix_(mx, my)] += part_coef * coef / count
    skipped = tuple(skipped)

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

"""Pseudo labeling with learnable label-shift correction.

The correction rescales model logits elementwise (w * logits + b) before the
softmax, is fitted by minimizing NLL on a small labeled calibration set from
the target domain, and falls back to the bias-free form when fitting produces
oversized biases.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import check
from .data import SparseVec
from .errors import ConfigError, DatasetError
from .model import Model, compact, forward, softmax


@dataclass
class CorrectionParams:
    w: np.ndarray  # (2,)
    b: np.ndarray  # (2,), identically zero when bias_discarded
    bias_discarded: bool = False
    fit_nll_history: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        for key in ("w", "b"):
            value = np.asarray(getattr(self, key))
            if value.shape != (2,) or value.dtype.kind not in "iuf" or not np.isfinite(value).all():
                raise ConfigError(f"correction {key!r} must be two finite numbers, "
                                  f"got {reprlib.repr(value.tolist())}")
        if self.bias_discarded and np.any(np.asarray(self.b) != 0):
            raise ConfigError(
                f"correction has bias_discarded true but a nonzero b {np.asarray(self.b).tolist()}"
            )

    @classmethod
    def identity(cls) -> "CorrectionParams":
        return cls(w=np.ones(2), b=np.zeros(2))

    def to_dict(self) -> dict:
        return {
            "w": [float(v) for v in self.w],
            "b": [float(v) for v in self.b],
            "bias_discarded": self.bias_discarded,
        }

    @classmethod
    def from_dict(cls, obj) -> "CorrectionParams":
        """Parse a correction file; ConfigError unless w and b each hold two finite numbers."""
        if not isinstance(obj, dict):
            raise ConfigError("a correction must be a JSON object with keys 'w' and 'b'")
        pairs = {}
        for key in ("w", "b"):
            value = obj.get(key)
            try:
                pair = check(list[float], value, key)
            except ConfigError:
                pair = []
            if len(pair) != 2:
                raise ConfigError(f"correction {key!r} must be two finite numbers, "
                                  f"got {reprlib.repr(value)}")
            pairs[key] = np.asarray(pair, dtype=np.float64)
        discarded = obj.get("bias_discarded", False)
        if not isinstance(discarded, bool):
            raise ConfigError(f"correction 'bias_discarded' must be a boolean, "
                              f"got {reprlib.repr(discarded)}")
        return cls(w=pairs["w"], b=pairs["b"], bias_discarded=discarded)


FIT_MAX_ITERS = 500
FIT_TOL = 1e-8  # stop when the NLL improvement falls below this
B_MAX = 10.0  # discard the bias when any |b_j| exceeds this


def apply_correction(cp: CorrectionParams, logits: np.ndarray) -> np.ndarray:
    """softmax(w * logits + b) over the last axis of (..., 2) logits; a
    discarded bias is stored as b = 0."""
    logits = np.asarray(logits, dtype=np.float64)
    return softmax(cp.w * logits + cp.b)


def _nll_pass(l0, l1, is1, w0, w1, b0, b1):
    """The mean NLL of the corrected logit columns l0 * w0 + b0 and
    l1 * w1 + b1 (labels: is1), and (e0, e1, s): the exps of the max-shifted
    columns and their sum. The same bits as the (n, 2) log-softmax and gather."""
    u0 = l0 * w0 + b0
    u1 = l1 * w1 + b1
    top = np.maximum(u0, u1)
    u0 -= top
    u1 -= top
    e0, e1 = np.exp(u0), np.exp(u1)
    s = e0 + e1
    logp = np.where(is1, u1, u0) - np.log(s)
    return float(-(np.add.reduce(logp) / len(logp))), (e0, e1, s)


def _descend(logits, labels, fit_bias: bool):
    """Full-batch gradient descent with Armijo backtracking from the identity.

    An accepted trial's pass also gives the gradient there: softmax = e / s.
    Huge logits overflow the gradient norm or a trial NLL to inf or NaN; such
    a trial fails the Armijo comparison, so those numpy warnings are silenced.
    """
    n = len(labels)
    cols = (np.ascontiguousarray(logits[:, 0]), np.ascontiguousarray(logits[:, 1]), labels == 1)
    one_hot = np.eye(2)[labels]
    # Python floats: the same IEEE operations as 2-element arrays, without their overhead.
    w0, w1, b0, b1 = 1.0, 1.0, 0.0, 0.0
    nll, (e0, e1, s) = _nll_pass(*cols, w0, w1, b0, b1)
    history = [nll]
    step = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(FIT_MAX_ITERS):
            # p takes the logits' layout, which sets the order of the axis-0 sums.
            p = np.empty_like(logits)
            np.divide(e0, s, out=p[:, 0])
            np.divide(e1, s, out=p[:, 1])
            p -= one_hot
            p /= n
            gw, gb = (p * logits).sum(axis=0), p.sum(axis=0) if fit_bias else np.zeros(2)
            gnorm2 = float(gw @ gw + gb @ gb)
            if gnorm2 < 1e-24:
                break
            (gw0, gw1), (gb0, gb1) = gw.tolist(), gb.tolist()
            t = step
            while t > 1e-20:
                trial = (w0 - t * gw0, w1 - t * gw1, b0 - t * gb0, b1 - t * gb1)
                nll_new, (e0, e1, s) = _nll_pass(*cols, *trial)
                if nll_new <= nll - 1e-4 * t * gnorm2:
                    break
                t *= 0.5
            else:  # no step length passed the Armijo test
                break
            improvement = nll - nll_new
            (w0, w1, b0, b1), nll = trial, nll_new
            history.append(nll)
            step = t * 2.0
            if improvement < FIT_TOL:
                break
    return np.array([w0, w1]), np.array([b0, b1]), history


def _logit_matrix(logits) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise ValueError(f"logits must be an (n, 2) matrix, got shape {logits.shape}")
    return logits


def fit_correction(logits: np.ndarray, labels: Sequence[int]) -> CorrectionParams:
    """Fit (w, b) on the frozen model's (n, 2) logits for a labeled target calibration set.

    Initialization is the identity correction, so the fitted NLL never exceeds
    the uncorrected NLL. The bias is refitted at zero (bias_discarded) when
    fitting pushes any |b_j| past B_MAX; if the fit regresses past the
    identity, the identity correction is returned with a warning.
    """
    logits = _logit_matrix(logits)
    if len(logits) == 0:
        raise DatasetError("calibration set must be non-empty")
    labels = np.asarray(labels)
    if labels.shape != (len(logits),) or not np.all((labels == 0) | (labels == 1)):
        raise DatasetError("calibration set must be fully labeled, one 0/1 label per logits row")
    labels = labels.astype(np.int64)

    warnings = []
    if len(set(labels.tolist())) == 1:
        warnings.append(f"calibration set contains a single class ({int(labels[0])})")

    w, b, history = _descend(logits, labels, fit_bias=True)
    bias_discarded = False
    if np.max(np.abs(b)) > B_MAX:
        w, b, history = _descend(logits, labels, fit_bias=False)
        bias_discarded = True
        b = np.zeros(2)

    # Both descents start at the identity, whose NLL is history[0]; backtracking
    # makes regression impossible, and this guard keeps a violation from passing unnoticed.
    if history[-1] > history[0]:
        warnings.append("fit regressed past the identity correction; returning identity")
        return CorrectionParams(
            w=np.ones(2), b=np.zeros(2), fit_nll_history=history[:1], warnings=warnings
        )
    return CorrectionParams(
        w=w, b=b, bias_discarded=bias_discarded,
        fit_nll_history=history, warnings=warnings,
    )


def pseudo_label(
    cp: CorrectionParams, logits: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) logits rows whose corrected confidence is >= tau, in
    ascending order, and their corrected-argmax labels: two int64 arrays.

    argmax takes the first maximum, so ties go to class 0. An empty result is
    a valid status the adaptation stage must handle.
    """
    if not 0.5 < tau < 1.0:
        raise ConfigError(f"tau must lie in (0.5, 1), got {tau}")
    probs = apply_correction(cp, _logit_matrix(logits))
    kept = np.flatnonzero(probs.max(axis=1) >= tau)
    return kept, np.argmax(probs[kept], axis=1)


def predict_labels(
    model: Model,
    feats: Sequence[SparseVec],
    cp: Optional[CorrectionParams] = None,
) -> list[int]:
    """Hard predictions, optionally through the corrected softmax; ties go to class 0."""
    params, (feats,) = compact(model, feats)
    logits = forward(params, feats).logits
    probs = apply_correction(cp, logits) if cp is not None else softmax(logits)
    return np.argmax(probs, axis=1).tolist()

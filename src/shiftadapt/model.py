"""Hashed-feature embedding + tanh MLP classifier with exact manual gradients.

The representation fed to the discrepancy losses is the post-activation
hidden vector phi; the classifier head maps phi to two logits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, SparseVec, featurize_dataset
from .errors import ConfigError, DatasetError
from .metrics import balanced_accuracy, confusion

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 1

# Fixed block order; gradient accumulation, optimizer updates and
# finite-difference sweeps all iterate in this order.
PARAM_BLOCKS = ("embed", "hidden_w", "hidden_b", "out_w", "out_b")


@dataclass
class OptimizerConfig:
    name: str = "adam"  # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.name not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.name!r}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("adam eps must be positive")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 24
    max_epochs: int = 5
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")


@dataclass
class ModelParams:
    embed: np.ndarray  # (hash_dim, d_embed)
    hidden_w: np.ndarray  # (d_embed, d_hidden)
    hidden_b: np.ndarray  # (d_hidden,)
    out_w: np.ndarray  # (d_hidden, 2)
    out_b: np.ndarray  # (2,)

    @property
    def hash_dim(self) -> int:
        return self.embed.shape[0]

    @property
    def d_embed(self) -> int:
        return self.embed.shape[1]

    @property
    def d_hidden(self) -> int:
        return self.hidden_w.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, b).copy() for b in PARAM_BLOCKS))

    def blocks(self):
        return tuple(getattr(self, b) for b in PARAM_BLOCKS)

    def allclose(self, other: "ModelParams") -> bool:
        return all(
            np.array_equal(a, b) for a, b in zip(self.blocks(), other.blocks())
        )

    @classmethod
    def zeros_like(cls, params: "ModelParams") -> "ModelParams":
        """Zero blocks shaped like params: a gradient or an optimizer moment."""
        return cls(*(np.zeros_like(b) for b in params.blocks()))


@dataclass(frozen=True)
class ForwardRecord:
    """Cached forward pass: enough state for exact backpropagation."""

    x: SparseVec
    embedded: np.ndarray  # (d_embed,)
    pre_hidden: np.ndarray  # (d_hidden,) pre-activation
    phi: np.ndarray  # (d_hidden,) tanh(pre_hidden)
    logits: np.ndarray  # (2,)


def init(hash_dim: int, d_embed: int, d_hidden: int, seed: int) -> ModelParams:
    """Initialize weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero."""
    if min(hash_dim, d_embed, d_hidden) <= 0:
        raise ConfigError("all model dimensions must be positive")
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return ModelParams(
        embed=uniform((hash_dim, d_embed), hash_dim),
        hidden_w=uniform((d_embed, d_hidden), d_embed),
        hidden_b=np.zeros(d_hidden),
        out_w=uniform((d_hidden, 2), d_hidden),
        out_b=np.zeros(2),
    )


def forward(params: ModelParams, x: SparseVec) -> ForwardRecord:
    """Forward pass phi = tanh(x @ embed @ hidden_w + hidden_b), logits = phi @ out_w + out_b."""
    if x.dim != params.hash_dim:
        raise ValueError(f"input dim {x.dim} != model hash_dim {params.hash_dim}")
    embedded = x.values @ params.embed[x.indices]
    pre_hidden = embedded @ params.hidden_w + params.hidden_b
    phi = np.tanh(pre_hidden)
    logits = phi @ params.out_w + params.out_b
    return ForwardRecord(x=x, embedded=embedded, pre_hidden=pre_hidden, phi=phi, logits=logits)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 2-vector."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,) or not np.all(np.isfinite(logits)):
        raise ValueError(f"logits must be a finite 2-vector, got {logits!r}")
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def nll_loss(probs: np.ndarray, label: int) -> float:
    """Negative log likelihood of the labeled class, probability floored at 1e-12."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    return float(-np.log(max(float(probs[label]), PROB_FLOOR)))


def backward(
    params: ModelParams,
    records: Sequence[ForwardRecord],
    grad_logits: Sequence[np.ndarray],
    grad_phi: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> ModelParams:
    """Exact batch gradients given upstream gradients at the logits and at phi.

    grad_phi entries may be None (treated as zero); accumulation runs in
    record order so results are bit-reproducible.
    """
    if len(records) != len(grad_logits):
        raise ValueError("records and grad_logits must have equal length")
    if grad_phi is not None and len(grad_phi) != len(records):
        raise ValueError("grad_phi must match records in length")
    g = ModelParams.zeros_like(params)
    for i, rec in enumerate(records):
        gl = np.asarray(grad_logits[i], dtype=np.float64)
        if gl.shape != (2,):
            raise ValueError(f"grad_logits[{i}] must be a 2-vector")
        g.out_w += np.outer(rec.phi, gl)
        g.out_b += gl
        gphi = params.out_w @ gl
        if grad_phi is not None and grad_phi[i] is not None:
            gp = np.asarray(grad_phi[i], dtype=np.float64)
            if gp.shape != rec.phi.shape:
                raise ValueError(f"grad_phi[{i}] has shape {gp.shape}, want {rec.phi.shape}")
            gphi = gphi + gp
        gh = gphi * (1.0 - rec.phi ** 2)
        g.hidden_w += np.outer(rec.embedded, gh)
        g.hidden_b += gh
        ge = params.hidden_w @ gh
        if rec.x.nnz:
            g.embed[rec.x.indices] += np.outer(rec.x.values, ge)
    return g


class Optimizer:
    """SGD or Adam over the fixed parameter blocks; updates are in-place."""

    def __init__(self, cfg: OptimizerConfig, learning_rate: float, params: ModelParams):
        self.cfg = cfg
        self.lr = learning_rate
        self.t = 0
        if cfg.name == "adam":
            self.m = ModelParams.zeros_like(params)
            self.v = ModelParams.zeros_like(params)

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        self.t += 1
        if self.cfg.name == "sgd":
            for p, g in zip(params.blocks(), grads.blocks()):
                p -= self.lr * g
            return
        b1, b2, eps = self.cfg.beta1, self.cfg.beta2, self.cfg.eps
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params.blocks(), grads.blocks(), self.m.blocks(), self.v.blocks()):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def predict(params: ModelParams, feats: Sequence[SparseVec]) -> list[int]:
    """Argmax class per featurized example; ties resolve to class 0."""
    return [int(np.argmax(softmax(forward(params, f).logits))) for f in feats]


def _batch_nll_gradients(params, feats, labels, batch_idx):
    records, grads = [], []
    inv = 1.0 / len(batch_idx)
    for i in batch_idx:
        rec = forward(params, feats[i])
        probs = softmax(rec.logits)
        g = probs.copy()
        g[labels[i]] -= 1.0
        records.append(rec)
        grads.append(g * inv)
    return records, grads


def pretrain(params: ModelParams, train: Dataset, val: Dataset, cfg: TrainConfig) -> ModelParams:
    """Mini-batch NLL training; returns the snapshot with best validation BA.

    The initial parameters count as the epoch-0 snapshot, so the result never
    validates worse than the input. Deterministic for a fixed seed.
    """
    if len(train) == 0:
        raise ConfigError("pretrain requires a non-empty training set")
    if not train.is_fully_labeled() or not val.is_fully_labeled():
        raise DatasetError("pretrain requires fully labeled train and val datasets")
    train_feats = featurize_dataset(train, params.hash_dim)
    val_feats = featurize_dataset(val, params.hash_dim)
    train_labels = [ex.label for ex in train.examples]
    val_labels = [ex.label for ex in val.examples]

    def val_ba(p):
        if not val_feats:
            return 0.0
        return balanced_accuracy(confusion(predict(p, val_feats), val_labels))

    best = params.copy()
    best_ba = val_ba(params)
    work = params.copy()
    opt = Optimizer(cfg.optimizer, cfg.learning_rate, work)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_feats)
    for _ in range(cfg.max_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            records, grads = _batch_nll_gradients(work, train_feats, train_labels, batch)
            opt.step(work, backward(work, records, grads))
        ba = val_ba(work)
        if ba > best_ba:
            best_ba = ba
            best = work.copy()
    return best


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a versioned npz checkpoint; float64 arrays round-trip bit-exactly."""
    meta = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "hash_dim": params.hash_dim,
            "d_embed": params.d_embed,
            "d_hidden": params.d_hidden,
        },
        sort_keys=True,
    )
    np.savez(
        path,
        meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
        **{b: getattr(params, b) for b in PARAM_BLOCKS},
    )


def load_checkpoint(path) -> ModelParams:
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')!r}")
        params = ModelParams(*(npz[b] for b in PARAM_BLOCKS))
    expected = (meta["hash_dim"], meta["d_embed"], meta["d_hidden"])
    actual = (params.hash_dim, params.d_embed, params.d_hidden)
    if expected != actual:
        raise ConfigError(f"checkpoint shape header {expected} does not match arrays {actual}")
    return params

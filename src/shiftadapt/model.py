"""Hashed-feature embedding + tanh MLP classifier with exact manual gradients.

The representation fed to the discrepancy losses is the post-activation
hidden vector phi; the classifier head maps phi to two logits.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
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

# Adam's constants (Kingma and Ba), fixed for every stage.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 24
    max_epochs: int = 5
    seed: int = 0

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

    @classmethod
    def zeros_like(cls, params: "ModelParams") -> "ModelParams":
        """Zero blocks shaped like params: a gradient or an optimizer moment."""
        return cls(*(np.zeros_like(b) for b in params.blocks()))


@dataclass(frozen=True)
class ForwardRecord:
    """Cached forward pass of a batch of n examples: enough state for exact
    backpropagation. Row i of each array belongs to feats[i]."""

    feats: tuple[SparseVec, ...]
    embedded: np.ndarray  # (n, d_embed)
    phi: np.ndarray  # (n, d_hidden), tanh of the hidden pre-activation
    logits: np.ndarray  # (n, 2)


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


def forward(params: ModelParams, feats: Sequence[SparseVec]) -> ForwardRecord:
    """Forward pass of a batch: phi = tanh(X @ embed @ hidden_w + hidden_b) and
    logits = phi @ out_w + out_b, with row i of X the sparse vector feats[i]."""
    feats = tuple(feats)
    embedded = np.empty((len(feats), params.d_embed))
    # Row by row, so no (nnz, d_embed) gather of the whole batch is ever held.
    for row, x in zip(embedded, feats):
        if x.dim != params.hash_dim:
            raise ValueError(f"input dim {x.dim} != model hash_dim {params.hash_dim}")
        row[:] = x.values @ params.embed[x.indices]
    phi = np.tanh(embedded @ params.hidden_w + params.hidden_b)
    logits = phi @ params.out_w + params.out_b
    return ForwardRecord(feats=feats, embedded=embedded, phi=phi, logits=logits)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of finite (..., 2) logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 0 or logits.shape[-1] != 2 or not np.all(np.isfinite(logits)):
        raise ValueError(f"logits must be finite with a last axis of 2, got shape {logits.shape}")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def nll_head(logits: np.ndarray, labels: Sequence[int], weights) -> tuple[np.ndarray, np.ndarray]:
    """Terms -weights[i] * log softmax(logits)[i, labels[i]], the probability
    floored at 1e-12, and their (n, 2) logit gradients; weights holds one
    weight per row, or one for all."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(logits),) or not np.isin(labels, (0, 1)).all():
        raise ValueError("need one label in {0, 1} per logits row")
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), labels.shape)
    probs = softmax(logits)
    rows = np.arange(len(labels))
    terms = -np.log(np.maximum(probs[rows, labels], PROB_FLOOR)) * weights
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return terms, grad * weights[:, None]


def backward(
    params: ModelParams,
    rec: ForwardRecord,
    grad_logits: np.ndarray,
    grad_phi: Optional[np.ndarray] = None,
) -> ModelParams:
    """Exact batch gradients given (n, 2) upstream gradients at the logits and,
    optionally, (n, d_hidden) ones at phi.

    Embedding rows accumulate in batch order, so results are bit-reproducible.
    """
    gl = np.asarray(grad_logits, dtype=np.float64)
    if gl.shape != rec.logits.shape:
        raise ValueError(f"grad_logits has shape {gl.shape}, want {rec.logits.shape}")
    gphi = gl @ params.out_w.T
    if grad_phi is not None:
        gp = np.asarray(grad_phi, dtype=np.float64)
        if gp.shape != rec.phi.shape:
            raise ValueError(f"grad_phi has shape {gp.shape}, want {rec.phi.shape}")
        gphi += gp
    gh = gphi * (1.0 - rec.phi ** 2)
    g = ModelParams(
        embed=np.zeros_like(params.embed),
        hidden_w=rec.embedded.T @ gh,
        hidden_b=gh.sum(axis=0),
        out_w=rec.phi.T @ gl,
        out_b=gl.sum(axis=0),
    )
    for x, ge in zip(rec.feats, gh @ params.hidden_w.T):
        g.embed[x.indices] += np.outer(x.values, ge)
    return g


class Optimizer:
    """Adam over the fixed parameter blocks; updates are in-place."""

    def __init__(self, learning_rate: float, params: ModelParams):
        self.lr = learning_rate
        self.t = 0
        self.m = ModelParams.zeros_like(params)
        self.v = ModelParams.zeros_like(params)

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        self.t += 1
        corr1 = 1.0 - ADAM_BETA1 ** self.t
        corr2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(params.blocks(), grads.blocks(), self.m.blocks(), self.v.blocks()):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


def compact(
    params: ModelParams, *feat_lists: Sequence[SparseVec]
) -> tuple[ModelParams, np.ndarray, list[list[SparseVec]]]:
    """Fresh (k, d_embed) params over the k embedding rows that feat_lists
    read, those rows in ascending order, and each list with its vectors
    remapped onto them.

    Training the compact params is exact: a row no input reads gets a zero
    gradient, so Adam leaves it bit-identical, and every row that is read
    sees the same values in the same order. `expand` scatters the result back.
    """
    vecs = [x for feats in feat_lists for x in feats]
    if any(x.dim != params.hash_dim for x in vecs):
        raise ValueError(f"every input must have dim {params.hash_dim}")
    indices = np.concatenate([x.indices for x in vecs] + [np.empty(0, np.int64)])
    read = np.zeros(params.hash_dim, dtype=bool)
    read[indices] = True
    rows = np.flatnonzero(read)
    # Embed row r is table row cumsum(read)[r] - 1. The map keeps order, so
    # every remapped vector stays sorted; a lookup is cheaper than a sort.
    new_indices = (np.cumsum(read) - 1)[indices]
    ends = np.cumsum([x.nnz for x in vecs], dtype=np.int64).tolist()
    remapped = iter([SparseVec(new_indices[a:b], x.values, rows.size)
                     for a, b, x in zip([0] + ends, ends, vecs)])
    small = ModelParams(params.embed[rows], *(b.copy() for b in params.blocks()[1:]))
    return small, rows, [[next(remapped) for _ in feats] for feats in feat_lists]


def expand(full: ModelParams, small: ModelParams, rows: np.ndarray) -> ModelParams:
    """A copy of full's embed with `rows` replaced by small.embed, and small's
    other blocks; the inverse of `compact`. Neither input is modified."""
    embed = full.embed.copy()
    embed[rows] = small.embed
    return ModelParams(embed, *small.blocks()[1:])


def predict(params: ModelParams, feats: Sequence[SparseVec]) -> list[int]:
    """Argmax class per featurized example; ties resolve to class 0."""
    return np.argmax(softmax(forward(params, feats).logits), axis=1).tolist()


def pretrain(params: ModelParams, train: Dataset, val: Dataset, cfg: TrainConfig) -> ModelParams:
    """Mini-batch NLL training; returns the snapshot with best validation BA.

    The initial parameters count as the epoch-0 snapshot, so the result never
    validates worse than the input. Deterministic for a fixed seed. Training
    runs on the embedding rows train and val read (`compact`); the other
    rows come back unchanged.
    """
    if len(train) == 0:
        raise DatasetError("pretrain requires a non-empty training set")
    if not train.is_fully_labeled() or not val.is_fully_labeled():
        raise DatasetError("pretrain requires fully labeled train and val datasets")
    if len(val) == 0:
        raise DatasetError("pretrain requires a non-empty validation split to pick the best epoch")
    work, rows, (train_feats, val_feats) = compact(
        params, featurize_dataset(train, params.hash_dim), featurize_dataset(val, params.hash_dim))
    train_labels = np.asarray([ex.label for ex in train.examples])
    val_labels = [ex.label for ex in val.examples]

    def val_ba(p):
        return balanced_accuracy(confusion(predict(p, val_feats), val_labels))

    best = work.copy()
    best_ba = val_ba(work)
    opt = Optimizer(cfg.learning_rate, work)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_feats)
    for _ in range(cfg.max_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            rec = forward(work, [train_feats[i] for i in batch])
            _, grads = nll_head(rec.logits, train_labels[batch], 1.0 / len(batch))
            opt.step(work, backward(work, rec, grads))
        ba = val_ba(work)
        if ba > best_ba:
            best_ba = ba
            best = work.copy()
    return expand(params, best, rows)


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
    """Read a save_checkpoint file. ConfigError when it is not an npz, lacks an
    array, has another version, or holds a block that is not finite float64 of
    the header's shape."""
    try:
        npz = np.load(path)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy array")
        with npz:
            arrays = {k: npz[k] for k in ("meta", *PARAM_BLOCKS)}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a readable checkpoint: {exc}") from exc
    meta = meta if isinstance(meta, dict) else {}
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')!r}")
    h, e, d = (meta.get(k) for k in ("hash_dim", "d_embed", "d_hidden"))
    shapes = {"embed": (h, e), "hidden_w": (e, d), "hidden_b": (d,), "out_w": (d, 2), "out_b": (2,)}
    for name, shape in shapes.items():
        block = arrays[name]
        # min and max propagate NaN and infinities, without a boolean copy of the block
        if (block.shape != shape or block.dtype != np.float64
                or not np.isfinite([block.min(initial=0.0), block.max(initial=0.0)]).all()):
            raise ConfigError(
                f"checkpoint block {name} must be finite float64 of shape {shape}, "
                f"got {block.dtype} {block.shape}"
            )
    return ModelParams(*(arrays[b] for b in PARAM_BLOCKS))

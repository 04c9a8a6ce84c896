"""Hashed-feature embedding + tanh MLP classifier with exact manual gradients.

The representation fed to the discrepancy losses is the post-activation
hidden vector phi; the classifier head maps phi to two logits.
"""
from __future__ import annotations

import json
import reprlib
import zipfile
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, SparseVec, _parse_json, featurize_dataset
from .errors import AdaptationError, ConfigError
from .metrics import balanced_accuracy, confusion

PROB_FLOOR = 1e-12
CHECKPOINT_VERSION = 2
_RUN_GAP = 64  # see _init_rows
_MAX_HASH_DIM = 2 ** 24  # compact's row mask and cumsum take 9 bytes a row: 144 MiB
_MAX_WIDTH = 2 ** 12  # d_embed and d_hidden: hidden_w takes 8 bytes a cell, 128 MiB

# Fixed block order; gradient accumulation, optimizer updates and
# finite-difference sweeps all iterate in this order.
PARAM_BLOCKS = ("embed", "hidden_w", "hidden_b", "out_w", "out_b")

# Adam's constants (Kingma and Ba), fixed for every stage.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_shape(where: str, hash_dim, d_embed, d_hidden, seed) -> None:
    """ConfigError, led by where, unless all four are integers: hash_dim a
    power of two (featurize masks its hashes) from 2 to _MAX_HASH_DIM,
    d_embed and d_hidden from 1 to _MAX_WIDTH, and seed non-negative."""
    for name, v, lo, hi, rule in (
            ("hash_dim", hash_dim, 2, _MAX_HASH_DIM, f"a power of two from 2 to {_MAX_HASH_DIM}"),
            ("d_embed", d_embed, 1, _MAX_WIDTH, f"an integer from 1 to {_MAX_WIDTH}"),
            ("d_hidden", d_hidden, 1, _MAX_WIDTH, f"an integer from 1 to {_MAX_WIDTH}"),
            ("seed", seed, 0, np.inf, "a non-negative integer")):
        if (not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not lo <= v <= hi
                or name == "hash_dim" and v & (v - 1)):
            raise ConfigError(f"{where}{name} must be {rule}, got {reprlib.repr(v)}")


def _is_finite(a: np.ndarray) -> bool:
    # min and max propagate NaN and infinities, without a boolean copy of the array
    return bool(np.isfinite([a.min(initial=0.0), a.max(initial=0.0)]).all())


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ForwardRecord:
    """Cached forward pass of a batch of n examples: enough state for exact
    backpropagation. Row i of each array belongs to feats[i]."""

    feats: tuple[SparseVec, ...]
    embedded: np.ndarray  # (n, d_embed)
    phi: np.ndarray  # (n, d_hidden), tanh of the hidden pre-activation
    logits: np.ndarray  # (n, 2)


@dataclass
class Model:
    """A (hash_dim, d_embed) embedding table of which only `rows` are held,
    and the dense blocks. A row it does not hold has init's value for
    `seed`. forward, backward and Optimizer read embed as the whole table,
    so they take a `compact` model, whose inputs index its held rows; a
    training stage returns the compact model it trained."""

    hash_dim: int
    seed: int
    rows: np.ndarray  # int64, sorted, unique, < hash_dim
    embed: np.ndarray  # (rows.size, d_embed): the held rows' values
    hidden_w: np.ndarray  # (d_embed, d_hidden)
    hidden_b: np.ndarray  # (d_hidden,)
    out_w: np.ndarray  # (d_hidden, 2)
    out_b: np.ndarray  # (2,)

    @property
    def d_embed(self) -> int:
        return self.embed.shape[1]

    def copy(self) -> "Model":
        return Model(self.hash_dim, self.seed, self.rows.copy(),
                     *(getattr(self, b).copy() for b in PARAM_BLOCKS))

    def blocks(self):
        return tuple(getattr(self, b) for b in PARAM_BLOCKS)


def _zeros_like(params: Model) -> Model:
    """Zero blocks over params' rows: a gradient or an optimizer moment."""
    return replace(params, **{b: np.zeros_like(getattr(params, b)) for b in PARAM_BLOCKS})


def init(hash_dim: int, d_embed: int, d_hidden: int, seed: int) -> Model:
    """Initialize weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero.

    default_rng(seed) draws the embedding table, then hidden_w, then out_w.
    The model holds no embedding row: hidden_w starts hash_dim * d_embed
    draws in, and `_init_rows` redraws any row of the table."""
    _check_shape("", hash_dim, d_embed, d_hidden, seed)
    rng = np.random.Generator(np.random.PCG64(seed).advance(hash_dim * d_embed))
    bound_e, bound_h = 1.0 / np.sqrt(d_embed), 1.0 / np.sqrt(d_hidden)
    hidden_w = rng.uniform(-bound_e, bound_e, size=(d_embed, d_hidden))
    out_w = rng.uniform(-bound_h, bound_h, size=(d_hidden, 2))
    return Model(hash_dim, int(seed), np.empty(0, np.int64), np.empty((0, d_embed)),
                 hidden_w, np.zeros(d_hidden), out_w, np.zeros(2))


def _init_rows(seed: int, hash_dim: int, d_embed: int, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` (sorted, unique) of init's embedding table, bit for bit.

    The table is default_rng(seed).uniform's first hash_dim * d_embed draws,
    one PCG64 output each, so row r starts at output r * d_embed. One uniform
    call draws each run of rows at most _RUN_GAP apart, the rows between
    them included, and PCG64.advance skips each longer gap."""
    out = np.empty((rows.size, d_embed))
    if rows.size == 0:
        return out
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hash_dim)
    cuts = (np.flatnonzero(np.diff(rows) > _RUN_GAP) + 1).tolist()
    drawn = 0  # table rows drawn or skipped so far
    for a, b in zip([0] + cuts, cuts + [rows.size]):
        first, last = int(rows[a]), int(rows[b - 1])
        rng.bit_generator.advance((first - drawn) * d_embed)
        run = rng.uniform(-bound, bound, size=(last + 1 - first, d_embed))
        out[a:b] = run[rows[a:b] - first]
        drawn = last + 1
    return out


def forward(params: Model, feats: Sequence[SparseVec]) -> ForwardRecord:
    """Forward pass of a batch: phi = tanh(X @ embed @ hidden_w + hidden_b) and
    logits = phi @ out_w + out_b, with row i of X the sparse vector feats[i].
    FloatingPointError when the pre-activation X @ embed @ hidden_w + hidden_b
    is not finite, which tanh would hide."""
    feats = tuple(feats)
    embedded = np.empty((len(feats), params.d_embed))
    with np.errstate(over="ignore", invalid="ignore"):
        # Row by row, so no (nnz, d_embed) gather of the whole batch is ever held.
        for row, x in zip(embedded, feats):
            if x.dim != len(params.embed):
                raise ValueError(f"input dim {x.dim} != {len(params.embed)} embedding rows")
            row[:] = x.values @ params.embed[x.indices]
        pre = embedded @ params.hidden_w + params.hidden_b
        if not _is_finite(pre):
            raise FloatingPointError("the hidden pre-activation left the float range")
    phi = np.tanh(pre)
    logits = phi @ params.out_w + params.out_b
    return ForwardRecord(feats=feats, embedded=embedded, phi=phi, logits=logits)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of finite (..., 2) logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 0 or logits.shape[-1] != 2 or not np.all(np.isfinite(logits)):
        raise ValueError(f"logits must be finite with a last axis of 2, got shape {logits.shape}")
    # Finite logits further apart than the float range shift to -inf, and
    # exp(-inf) = 0 is the exact answer.
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def nll_head(logits: np.ndarray, labels: Sequence[int], weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Terms -weight * log softmax(logits)[i, labels[i]], the probability
    floored at 1e-12, and their (n, 2) logit gradients: one weight for every row."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(logits),) or not np.all((labels == 0) | (labels == 1)):
        raise ValueError("need one label in {0, 1} per logits row")
    probs = softmax(logits)
    rows = np.arange(len(labels))
    terms = -np.log(np.maximum(probs[rows, labels], PROB_FLOOR)) * weight
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return terms, grad * weight


def backward(
    params: Model,
    rec: ForwardRecord,
    grad_logits: np.ndarray,
    grad_phi: Optional[np.ndarray] = None,
) -> Model:
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
    g = replace(
        params,
        embed=np.zeros_like(params.embed),
        hidden_w=rec.embedded.T @ gh,
        hidden_b=gh.sum(axis=0),
        out_w=rec.phi.T @ gl,
        out_b=gl.sum(axis=0),
    )
    for x, ge in zip(rec.feats, gh @ params.hidden_w.T):
        g.embed[x.indices] += x.values[:, None] * ge  # np.outer's own definition
    return g


class Optimizer:
    """Adam over the fixed parameter blocks; updates are in-place."""

    def __init__(self, learning_rate: float, params: Model):
        self.lr = learning_rate
        self.t = 0
        self.m = _zeros_like(params)
        self.v = _zeros_like(params)
        # Two scratch arrays per block: a step allocates no temporaries.
        self._scratch = [(np.empty_like(b), np.empty_like(b)) for b in params.blocks()]

    def step(self, params: Model, grads: Model) -> None:
        """One Adam step per block, in this operation order (which fixes every
        bit): m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        p -= (lr*(m/c1)) / (sqrt(v/c2) + eps). FloatingPointError when a
        second moment leaves the float range; that block's p is unchanged."""
        self.t += 1
        corr1 = 1.0 - ADAM_BETA1 ** self.t
        corr2 = 1.0 - ADAM_BETA2 ** self.t
        blocks = zip(PARAM_BLOCKS, params.blocks(), grads.blocks(),
                     self.m.blocks(), self.v.blocks(), self._scratch)
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p, g, m, v, (s1, s2) in blocks:
                m *= ADAM_BETA1
                m += np.multiply(1.0 - ADAM_BETA1, g, out=s1)
                v *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, g, out=s1)
                v += np.multiply(s1, g, out=s1)
                # v is never negative, so its max alone shows a NaN or an inf
                if not np.isfinite(v.max(initial=0.0)):
                    raise FloatingPointError(f"Adam's second moment of {name} overflowed")
                np.divide(m, corr1, out=s1)
                s1 *= self.lr
                np.divide(v, corr2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += ADAM_EPS
                p -= np.divide(s1, s2, out=s1)


def compact(model: Model, *feat_lists: Sequence[SparseVec]) -> tuple[Model, list[list[SparseVec]]]:
    """A fresh model that holds model's rows and the rows feat_lists read,
    k in all, and each list with its vectors remapped onto its (k, d_embed)
    embed. A held row keeps its bits, any other comes from `_init_rows`.

    A stage trains the compact model and returns it: a row no input reads
    gets a zero gradient, so Adam leaves it bit-identical, and every row
    that is read sees the same values in the same order.
    """
    vecs = [x for feats in feat_lists for x in feats]
    if any(x.dim != model.hash_dim for x in vecs):
        raise ValueError(f"every input must have dim {model.hash_dim}")
    indices = np.concatenate([x.indices for x in vecs] + [np.empty(0, np.int64)])
    read = np.zeros(model.hash_dim, dtype=bool)
    read[indices] = True
    read[model.rows] = True
    rows = np.flatnonzero(read)
    # Embed row r is table row cumsum(read)[r] - 1. The map keeps order, so
    # every remapped vector stays sorted; a lookup is cheaper than a sort.
    new_indices = (np.cumsum(read) - 1)[indices]
    ends = np.cumsum([x.indices.size for x in vecs], dtype=np.int64).tolist()
    remapped = iter([SparseVec(new_indices[a:b], x.values, rows.size)
                     for a, b, x in zip([0] + ends, ends, vecs)])
    # model.rows is a subset of rows, in order, so the held rows need no gather
    held = np.isin(rows, model.rows, assume_unique=True)
    embed = np.empty((rows.size, model.d_embed))
    embed[held] = model.embed
    embed[~held] = _init_rows(model.seed, model.hash_dim, model.d_embed, rows[~held])
    small = Model(model.hash_dim, model.seed, rows, embed,
                  *(getattr(model, b).copy() for b in PARAM_BLOCKS[1:]))
    return small, [[next(remapped) for _ in feats] for feats in feat_lists]


def logits_ba(logits: np.ndarray, labels) -> float:
    """Balanced accuracy of argmax(softmax(logits)) against labels; ties go to
    class 0. The softmax stays: argmax(logits) differs on near-ties."""
    return balanced_accuracy(confusion(np.argmax(softmax(logits), axis=1), labels))


def _best_epoch(work: Model, scores, stage: str) -> tuple[Model, int, float]:
    """The snapshot of work with the best held-out BA, its epoch and the BA.
    scores, a stage's epochs training work in place, yields the BA before
    training, then after each epoch. A tie keeps the earlier epoch. An epoch's
    FloatingPointError becomes AdaptationError naming it; epoch 0's stays bare."""
    best_ba, best, best_epoch = next(scores), work.copy(), 0
    epoch = 0  # the last epoch that finished
    try:
        for epoch, ba in enumerate(scores, start=1):
            if ba > best_ba:
                best_ba, best, best_epoch = ba, work.copy(), epoch
    except FloatingPointError as exc:
        raise AdaptationError(f"{stage} diverged in epoch {epoch + 1}: {exc}") from exc
    return best, best_epoch, best_ba


def pretrain(params: Model, train: Dataset, val: Dataset, cfg: TrainConfig) -> Model:
    """Mini-batch NLL training; returns the snapshot with best validation BA.

    The initial parameters count as the epoch-0 snapshot, so the result never
    validates worse than the input. Deterministic for a fixed seed. Training
    runs on params' rows and those train and val read (`compact`); a row
    they do not read comes back unchanged. AdaptationError, naming the
    epoch, when training leaves the float range.
    """
    train_labels, val_labels = train.labels(), val.labels()
    work, (train_feats, val_feats) = compact(
        params, featurize_dataset(train, params.hash_dim), featurize_dataset(val, params.hash_dim))

    def epochs():
        yield logits_ba(forward(work, val_feats).logits, val_labels)
        opt = Optimizer(cfg.learning_rate, work)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.max_epochs):
            perm = rng.permutation(len(train_feats))
            for start in range(0, len(perm), cfg.batch_size):
                batch = perm[start : start + cfg.batch_size]
                rec = forward(work, [train_feats[i] for i in batch])
                _, grads = nll_head(rec.logits, train_labels[batch], 1.0 / len(batch))
                opt.step(work, backward(work, rec, grads))
            yield logits_ba(forward(work, val_feats).logits, val_labels)

    return _best_epoch(work, epochs(), "pretraining")[0]


def save_checkpoint(params: Model, path) -> None:
    """Write a versioned npz checkpoint to exactly path (np.savez would add
    .npz to a path without it): the seed, the held rows and their table, and
    the dense blocks; float64 arrays round-trip bit-exactly."""
    meta = {"version": CHECKPOINT_VERSION, "hash_dim": params.hash_dim, "seed": params.seed,
            "d_embed": params.d_embed, "d_hidden": params.hidden_w.shape[1]}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), np.uint8),
                 rows=params.rows, **{b: getattr(params, b) for b in PARAM_BLOCKS})


def load_checkpoint(path) -> Model:
    """Read a save_checkpoint file. ConfigError when it is not an npz, has
    another version, lacks an array, or breaks its header: widths or a seed
    that `_check_shape` refuses, rows that are not increasing int64 below
    hash_dim, or a block that is not finite float64 of its shape."""
    try:
        npz = np.load(path)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy array")
        with npz:
            arrays = {k: npz[k] for k in ("meta", "rows", *PARAM_BLOCKS) if k in npz.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a readable checkpoint: {exc}") from exc
    meta = _parse_json(arrays.pop("meta").tobytes(), ConfigError, path, "meta") if "meta" in arrays else {}
    meta = meta if isinstance(meta, dict) else {}
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: checkpoint version {reprlib.repr(meta.get('version'))} is "
                          f"not supported, only {CHECKPOINT_VERSION}; rerun pretrain")
    if set(arrays) != {"rows", *PARAM_BLOCKS}:
        raise ConfigError(f"{path} is not a readable checkpoint: it lacks an array")
    h, e, d, seed = (meta.get(k) for k in ("hash_dim", "d_embed", "d_hidden", "seed"))
    _check_shape(f"{path}: checkpoint ", h, e, d, seed)
    rows = arrays["rows"]
    if (rows.dtype != np.int64 or rows.ndim != 1 or np.any(np.diff(rows) <= 0)
            or (rows.size and (rows[0] < 0 or rows[-1] >= h))):
        raise ConfigError(f"{path}: checkpoint rows must be increasing int64 below hash_dim {h}")
    shapes = {"embed": (rows.size, e), "hidden_w": (e, d), "hidden_b": (d,), "out_w": (d, 2), "out_b": (2,)}
    for name, shape in shapes.items():
        block = arrays[name]
        if block.shape != shape or block.dtype != np.float64 or not _is_finite(block):
            raise ConfigError(
                f"{path}: checkpoint block {name} must be finite float64 of shape {shape}, "
                f"got {block.dtype} {block.shape}"
            )
    return Model(h, seed, rows, *(arrays[b] for b in PARAM_BLOCKS))

"""Dataset ingestion, deterministic splitting, text preprocessing, feature
hashing, and a synthetic shifted-domain generator with known ground truth."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import build
from .errors import ConfigError, DatasetError

DEFAULT_HASH_DIM = 2 ** 18

HASHTAG_TOKEN = "<hashtag>"
MENTION_TOKEN = "<mention>"
URL_TOKEN = "<url>"
_MARKERS = frozenset((HASHTAG_TOKEN, MENTION_TOKEN, URL_TOKEN))
_URL_PREFIXES = ("http://", "https://", "www.")

# Grid width used to turn synthetic real-valued coordinates into tokens.
QUANT_STEP = 0.5


@dataclass(frozen=True)
class Example:
    """One text with an optional binary label (0 = misinformation, 1 = non-misleading)."""

    text: str
    label: Optional[int] = None


@dataclass
class Dataset:
    examples: list[Example]
    domain_tag: str  # "source" or "target"
    name: str = ""
    warning: Optional[str] = None

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> list[Optional[int]]:
        return [ex.label for ex in self.examples]

    def is_fully_labeled(self) -> bool:
        return all(ex.label is not None for ex in self.examples)

    def class_prior(self) -> float:
        """Fraction of class-1 examples; requires every label to be present."""
        if not self.examples:
            raise DatasetError(f"dataset {self.name!r} is empty; prior undefined")
        if not self.is_fully_labeled():
            raise DatasetError(
                f"dataset {self.name!r} has unlabeled examples; prior undefined"
            )
        return sum(ex.label for ex in self.examples) / len(self.examples)


@dataclass(frozen=True, eq=False)
class SparseVec:
    """Sparse hashed-feature vector: strictly increasing indices, nonzero finite values."""

    indices: np.ndarray  # int64, sorted, unique, < dim
    values: np.ndarray  # float64, finite, no stored zeros
    dim: int

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def _validate_label(raw, path: str, lineno: int) -> Optional[int]:
    if raw is None:
        return None
    if raw in (0, 1) and not isinstance(raw, bool):
        return int(raw)
    raise DatasetError(f"{path}:{lineno}: label must be 0, 1 or null, got {raw!r}")


def load_jsonl(path, domain_tag: str = "source", name: Optional[str] = None) -> Dataset:
    """Load a JSONL dataset of {"text": str, "label": 0|1|null} objects.

    Line order is preserved. Malformed lines and invalid labels raise
    DatasetError naming the offending line. An example whose text is empty
    after preprocessing is rejected at load time.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    examples: list[Example] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                raise DatasetError(
                    f"{path}:{lineno}: expected an object with 'text' and 'label'"
                )
            text = obj["text"]
            if not isinstance(text, str):
                raise DatasetError(f"{path}:{lineno}: 'text' must be a string")
            if not preprocess(text):
                raise DatasetError(
                    f"{path}:{lineno}: text is empty after preprocessing"
                )
            examples.append(Example(text, _validate_label(obj["label"], str(path), lineno)))
    return Dataset(examples, domain_tag=domain_tag, name=name)


def write_jsonl(ds: Dataset, path, drop_labels: bool = False) -> None:
    """Write a dataset back out as JSONL, optionally with labels nulled."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in ds.examples:
            label = None if drop_labels else ex.label
            fh.write(json.dumps({"text": ex.text, "label": label}, ensure_ascii=False))
            fh.write("\n")


def split(ds: Dataset, ratios: tuple[float, float, float], seed: int):
    """Deterministically partition a dataset into (train, val, test).

    Sizes are floor(n * ratio) for val and test with the remainder going to
    train. The partition is a seeded permutation of the input.
    """
    if len(ds) == 0:
        raise DatasetError("cannot split an empty dataset")
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ConfigError(f"ratios must be three positive reals, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1 within 1e-9, got sum {sum(ratios)}")
    n = len(ds)
    n_val = math.floor(n * ratios[1])
    n_test = math.floor(n * ratios[2])
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)

    def take(idx, suffix):
        return Dataset(
            [ds.examples[i] for i in idx],
            domain_tag=ds.domain_tag,
            name=f"{ds.name}/{suffix}" if ds.name else suffix,
        )

    return (
        take(perm[:n_train], "train"),
        take(perm[n_train : n_train + n_val], "val"),
        take(perm[n_train + n_val :], "test"),
    )


def _strip_non_alnum(token: str) -> str:
    return "".join(ch for ch in token if ch.isalnum())


def preprocess(text: str) -> list[str]:
    """Lowercase, whitespace-split, and normalize social-media artifacts.

    '#word' emits '<hashtag>' plus the bare word, '@...' emits '<mention>',
    http(s)/www tokens emit '<url>', and remaining non-alphanumeric characters
    are stripped. Marker tokens pass through unchanged, which makes the
    function idempotent on its own space-joined output.
    """
    tokens: list[str] = []
    for raw in text.lower().split():
        if raw in _MARKERS:
            tokens.append(raw)
        elif raw.startswith("#"):
            tokens.append(HASHTAG_TOKEN)
            bare = _strip_non_alnum(raw[1:])
            if bare:
                tokens.append(bare)
        elif raw.startswith("@"):
            tokens.append(MENTION_TOKEN)
        elif raw.startswith(_URL_PREFIXES):
            tokens.append(URL_TOKEN)
        else:
            bare = _strip_non_alnum(raw)
            if bare:
                tokens.append(bare)
    return tokens


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BIGRAM_JOIN = "\x1f"


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash; platform- and run-independent by construction."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def featurize(tokens: Sequence[str], dim: int = DEFAULT_HASH_DIM) -> SparseVec:
    """Hash unigrams and adjacent bigrams into a sparse vector of width dim.

    Term counts are scaled by 1/sqrt(len(tokens)). dim must be a power of two
    (the hash is reduced by masking). The empty token list yields the empty
    vector.
    """
    if dim < 2 or dim & (dim - 1) != 0:
        raise ConfigError(f"dim must be a power of two >= 2, got {dim}")
    if not tokens:
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), dim)
    mask = dim - 1
    counts: dict[int, int] = {}
    for tok in tokens:
        idx = fnv1a_64(tok.encode("utf-8")) & mask
        counts[idx] = counts.get(idx, 0) + 1
    for first, second in zip(tokens, tokens[1:]):
        idx = fnv1a_64((first + _BIGRAM_JOIN + second).encode("utf-8")) & mask
        counts[idx] = counts.get(idx, 0) + 1
    scale = 1.0 / math.sqrt(len(tokens))
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] * scale for i in sorted(counts)], dtype=np.float64)
    return SparseVec(indices, values, dim)


def featurize_dataset(ds: Dataset, dim: int) -> list[SparseVec]:
    return [featurize(preprocess(ex.text), dim) for ex in ds.examples]


@dataclass
class SynthConfig:
    """Configuration for the synthetic shifted-domain generator.

    Class-conditional Gaussians with per-domain means realize conditional
    shift; distinct source/target priors realize label shift. Coordinates are
    quantized to numeric tokens so the standard preprocess/featurize path
    applies unchanged.
    """

    n_source: int
    n_target: int
    source_prior: float
    target_prior: float
    class_means_source: tuple[np.ndarray, np.ndarray]
    class_means_target: tuple[np.ndarray, np.ndarray]
    noise_scale: float = 1.0
    vocab_mode: str = "numeric_tokens"
    seed: int = 0

    def __post_init__(self):
        not_pairs = "class_means_source and class_means_target must each be a pair of vectors"
        try:
            self.class_means_source = tuple(
                np.asarray(m, dtype=np.float64) for m in self.class_means_source
            )
            self.class_means_target = tuple(
                np.asarray(m, dtype=np.float64) for m in self.class_means_target
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(not_pairs) from exc
        if len(self.class_means_source) != 2 or len(self.class_means_target) != 2:
            raise ConfigError(not_pairs)
        if self.n_source <= 0 or self.n_target <= 0:
            raise ConfigError("n_source and n_target must be positive")
        for prior, label in ((self.source_prior, "source"), (self.target_prior, "target")):
            if not 0.0 < prior < 1.0:
                raise ConfigError(f"{label}_prior must lie strictly inside (0,1), got {prior}")
        dims = {
            m.shape for m in self.class_means_source + self.class_means_target
        }
        if len(dims) != 1 or self.class_means_source[0].ndim != 1:
            raise ConfigError("all four class mean vectors must share one dimension")
        if self.noise_scale <= 0:
            raise ConfigError(f"noise_scale must be positive, got {self.noise_scale}")
        if self.vocab_mode != "numeric_tokens":
            raise ConfigError(f"unsupported vocab_mode {self.vocab_mode!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        """Build from a JSON-shaped dict; unknown, missing or mistyped keys raise ConfigError."""
        return build(cls, obj, "synth")


def _encode_vector(vec: np.ndarray) -> str:
    # Level l of coordinate j becomes token f{j}p{l} or f{j}m{l}; rounding is
    # numpy rint (ties to even) so the mapping is deterministic.
    tokens = []
    for j, v in enumerate(vec):
        level = int(np.rint(v / QUANT_STEP))
        sign = "m" if level < 0 else "p"
        tokens.append(f"f{j}{sign}{abs(level)}")
    return " ".join(tokens)


def _gen_domain(rng, n, prior, means, noise_scale, domain_tag, name, warning):
    labels = (rng.random(n) < prior).astype(np.int64)
    dim = means[0].size
    noise = rng.standard_normal((n, dim))
    examples = []
    for i in range(n):
        vec = means[labels[i]] + noise_scale * noise[i]
        examples.append(Example(_encode_vector(vec), int(labels[i])))
    return Dataset(examples, domain_tag=domain_tag, name=name, warning=warning)


def gen_synthetic(cfg: SynthConfig) -> tuple[Dataset, Dataset]:
    """Generate (source, target) datasets with known labels in both domains.

    Target labels are retained for evaluation; the pipeline withholds them
    from training. A degenerate configuration (identical class means within a
    domain) is accepted but flagged on the returned dataset.
    """
    rng = np.random.default_rng(cfg.seed)

    def degenerate(means, label):
        if np.array_equal(means[0], means[1]):
            return f"{label} class means are identical; classes are indistinguishable"
        return None

    source = _gen_domain(
        rng, cfg.n_source, cfg.source_prior, cfg.class_means_source,
        cfg.noise_scale, "source", "synthetic-source",
        degenerate(cfg.class_means_source, "source"),
    )
    target = _gen_domain(
        rng, cfg.n_target, cfg.target_prior, cfg.class_means_target,
        cfg.noise_scale, "target", "synthetic-target",
        degenerate(cfg.class_means_target, "target"),
    )
    return source, target

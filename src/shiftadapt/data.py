"""Dataset ingestion, deterministic splitting, text preprocessing, feature
hashing, and a synthetic shifted-domain generator with known ground truth."""
from __future__ import annotations

import codecs
import json
import math
from dataclasses import KW_ONLY, dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DatasetError

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
    _: KW_ONLY
    name: str = ""
    warning: Optional[str] = None

    def __len__(self) -> int:
        return len(self.examples)

    def is_fully_labeled(self) -> bool:
        return all(ex.label is not None for ex in self.examples)

    def labels(self) -> np.ndarray:
        """Every example's label, in order, as int64; DatasetError when one is missing."""
        if not self.is_fully_labeled():
            raise DatasetError(f"dataset {self.name!r} has unlabeled examples")
        return np.fromiter((ex.label for ex in self.examples), np.int64, len(self))

    def class_prior(self) -> float:
        """Fraction of class-1 examples; requires every label to be present."""
        if not self.examples:
            raise DatasetError(f"dataset {self.name!r} is empty; prior undefined")
        return int(self.labels().sum()) / len(self)


@dataclass(frozen=True, eq=False)
class SparseVec:
    """Sparse hashed-feature vector: strictly increasing indices, nonzero finite values."""

    indices: np.ndarray  # int64, sorted, unique, < dim
    values: np.ndarray  # float64, finite, no stored zeros
    dim: int


def _validate_label(raw, path: str, lineno: int) -> Optional[int]:
    if raw is None:
        return None
    if raw in (0, 1) and not isinstance(raw, bool):
        return int(raw)
    raise DatasetError(f"{path}:{lineno}: label must be 0, 1 or null, got {raw!r}")


def _parse_json(raw: bytes, error: type[Exception], *where):
    """The JSON value of UTF-8 bytes; error, led by where's parts joined with
    ":" (joined only on failure: a dataset parses each line here), when they
    are not UTF-8, not JSON, nested past the recursion limit (RFC 8259 §8.1,
    §9), or hold an integer past CPython's digit limit (4,300 by default)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        fault, cause = f"not UTF-8 text ({exc.reason} at byte {exc.start})", exc
    except json.JSONDecodeError as exc:
        fault, cause = f"malformed JSON ({exc.msg})", exc
    except RecursionError as exc:
        fault, cause = "JSON nested too deeply", exc
    except ValueError as exc:
        fault, cause = "an integer with too many digits to read", exc
    raise error(":".join(map(str, where)) + f": {fault}") from cause


def _file_bytes(path) -> bytes:
    """A file's bytes without a leading UTF-8 byte-order mark, as utf-8-sig reads them."""
    return Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)


def load_jsonl(path) -> Dataset:
    """Load a JSONL dataset of {"text": str, "label": 0|1|null} objects.

    Line order is preserved. Malformed lines (not UTF-8, not JSON, or nested
    too deep) and invalid labels raise DatasetError naming the offending
    line. An example whose text is empty after preprocessing is rejected at
    load time; the check stops at the text's first token.
    """
    path = Path(path)
    examples: list[Example] = []
    # A leading byte-order mark is dropped; lines end at LF, CRLF or CR, as
    # in text mode.
    for lineno, line in enumerate(_file_bytes(path).splitlines(), start=1):
        obj = _parse_json(line, DatasetError, path, lineno)
        if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
            raise DatasetError(f"{path}:{lineno}: expected an object with 'text' and 'label'")
        text = obj["text"]
        if not isinstance(text, str):
            raise DatasetError(f"{path}:{lineno}: 'text' must be a string")
        if next(_tokens(text), None) is None:
            raise DatasetError(f"{path}:{lineno}: text is empty after preprocessing")
        examples.append(Example(text, _validate_label(obj["label"], str(path), lineno)))
    return Dataset(examples, name=path.stem)


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
            name=f"{ds.name}/{suffix}" if ds.name else suffix,
        )

    return (
        take(perm[:n_train], "train"),
        take(perm[n_train : n_train + n_val], "val"),
        take(perm[n_train + n_val :], "test"),
    )


def _strip_non_alnum(token: str) -> str:
    # str.isalnum applies ch.isalnum to every code point (and is False for "").
    if token.isalnum():
        return token
    return "".join(ch for ch in token if ch.isalnum())


def _tokens(text: str) -> Iterator[str]:
    for raw in text.lower().split():
        # Every marker and prefix below holds a non-alphanumeric character,
        # and stripping leaves an alphanumeric token unchanged.
        if raw.isalnum():
            yield raw
        elif raw in _MARKERS:
            yield raw
        elif raw.startswith("#"):
            yield HASHTAG_TOKEN
            bare = _strip_non_alnum(raw[1:])
            if bare:
                yield bare
        elif raw.startswith("@"):
            yield MENTION_TOKEN
        elif raw.startswith(_URL_PREFIXES):
            yield URL_TOKEN
        else:
            bare = _strip_non_alnum(raw)
            if bare:
                yield bare


def preprocess(text: str) -> list[str]:
    """Lowercase, whitespace-split, and normalize social-media artifacts.

    '#word' emits '<hashtag>' plus the bare word, '@...' emits '<mention>',
    http(s)/www tokens emit '<url>', and remaining non-alphanumeric characters
    are stripped. Marker tokens pass through unchanged, which makes the
    function idempotent on its own space-joined output.
    """
    return list(_tokens(text))


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BIGRAM_JOIN = b"\x1f"


def fnv1a_64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash; platform- and run-independent by construction.

    FNV-1a's state is its hash, so passing the hash of a as h continues it:
    fnv1a_64(b, fnv1a_64(a)) == fnv1a_64(a + b).
    """
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def featurize(tokens: Sequence[str], dim: int, hashes: Optional[dict] = None) -> SparseVec:
    """Hash unigrams and adjacent bigrams into a sparse vector of width dim.

    Term counts are scaled by 1/sqrt(len(tokens)). dim must be a power of two
    (the hash is reduced by masking). The empty token list yields the empty
    vector. hashes, when given, is a table of unmasked 64-bit hashes that
    calls share (see featurize_dataset): a token maps to its hash and a
    (previous token's hash, token) pair to the bigram's. A gram missing from
    it is hashed and added; one found is not hashed again.
    """
    if dim < 2 or dim & (dim - 1) != 0:
        raise ConfigError(f"dim must be a power of two >= 2, got {dim}")
    if not tokens:
        return SparseVec(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), dim)
    if hashes is None:
        hashes = {}
    mask = dim - 1
    counts: dict[int, int] = {}
    prev = None
    for tok in tokens:
        h = hashes.get(tok)
        if h is None:
            h = hashes[tok] = fnv1a_64(tok.encode("utf-8"))
        idx = h & mask
        counts[idx] = counts.get(idx, 0) + 1
        if prev is not None:
            pair = (prev, tok)
            bigram = hashes.get(pair)
            if bigram is None:
                # the hash of prev_tok + "\x1f" + tok, continued from prev_tok's
                bigram = hashes[pair] = fnv1a_64(tok.encode("utf-8"),
                                                 fnv1a_64(_BIGRAM_JOIN, prev))
            idx = bigram & mask
            counts[idx] = counts.get(idx, 0) + 1
        prev = h
    scale = 1.0 / math.sqrt(len(tokens))
    keys = sorted(counts)
    indices = np.array(keys, dtype=np.int64)
    values = np.array([counts[i] * scale for i in keys], dtype=np.float64)
    return SparseVec(indices, values, dim)


def featurize_dataset(ds: Dataset, dim: int) -> list[SparseVec]:
    """featurize(preprocess(text), dim) for each example, in order.

    The calls share one hash table that lives for this call only, so each
    distinct token and bigram of the dataset is hashed once. The table holds
    unmasked hashes and is freed on return: nothing carries over to the next
    call.
    """
    hashes: dict = {}
    return [featurize(preprocess(ex.text), dim, hashes) for ex in ds.examples]


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
    class_means_source: list[list[float]]
    class_means_target: list[list[float]]
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        pairs = (self.class_means_source, self.class_means_target)
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigError(
                "class_means_source and class_means_target must each be a pair of vectors"
            )
        if self.n_source <= 0 or self.n_target <= 0:
            raise ConfigError("n_source and n_target must be positive")
        for prior, label in ((self.source_prior, "source"), (self.target_prior, "target")):
            if not 0.0 < prior < 1.0:
                raise ConfigError(f"{label}_prior must lie strictly inside (0,1), got {prior}")
        dims = {len(m) for pair in pairs for m in pair}
        if len(dims) != 1:
            raise ConfigError("all four class mean vectors must share one dimension")
        if dims == {0}:
            raise ConfigError("class mean vectors must have at least one coordinate")
        if self.noise_scale <= 0:
            raise ConfigError(f"noise_scale must be positive, got {self.noise_scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _gen_domain(rng, n, prior, means, noise_scale, name, warning):
    labels = (rng.random(n) < prior).astype(np.int64)
    means = np.asarray(means, dtype=np.float64)
    # (means[labels] + noise_scale * noise) / QUANT_STEP, computed in place in
    # the noise array so that a domain holds one (n, dim) array besides means[labels]
    scaled = rng.standard_normal((n, means.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled *= noise_scale
        scaled += means[labels]
        scaled /= QUANT_STEP
    if not np.all(np.isfinite(scaled)):
        raise ConfigError(
            f"{name} coordinates leave the float range; reduce the class means or noise_scale"
        )
    # Level l of coordinate j becomes token f{j}p{l} or f{j}m{l}; rounding is
    # numpy rint (ties to even) so the mapping is deterministic.
    examples = []
    for levels, label in zip(np.rint(scaled, out=scaled), labels.tolist()):
        text = " ".join(f"f{j}{'m' if v < 0 else 'p'}{abs(int(v))}"
                        for j, v in enumerate(levels.tolist()))
        examples.append(Example(text, label))
    return Dataset(examples, name=name, warning=warning)


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
        cfg.noise_scale, "synthetic-source",
        degenerate(cfg.class_means_source, "source"),
    )
    target = _gen_domain(
        rng, cfg.n_target, cfg.target_prior, cfg.class_means_target,
        cfg.noise_scale, "synthetic-target",
        degenerate(cfg.class_means_target, "target"),
    )
    return source, target

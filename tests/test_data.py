import json
import math
import time

import numpy as np
import pytest

from shiftadapt import config, data
from shiftadapt.errors import ConfigError, DatasetError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


class TestLoadJsonl:
    def test_basic_parse_preserves_order_and_null_label(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, ['{"text":"a","label":1}', '{"text":"b","label":null}'])
        ds = data.load_jsonl(p)
        assert len(ds) == 2
        assert ds.examples[0] == data.Example("a", 1)
        assert ds.examples[1] == data.Example("b", None)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", encoding="utf-8")
        assert len(data.load_jsonl(p)) == 0

    def test_invalid_label_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_lines(p, ['{"text":"a","label":2}'])
        with pytest.raises(DatasetError, match=r":1:"):
            data.load_jsonl(p)

    def test_bool_label_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_lines(p, ['{"text":"a","label":true}'])
        with pytest.raises(DatasetError):
            data.load_jsonl(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_lines(p, ['{"text":"a","label":1}', "{nope"])
        with pytest.raises(DatasetError, match=r":2:"):
            data.load_jsonl(p)

    def test_text_empty_after_preprocess_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        write_lines(p, ['{"text":"!!!","label":0}'])
        with pytest.raises(DatasetError, match="empty after preprocessing"):
            data.load_jsonl(p)

    @pytest.mark.parametrize("text, kept", [
        ("!!! ...", False), ("", False), ("  \t ", False),
        ("#", True), ("@", True), ("<url>", True), ("ok", True), ("!!! ok", True),
    ])
    def test_rejects_exactly_the_texts_preprocess_empties(self, tmp_path, text, kept):
        assert bool(data.preprocess(text)) is kept
        p = tmp_path / "d.jsonl"
        write_lines(p, [json.dumps({"text": text, "label": 1})])
        if kept:
            assert data.load_jsonl(p).examples == [data.Example(text, 1)]
        else:
            with pytest.raises(DatasetError, match="empty after preprocessing"):
                data.load_jsonl(p)

    def test_reload_is_stable(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_lines(p, [json.dumps({"text": f"tok{i}", "label": i % 2}) for i in range(20)])
        first = data.load_jsonl(p)
        second = data.load_jsonl(p)
        assert first.examples == second.examples

    def test_roundtrip_through_write_jsonl(self, tmp_path):
        ds = data.Dataset(
            [data.Example("hello world", 1), data.Example("more text", None)], name="t"
        )
        p = tmp_path / "out.jsonl"
        data.write_jsonl(ds, p)
        back = data.load_jsonl(p)
        assert back.examples == ds.examples and back.name == "out"

    def test_dataset_name_and_warning_are_keyword_only(self):
        with pytest.raises(TypeError):
            data.Dataset([data.Example("a", 1)], "target", "calib")
        assert data.Dataset([], name="n", warning="w").warning == "w"

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "crlf.jsonl"
        p.write_bytes(b'{"text":"a","label":1}\r\n{"text":"b","label":0}\r\n')
        ds = data.load_jsonl(p)
        assert [ex.label for ex in ds.examples] == [1, 0]

    def test_utf8_bom_skipped(self, tmp_path):
        p = tmp_path / "bom.jsonl"
        p.write_bytes(b'\xef\xbb\xbf{"text":"a","label":1}\n{"text":"b","label":0}\n')
        ds = data.load_jsonl(p)
        assert ds.examples == [data.Example("a", 1), data.Example("b", 0)]


class TestSplit:
    def make(self, n):
        return data.Dataset([data.Example(f"t{i}", i % 2) for i in range(n)], name="s")

    def test_sizes_7_1_2(self):
        tr, va, te = data.split(self.make(10), (0.7, 0.1, 0.2), seed=0)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_deterministic(self):
        a = data.split(self.make(23), (0.7, 0.1, 0.2), seed=5)
        b = data.split(self.make(23), (0.7, 0.1, 0.2), seed=5)
        for x, y in zip(a, b):
            assert x.examples == y.examples

    def test_remainder_goes_to_train(self):
        # floor(3*0.1) = floor(3*0.2) = 0, so train absorbs the remainder
        tr, va, te = data.split(self.make(3), (0.7, 0.1, 0.2), seed=0)
        assert (len(tr), len(va), len(te)) == (3, 0, 0)

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 60))
            ds = self.make(n)
            tr, va, te = data.split(ds, (0.5, 0.25, 0.25), seed=int(rng.integers(1 << 31)))
            combined = sorted(
                (ex.text for ex in tr.examples + va.examples + te.examples)
            )
            assert combined == sorted(ex.text for ex in ds.examples)
            assert len(tr) + len(va) + len(te) == n

    def test_bad_ratio_sum(self):
        with pytest.raises(ConfigError):
            data.split(self.make(5), (0.7, 0.1, 0.1), seed=0)

    def test_empty_dataset(self):
        with pytest.raises(DatasetError):
            data.split(data.Dataset([], name="s"), (0.7, 0.1, 0.2), seed=0)


class TestPreprocess:
    def test_social_media_tokens(self):
        assert data.preprocess("Check https://x.co #Covid @who") == [
            "check", "<url>", "<hashtag>", "covid", "<mention>",
        ]

    def test_empty(self):
        assert data.preprocess("") == []

    def test_lowercase_and_strip(self):
        assert data.preprocess("HELLO!!!") == ["hello"]

    def test_hashtag_bare_word_stripped(self):
        assert data.preprocess("#covid-19") == ["<hashtag>", "covid19"]

    def test_bare_hash_emits_marker_only(self):
        assert data.preprocess("#") == ["<hashtag>"]

    def test_www_prefix(self):
        assert data.preprocess("see www.example.org now") == ["see", "<url>", "now"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(1)
        pieces = ["Hello!", "#Tag", "@user", "https://a.b/c", "plain", "MiXeD-case", "#",
                  "www.x.y", "123", "a_b", "..."]
        for _ in range(50):
            text = " ".join(rng.choice(pieces, size=rng.integers(0, 8)))
            once = data.preprocess(text)
            again = data.preprocess(" ".join(once))
            assert again == once

    def test_strip_matches_per_character_join(self):
        rng = np.random.default_rng(5)
        alphabet = list("abcXYZ019-_.!# ") + ["é", "ß", "٣", "中", "\u0301", "²", "½", "Ⅻ", "🙂"]
        tokens = ["", "é", "a-b", "٣", "abc", "123", "---"] + [
            "".join(rng.choice(alphabet, size=rng.integers(0, 8))) for _ in range(2000)]
        for token in tokens:
            assert data._strip_non_alnum(token) == "".join(ch for ch in token if ch.isalnum())


def branch_order_preprocess(text):
    """The tokenizer's rules in their original order, without the
    alphanumeric fast path: the reference that preprocess is compared against."""
    tokens = []
    for raw in text.lower().split():
        if raw in ("<hashtag>", "<mention>", "<url>"):
            tokens.append(raw)
        elif raw.startswith("#"):
            tokens.append("<hashtag>")
            bare = "".join(ch for ch in raw[1:] if ch.isalnum())
            if bare:
                tokens.append(bare)
        elif raw.startswith("@"):
            tokens.append("<mention>")
        elif raw.startswith(("http://", "https://", "www.")):
            tokens.append("<url>")
        else:
            bare = "".join(ch for ch in raw if ch.isalnum())
            if bare:
                tokens.append(bare)
    return tokens


class TestPreprocessBranchOrder:
    PIECES = list("aZ9#@<>:/.-_!") + ["é", "٣", "Ⅻ", "ß", "中", "www.", "http://", "https://",
                                       "<url>", "<hashtag>", "<mention>", "url", "hashtag"]

    def test_matches_reference_on_random_raw_tokens(self):
        rng = np.random.default_rng(11)
        raws = ["".join(rng.choice(self.PIECES, size=rng.integers(1, 7))) for _ in range(3000)]
        for raw in raws:
            assert data.preprocess(raw) == branch_order_preprocess(raw), raw
        text = " ".join(raws)
        assert data.preprocess(text) == branch_order_preprocess(text)

    def test_markers_and_prefixes_are_never_alphanumeric(self):
        # the alphanumeric fast path is exact only because of this
        pieces = (*data._MARKERS, "#", "@", *data._URL_PREFIXES)
        assert not any(piece.isalnum() for piece in pieces)


class TestFnv1a:
    @pytest.mark.parametrize("raw, expected", [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
    ])
    def test_published_known_answers(self, raw, expected):
        assert data.fnv1a_64(raw) == expected

    def test_continues_from_a_previous_hash(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.bytes(int(rng.integers(0, 12)))
            b = rng.bytes(int(rng.integers(0, 12)))
            assert data.fnv1a_64(a + b) == data.fnv1a_64(b, data.fnv1a_64(a))

    def test_long_token_is_linear_time(self):
        # masking every byte keeps the state at 64 bits; reducing once at the
        # end gives the same value but multiplies ever longer integers
        start = time.perf_counter()
        sv = data.featurize(["a" * 50_000], dim=512)
        assert time.perf_counter() - start < 1.0
        assert sv.indices.tolist() == [data.fnv1a_64(b"a" * 50_000) % 512]


def naive_featurize(tokens, dim):
    """Independent dictionary-count oracle for unigram+bigram hashing."""
    counts = {}
    for t in tokens:
        counts[data.fnv1a_64(t.encode()) % dim] = counts.get(data.fnv1a_64(t.encode()) % dim, 0) + 1
    for a, b in zip(tokens, tokens[1:]):
        h = data.fnv1a_64((a + "\x1f" + b).encode()) % dim
        counts[h] = counts.get(h, 0) + 1
    scale = 1.0 / math.sqrt(len(tokens)) if tokens else 0.0
    return {i: c * scale for i, c in sorted(counts.items())}


class TestFeaturize:
    def test_empty(self):
        sv = data.featurize([], dim=64)
        assert sv.nnz == 0 and sv.dim == 64

    def test_repeated_token_counts(self):
        # unigram "a" twice plus the ("a","a") bigram once, scaled by 1/sqrt(2)
        sv = data.featurize(["a", "a"], dim=1024)
        expected = naive_featurize(["a", "a"], 1024)
        assert sv.nnz == 2
        got = dict(zip(sv.indices.tolist(), sv.values.tolist()))
        assert got == pytest.approx(expected)
        assert sorted(got.values()) == pytest.approx(sorted([2 / math.sqrt(2), 1 / math.sqrt(2)]))

    def test_deterministic(self):
        toks = ["x", "y", "z", "x"]
        a = data.featurize(toks, dim=256)
        b = data.featurize(toks, dim=256)
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)

    def test_matches_dictionary_oracle(self):
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(30)] + ["é", "naïve", "٣٤", "中文", "Ⅻ", "<url>"]
        for dim in (512, 2**18) * 40:
            toks = [str(t) for t in rng.choice(vocab, size=rng.integers(1, 20))]
            sv = data.featurize(toks, dim=dim)
            oracle = naive_featurize(toks, dim)
            assert sv.indices.tolist() == list(oracle)
            expected = np.array(list(oracle.values()), dtype=np.float64)
            assert sv.values.tobytes() == expected.tobytes()

    def test_indices_sorted_unique_in_range(self):
        sv = data.featurize(["a", "b", "c", "a", "b"], dim=64)
        assert np.all(np.diff(sv.indices) > 0)
        assert sv.indices.min() >= 0 and sv.indices.max() < 64
        assert np.all(sv.values != 0) and np.all(np.isfinite(sv.values))

    def test_l2_norm_identity(self):
        toks = ["a", "b", "a", "c"]
        sv = data.featurize(toks, dim=2048)
        oracle = naive_featurize(toks, 2048)
        assert np.linalg.norm(sv.values) == pytest.approx(
            math.sqrt(sum(v * v for v in oracle.values()))
        )

    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            data.featurize(["a"], dim=100)
        with pytest.raises(ConfigError):
            data.featurize(["a"], dim=1)

    def test_minimum_dim_collides_gracefully(self):
        sv = data.featurize(["a", "b", "c"], dim=2)
        assert sv.dim == 2 and sv.indices.tolist() == sorted(set(sv.indices.tolist()))
        # 3 unigrams + 2 bigrams land in 2 buckets; mass is preserved
        assert sv.values.sum() == pytest.approx(5 / math.sqrt(3))


def token_lists(seed, n, vocab, max_len=20):
    rng = np.random.default_rng(seed)
    return [[str(t) for t in rng.choice(vocab, size=rng.integers(1, max_len))] for _ in range(n)]


def assert_same_vec(a, b):
    assert a.dim == b.dim
    assert a.indices.dtype == b.indices.dtype and a.indices.tobytes() == b.indices.tobytes()
    assert a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()


class TestFeaturizeHashTable:
    """featurize with a shared hash table gives the bytes it gives without one."""

    VOCAB = [f"w{i}" for i in range(30)] + ["é", "naïve", "٣٤", "中文", "Ⅻ", "<url>", "🙂"]

    def test_matches_no_table_and_the_oracle(self):
        table = {}
        for i, toks in enumerate(token_lists(4, 80, self.VOCAB)):
            dim = (512, 2**18)[i % 2]
            got = data.featurize(toks, dim, table)
            assert_same_vec(got, data.featurize(toks, dim))
            oracle = naive_featurize(toks, dim)
            assert got.indices.tobytes() == np.array(list(oracle), dtype=np.int64).tobytes()
            assert got.values.tobytes() == np.array(list(oracle.values())).tobytes()

    def test_one_table_across_dims_and_datasets(self):
        first = token_lists(5, 40, self.VOCAB)
        second = token_lists(6, 40, self.VOCAB[::-1])
        table = {}
        for toks in first:  # prefill from one dataset at the smallest width
            data.featurize(toks, 2, table)
        filled = len(table)
        for dim in (2**k for k in range(1, 19)):
            for toks in second + first:
                assert_same_vec(data.featurize(toks, dim, table), data.featurize(toks, dim))
        assert len(table) > filled  # the second dataset added its own grams

    def test_table_holds_unmasked_hashes(self):
        table = {}
        data.featurize(["naïve", "中文", "naïve"], 64, table)
        h = {t: data.fnv1a_64(t.encode()) for t in ("naïve", "中文")}
        bigram = lambda a, b: data.fnv1a_64(f"{a}\x1f{b}".encode())
        assert table == {"naïve": h["naïve"], "中文": h["中文"],
                         (h["naïve"], "中文"): bigram("naïve", "中文"),
                         (h["中文"], "naïve"): bigram("中文", "naïve")}

    @pytest.mark.parametrize("toks", [["中文"], ["a"] * 7, ["é", "é", "🙂", "é", "é"], ["Ⅻ"]],
                             ids=["single-non-ascii", "repeated", "mixed", "single"])
    def test_edge_texts_fresh_and_prefilled(self, toks):
        prefilled = {}
        for other in token_lists(7, 10, self.VOCAB):
            data.featurize(other, 1024, prefilled)
        for table in ({}, prefilled):
            for dim in (2, 1024, 2**18):
                assert_same_vec(data.featurize(toks, dim, table), data.featurize(toks, dim))

    def test_dataset_matches_per_text_featurize(self):
        # long_docs-shaped texts: 48 coordinates, so 48 tokens and 47 bigrams each
        cfg = synth_cfg(n_source=150, n_target=150,
                        class_means_source=[[0.0] * 48, [1.0] * 48],
                        class_means_target=[[-0.5] * 48, [0.5] * 48])
        for ds in data.gen_synthetic(cfg):
            for dim in (2, 1024, 2**18):
                got = data.featurize_dataset(ds, dim)
                assert len(got) == len(ds)
                for vec, ex in zip(got, ds.examples):
                    assert_same_vec(vec, data.featurize(data.preprocess(ex.text), dim))

    def test_dataset_hashes_each_gram_once_and_keeps_nothing(self, monkeypatch):
        ds = data.Dataset([data.Example("a b a b c", 0), data.Example("b c a b", 1),
                           data.Example("c", 0)])
        calls = []
        real = data.fnv1a_64
        monkeypatch.setattr(data, "fnv1a_64", lambda raw, *h: calls.append(raw) or real(raw, *h))
        data.featurize_dataset(ds, 64)
        # 3 unigrams; 4 distinct bigrams (ab, ba, bc, ca), two hash calls each
        assert len(calls) == 3 + 2 * 4
        calls.clear()
        data.featurize_dataset(ds, 64)  # a second call starts from an empty table
        assert len(calls) == 3 + 2 * 4


def synth_cfg(**overrides):
    base = dict(
        n_source=100,
        n_target=1000,
        source_prior=0.5,
        target_prior=0.9,
        class_means_source=([-1.0, -1.0], [1.0, 1.0]),
        class_means_target=([-2.0, -2.0], [0.0, 0.0]),
        noise_scale=1.0,
        seed=7,
    )
    base.update(overrides)
    return data.SynthConfig(**base)


class TestGenSynthetic:
    def test_target_prior_within_3_sigma(self):
        # binomial 3-sigma bound for p=0.9, n=1000 is ~0.0285
        _, target = data.gen_synthetic(synth_cfg())
        assert 0.87 <= target.class_prior() <= 0.93

    def test_source_prior_within_3_sigma(self):
        # p=0.5, n=100: 3-sigma is 15 examples around 50
        source, _ = data.gen_synthetic(synth_cfg())
        ones = sum(ex.label for ex in source.examples)
        assert 35 <= ones <= 65

    def test_deterministic_byte_identical(self):
        a_src, a_tgt = data.gen_synthetic(synth_cfg())
        b_src, b_tgt = data.gen_synthetic(synth_cfg())
        assert a_src.examples == b_src.examples
        assert a_tgt.examples == b_tgt.examples

    def test_prior_converges_with_n(self):
        for n in (200, 2000):
            _, target = data.gen_synthetic(synth_cfg(n_target=n))
            bound = 3 * math.sqrt(0.9 * 0.1 / n)
            assert abs(target.class_prior() - 0.9) <= bound

    def test_tokens_flow_through_standard_path(self):
        source, _ = data.gen_synthetic(synth_cfg())
        toks = data.preprocess(source.examples[0].text)
        assert toks and all(tok.isalnum() for tok in toks)
        sv = data.featurize(toks, dim=256)
        assert sv.nnz > 0

    def test_degenerate_means_flagged(self):
        cfg = synth_cfg(class_means_source=([0.5, 0.5], [0.5, 0.5]))
        source, target = data.gen_synthetic(cfg)
        assert source.warning is not None
        assert target.warning is None

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            synth_cfg(target_prior=1.0)
        with pytest.raises(ConfigError):
            synth_cfg(n_source=0)
        with pytest.raises(ConfigError):
            synth_cfg(noise_scale=0.0)
        with pytest.raises(ConfigError):
            synth_cfg(class_means_target=([0.0], [1.0, 2.0]))
        with pytest.raises(ConfigError, match="at least one coordinate"):
            synth_cfg(class_means_source=([], []), class_means_target=([], []))

    def test_from_dict_rejects_unknown_keys(self):
        good = {
            "n_source": 10, "n_target": 10, "source_prior": 0.5, "target_prior": 0.5,
            "class_means_source": [[0.0], [1.0]], "class_means_target": [[0.0], [1.0]],
        }
        config.build(data.SynthConfig, good)
        with pytest.raises(ConfigError, match="unknown"):
            config.build(data.SynthConfig, {**good, "extra": 1})
        with pytest.raises(ConfigError, match="missing"):
            config.build(data.SynthConfig, {"n_source": 10})


class TestDataset:
    def test_class_prior_requires_full_labels(self):
        ds = data.Dataset([data.Example("a", 1), data.Example("b", None)], name="s")
        with pytest.raises(DatasetError):
            ds.class_prior()

    def test_class_prior(self):
        ds = data.Dataset([data.Example("a", 1), data.Example("b", 0)], name="s")
        assert ds.class_prior() == 0.5

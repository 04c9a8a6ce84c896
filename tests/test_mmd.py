import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from shiftadapt import mmd
from shiftadapt.mmd import (
    EmbeddingBatch,
    contrastive_grad,
    contrastive_loss,
    kernel_blocks,
)


def kernels(S, T, gamma):
    """kernel_blocks(S, T) at the fixed bandwidth gamma, in place of the median."""
    with mock.patch.object(mmd, "median_bandwidth", lambda a, b, dists: gamma):
        return kernel_blocks(S, T)


def naive_kernel(x, y, gamma):
    return math.exp(-sum((a - b) ** 2 for a, b in zip(x, y)) / gamma)


def naive_class_mmd(S, T, c1, c2, gamma):
    """Indicator-weighted double sums, one term per batch pair."""
    def term(X, xl, Y, yl, coef):
        num = den = 0.0
        for i in range(len(X)):
            for j in range(len(Y)):
                if xl[i] == c1 and yl[j] == c2:
                    num += naive_kernel(X[i], Y[j], gamma)
                    den += 1
        return None if den == 0 else coef * num / den

    parts = [
        term(S.vectors, S.labels, S.vectors, S.labels, 1.0),
        term(T.vectors, T.labels, T.vectors, T.labels, 1.0),
        term(S.vectors, S.labels, T.vectors, T.labels, -2.0),
    ]
    defined = [p for p in parts if p is not None]
    return sum(defined) if defined else None


def random_batch(rng, n, d, labels=None):
    if labels is None:
        labels = rng.integers(0, 2, n)
        # ensure both classes appear
        labels[0], labels[-1] = 0, 1
    return EmbeddingBatch(rng.normal(size=(n, d)), np.asarray(labels))


class TestMedianBandwidth:
    def test_all_identical_falls_back(self):
        b = EmbeddingBatch(np.ones((3, 2)), np.array([0, 1, 0]))
        assert kernel_blocks(b, b).gamma == 1.0

    def test_single_pair(self):
        a = EmbeddingBatch(np.array([[0.0, 0.0]]), np.array([0]))
        b = EmbeddingBatch(np.array([[2.0, 0.0]]), np.array([1]))
        assert kernel_blocks(a, b).gamma == 4.0

    def test_tiny_median_is_kept(self):
        # only a median below 1e-12 falls back; 1e-8 is a bandwidth
        a = EmbeddingBatch(np.array([[0.0, 0.0]]), np.array([0]))
        b = EmbeddingBatch(np.array([[1e-4, 0.0]]), np.array([1]))
        assert kernel_blocks(a, b).gamma == pytest.approx(1e-8, rel=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(6, 3))
        a = EmbeddingBatch(vecs[:3], np.array([0, 1, 0]))
        b = EmbeddingBatch(vecs[3:], np.array([1, 0, 1]))
        dists = sorted(
            sum((vecs[i] - vecs[j]) ** 2) for i in range(6) for j in range(i + 1, 6)
        )
        expected = np.median(dists)  # 15 pairs
        assert kernel_blocks(a, b).gamma == pytest.approx(expected, abs=1e-12)


class TestContrastiveLoss:
    def test_identical_batches(self):
        rng = np.random.default_rng(11)
        S = random_batch(rng, 8, 3)
        # intra-class terms vanish; the inter-class remainder is non-positive y
        assert contrastive_loss(S, S, kernels(S, S, 1.5)) <= 1e-12

    def test_two_cluster_geometry_value_from_oracle(self):
        # Same-class clusters coincide across domains, classes far apart.
        # Under the indicator form, D01 = k(S0,S1) + k(T0,T1) - 2 k(S0,T1)
        # and all three kernel means coincide here, so every D vanishes: the
        # naive oracle computes 0, not a negative value.
        far = 50.0
        S = EmbeddingBatch(np.array([[0.0, 0], [0, 0], [far, far], [far, far]]),
                           np.array([0, 0, 1, 1]))
        T = EmbeddingBatch(S.vectors.copy(), S.labels.copy())
        res = contrastive_loss(S, T, kernels(S, T, 1.0))
        expected = (
            naive_class_mmd(S, T, 0, 0, 1.0)
            + naive_class_mmd(S, T, 1, 1, 1.0)
            - 0.5 * (naive_class_mmd(S, T, 0, 1, 1.0) + naive_class_mmd(S, T, 1, 0, 1.0))
        )
        assert expected == pytest.approx(0.0, abs=1e-12)
        assert res == pytest.approx(expected, abs=1e-12)

    def test_loss_is_non_negative(self):
        # The indicator form factors as ||a||^2 + ||b||^2 - <a, b> over the
        # per-class mean-embedding gaps a, b, which is >= 0 for any batches.
        rng = np.random.default_rng(21)
        for _ in range(50):
            S = random_batch(rng, int(rng.integers(3, 10)), 3)
            T = random_batch(rng, int(rng.integers(3, 10)), 3)
            assert contrastive_loss(S, T, kernels(S, T, float(rng.uniform(0.3, 3.0)))) >= -1e-12

    def test_zero_iff_intra_class_embeddings_align(self):
        # coincident per-class clusters across domains minimize the loss at 0
        S = EmbeddingBatch(np.array([[0.0, 0], [5, 5]]), np.array([0, 1]))
        T = EmbeddingBatch(np.array([[0.0, 0], [5, 5]]), np.array([0, 1]))
        assert contrastive_loss(S, T, kernels(S, T, 1.0)) == pytest.approx(0.0, abs=1e-12)
        # breaking the alignment makes it strictly positive
        T2 = EmbeddingBatch(np.array([[1.0, 1], [5, 5]]), np.array([0, 1]))
        assert contrastive_loss(S, T2, kernels(S, T2, 1.0)) > 0.01

    def test_matches_class_mmd_composition(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            S = random_batch(rng, int(rng.integers(3, 10)), 4)
            T = random_batch(rng, int(rng.integers(3, 10)), 4)
            res = contrastive_loss(S, T, kernels(S, T, 2.0))
            expected = (
                naive_class_mmd(S, T, 0, 0, 2.0)
                + naive_class_mmd(S, T, 1, 1, 2.0)
                - 0.5 * (naive_class_mmd(S, T, 0, 1, 2.0) + naive_class_mmd(S, T, 1, 0, 2.0))
            )
            assert res == pytest.approx(expected, abs=1e-12)

    def test_single_class_batches_partial(self):
        S = EmbeddingBatch(np.array([[0.0, 0], [1, 1]]), np.array([1, 1]))
        T = EmbeddingBatch(np.array([[0.5, 0.5]]), np.array([1]))
        blocks = kernels(S, T, 1.0)
        res = contrastive_loss(S, T, blocks)
        assert res == pytest.approx(naive_class_mmd(S, T, 1, 1, 1.0), abs=1e-12)  # D11 alone
        assert "d00:ss" in blocks.skipped and "d01:st" in blocks.skipped


class TestContrastiveGrad:
    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n, m, d = int(rng.integers(3, 8)), int(rng.integers(3, 8)), int(rng.integers(2, 6))
            S = random_batch(rng, n, d)
            T = random_batch(rng, m, d)
            gamma = float(rng.uniform(0.5, 3.0))
            res = contrastive_grad(S, T, kernels(S, T, gamma))
            eps = 1e-5
            for arr, grad in ((S.vectors, res[:n]), (T.vectors, res[n:])):
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        orig = arr[i, j]
                        arr[i, j] = orig + eps
                        lp = contrastive_loss(S, T, kernels(S, T, gamma))
                        arr[i, j] = orig - eps
                        lm = contrastive_loss(S, T, kernels(S, T, gamma))
                        arr[i, j] = orig
                        fd = (lp - lm) / (2 * eps)
                        assert abs(fd - grad[i, j]) <= 1e-4 * max(abs(fd), 1e-6)

    def test_mirror_symmetry_antisymmetric_gradients(self):
        # batch maps to itself under negation with mirrored index pairs
        vecs = np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, -0.75], [-0.5, 0.75]])
        labels = np.array([0, 0, 1, 1])
        S = EmbeddingBatch(vecs, labels)
        T = EmbeddingBatch(vecs.copy(), labels.copy())
        res = contrastive_grad(S, T, kernels(S, T, 1.3))
        for g in (res[:4], res[4:]):
            assert np.allclose(g[1], -g[0], atol=1e-12)
            assert np.allclose(g[3], -g[2], atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(14)
        S = random_batch(rng, 7, 4)
        T = random_batch(rng, 6, 4)
        res = contrastive_grad(S, T, kernels(S, T, 2.0))
        assert res.shape == (7 + 6, 4)
        assert np.abs(res.sum(axis=0)).max() <= 1e-9

    @pytest.mark.parametrize("source_labels, target_labels", [
        pytest.param([1, 1], [1], id="single-class"),
        pytest.param([0], [1], id="one-row"),
        pytest.param([0, 1, 1, 0], [1, 1, 0], id="mixed"),
    ])
    def test_skipped_matches_loss(self, source_labels, target_labels):
        rng = np.random.default_rng(15)
        S = EmbeddingBatch(rng.normal(size=(len(source_labels), 2)), np.array(source_labels))
        T = EmbeddingBatch(rng.normal(size=(len(target_labels), 2)), np.array(target_labels))
        blocks = kernels(S, T, 1.0)
        loss = contrastive_loss(S, T, blocks)
        # The value sums only the terms the blocks do not name as skipped.
        terms = [(coef, naive_class_mmd(S, T, c1, c2, 1.0)) for c1, c2, coef in mmd._CONTRASTIVE_TERMS]
        expected = sum(coef * term for coef, term in terms if term is not None)
        assert blocks.skipped == oracle_class_pair_weights(S.labels, T.labels)[3]
        assert type(loss) is float and loss == pytest.approx(expected, abs=1e-12)
        grad = contrastive_grad(S, T, blocks)
        assert grad.shape == (len(S.labels) + len(T.labels), 2) and np.all(np.isfinite(grad))


class TestEmbeddingBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.zeros((0, 2)), np.array([]))
        with pytest.raises(ValueError):
            EmbeddingBatch(np.zeros((2, 2)), np.array([0]))
        with pytest.raises(ValueError):
            EmbeddingBatch(np.array([[np.inf, 0]]), np.array([0]))
        with pytest.raises(ValueError):
            EmbeddingBatch(np.zeros((1, 2)), np.array([2]))


# Oracles: the whole-array forms that the blocked helpers replaced.
def oracle_sq_dists(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def oracle_sq_dists_by_rows(a, b, rows=16):
    """oracle_sq_dists a few rows of a at a time: the same per-row einsum, so
    the same bits, without the whole (n, m, d) difference."""
    return np.vstack([oracle_sq_dists(a[i:i + rows], b) for i in range(0, len(a), rows)]
                     + [np.empty((0, len(b)))])


def oracle_median_bandwidth(batch_a, batch_b):
    stacked = np.vstack([batch_a.vectors, batch_b.vectors])
    d2 = oracle_sq_dists_by_rows(stacked, stacked)
    med = float(np.median(d2[np.triu_indices(stacked.shape[0], k=1)]))
    return med if med >= 1e-12 else 1.0


def oracle_class_pair_weights(sl, tl):
    w_ss = np.zeros((sl.size, sl.size))
    w_tt = np.zeros((tl.size, tl.size))
    w_st = np.zeros((sl.size, tl.size))
    skipped = []
    for c1, c2, coef in mmd._CONTRASTIVE_TERMS:
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
    return w_ss, w_tt, w_st, tuple(skipped)


def oracle_loss_and_grad(S, T, gamma):
    """(value, grad_source, grad_target, skipped) as computed before the shared
    pass: whole-array kernels exp(-d / gamma), and the old formulas."""
    s, t = S.vectors, T.vectors
    w_ss, w_tt, w_st, skipped = oracle_class_pair_weights(S.labels, T.labels)
    k_ss, k_tt, k_st = (np.exp(-oracle_sq_dists_by_rows(a, b) / gamma)
                        for a, b in ((s, s), (t, t), (s, t)))
    value = (w_ss * k_ss).sum() + (w_tt * k_tt).sum() + (w_st * k_st).sum()
    scale = -2.0 / gamma
    c_ss = scale * (w_ss + w_ss.T) * k_ss
    grad_s = c_ss.sum(axis=1, keepdims=True) * s - c_ss @ s
    c_tt = scale * (w_tt + w_tt.T) * k_tt
    grad_t = c_tt.sum(axis=1, keepdims=True) * t - c_tt @ t
    c_st = scale * w_st * k_st
    grad_s += c_st.sum(axis=1, keepdims=True) * s - c_st @ t
    grad_t += c_st.sum(axis=0)[:, None] * t - c_st.T @ s
    return float(value), grad_s, grad_t, tuple(skipped)


SIZES = (1, 2, 7, 24, 193, 400)
DIMS = (1, 8, 32, 65)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def label_cases(rng, n, m):
    """Mixed labels, a single-class source and a single-class target."""
    return [
        (rng.integers(0, 2, n), rng.integers(0, 2, m)),
        (np.zeros(n, np.int64), rng.integers(0, 2, m)),
        (rng.integers(0, 2, n), np.ones(m, np.int64)),
    ]


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedEqualsWholeArray:
    """The blocked distances and the shared pass keep every bit of the
    whole-array forms."""

    @pytest.mark.parametrize("d", DIMS)
    def test_sq_dists(self, d):
        rng = np.random.default_rng(d)
        for n in SIZES:
            for m in SIZES:
                a, b = rng.normal(size=(n, d)), rng.normal(size=(m, d))
                assert same_bits(mmd._sq_dists(a, b), oracle_sq_dists(a, b)), (n, m, d)

    @pytest.mark.parametrize("d", DIMS)
    def test_median_bandwidth(self, d):
        rng = np.random.default_rng(100 + d)
        for n in SIZES:
            for m in SIZES:
                a = EmbeddingBatch(rng.normal(size=(n, d)), rng.integers(0, 2, n))
                b = EmbeddingBatch(rng.normal(size=(m, d)), rng.integers(0, 2, m))
                blocks = kernel_blocks(a, b)
                s, t = a.vectors, b.vectors
                oracle = []
                peak = traced_peak(lambda: oracle.extend((
                    oracle_median_bandwidth(a, b),
                    (oracle_sq_dists_by_rows(s, s), oracle_sq_dists_by_rows(t, t),
                     oracle_sq_dists_by_rows(s, t)))))
                want_gamma, want = oracle
                assert same_bits(blocks.gamma, want_gamma), (n, m, d)
                # The bandwidth leaves the shared distances for the kernels.
                kernels_want = (np.exp(-w / want_gamma) for w in want)
                assert all(same_bits(g, w) for g, w in zip(blocks[1:4], kernels_want)), (n, m, d)
                # at 400 + 400 rows and d = 65 the whole-array oracle took 323 MiB
                assert peak < 64 * 2 ** 20, (n, m, d, peak)

    def test_class_pair_weights(self):
        rng = np.random.default_rng(3)
        for n in SIZES:
            for m in SIZES:
                for sl, tl in label_cases(rng, n, m):
                    got = mmd._class_pair_weights(sl, tl)
                    want = oracle_class_pair_weights(sl, tl)
                    assert got[3] == want[3], (n, m)
                    assert all(same_bits(g, w) for g, w in zip(got[:3], want[:3])), (n, m)

    @pytest.mark.parametrize("d", DIMS)
    def test_loss_and_grad(self, d):
        # The shared pass: kernels made in place from one set of distances,
        # and weights, that the value and the gradient share.
        rng = np.random.default_rng(200 + d)
        for k, (n, m) in enumerate((n, m) for n in SIZES for m in SIZES):
            sl, tl = label_cases(rng, n, m)[k % 3]  # each labelling on a third of the shapes
            S = EmbeddingBatch(rng.normal(size=(n, d)), sl)
            T = EmbeddingBatch(rng.normal(size=(m, d)), tl)
            gamma = float(rng.uniform(0.5, 2.0)) * d
            blocks = kernels(S, T, gamma)
            loss, grad = contrastive_loss(S, T, blocks), contrastive_grad(S, T, blocks)
            value, grad_s, grad_t, skipped = oracle_loss_and_grad(S, T, gamma)
            shape = (n, m, d)
            assert same_bits(loss, value), shape
            assert blocks.skipped == skipped, shape
            assert same_bits(grad, np.vstack([grad_s, grad_t])), shape

    @pytest.mark.parametrize("d", (32, 256))
    def test_bandwidth_peak_memory_does_not_grow_with_width(self, d):
        # The whole-array form held an (n + m)^2 * d difference, at
        # d = 32 here (369 MB). The blocked form holds the three distance
        # blocks, then the pairs the median reads or the kernels' weights,
        # and one block of differences.
        rng = np.random.default_rng(d)
        a = EmbeddingBatch(rng.normal(size=(600, d)), rng.integers(0, 2, 600))
        b = EmbeddingBatch(rng.normal(size=(600, d)), rng.integers(0, 2, 600))
        peak = traced_peak(lambda: kernel_blocks(a, b))
        assert peak < 2 * 1200 ** 2 * 8

    def test_shared_pass_peak_memory(self):
        # One iteration's whole pass: distances, bandwidth, kernels and
        # weights, value and gradient. Three separate calls peaked at 2.32
        # (n + m)^2 floats, when each built its own kernels and weights.
        rng = np.random.default_rng(5)
        a = EmbeddingBatch(rng.normal(size=(600, 32)), rng.integers(0, 2, 600))
        b = EmbeddingBatch(rng.normal(size=(600, 32)), rng.integers(0, 2, 600))

        def one_pass():
            blocks = kernel_blocks(a, b)
            contrastive_loss(a, b, blocks)
            contrastive_grad(a, b, blocks)

        assert traced_peak(one_pass) < 2.4 * 1200 ** 2 * 8

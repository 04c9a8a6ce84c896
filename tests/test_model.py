import copy
import json
import math

import numpy as np
import pytest

from shiftadapt import adapt, cli, correction, data, model
from shiftadapt.errors import AdaptationError, ConfigError, DatasetError
from conftest import ba_on, dense, make_scenario, oracle_embed, same_params
from test_mmd import traced_peak


def toy_vec(dim=64, pairs=((3, 1.0), (17, -0.5))):
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    val = np.array([p[1] for p in pairs], dtype=np.float64)
    return data.SparseVec(idx, val, dim)


def dense_init(hash_dim, d_embed, d_hidden, seed):
    return dense(model.init(hash_dim, d_embed, d_hidden, seed))


class TestInit:
    def test_deterministic(self):
        a = model.init(128, 8, 4, seed=9)
        b = model.init(128, 8, 4, seed=9)
        assert same_params(a, b)

    def test_biases_zero(self):
        p = model.init(64, 16, 8, seed=0)
        assert np.all(p.hidden_b == 0.0) and p.hidden_b.shape == (8,)
        assert np.all(p.out_b == 0.0)

    def test_uniform_bound_on_out_w(self):
        p = dense_init(64, 16, 9, seed=1)
        assert np.abs(p.out_w).max() <= 1.0 / math.sqrt(9)
        assert np.abs(p.hidden_w).max() <= 1.0 / math.sqrt(16)
        assert np.abs(p.embed).max() <= 1.0 / math.sqrt(64)

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            model.init(0, 4, 4, seed=0)
        with pytest.raises(ConfigError):
            model.init(64, 4, 4, seed=-1)
        with pytest.raises(ConfigError, match="hash_dim must be a power of two"):
            model.init(1000, 4, 4, seed=0)
        # 2^40 is safe to test: without the bound numpy refuses it at once
        for dims in ((64, 2 ** 40, 4), (64, 4, 2 ** 40), (64, 4, 0)):
            with pytest.raises(ConfigError, match="must be an integer from 1 to 4096"):
                model.init(*dims, seed=0)

    @pytest.mark.parametrize("shape", [(64, 8, 4, 0), (4096, 32, 32, 3), (1024, 7, 5, 12345)])
    def test_holds_no_row_and_draws_the_dense_blocks_after_the_table(self, shape):
        hash_dim, d_embed, d_hidden, seed = shape
        m = model.init(*shape)
        assert (m.hash_dim, m.seed, m.rows.dtype, m.embed.shape) == (
            hash_dim, seed, np.int64, (0, d_embed))
        rng = np.random.default_rng(seed)
        rng.uniform(size=(hash_dim, d_embed))  # the table's draws
        hidden_w = rng.uniform(-1 / np.sqrt(d_embed), 1 / np.sqrt(d_embed), size=(d_embed, d_hidden))
        out_w = rng.uniform(-1 / np.sqrt(d_hidden), 1 / np.sqrt(d_hidden), size=(d_hidden, 2))
        assert np.array_equal(m.hidden_w, hidden_w) and np.array_equal(m.out_w, out_w)

    def test_wide_init_holds_no_table(self):
        # The whole (2^18, 32) table is 64 MiB.
        assert traced_peak(lambda: model.init(2 ** 18, 32, 32, 0)) < 4 * 2 ** 20


class TestInitRows:
    """_init_rows redraws rows of init's table bit for bit."""

    @pytest.mark.parametrize("hash_dim, d_embed, seed", [
        (1, 1, 0), (64, 8, 0), (1000, 7, 3), (4096, 32, 11), (2 ** 18, 32, 0)])
    def test_rows_equal_the_whole_draw(self, hash_dim, d_embed, seed):
        table = oracle_embed(seed, hash_dim, d_embed)
        gap = model._RUN_GAP
        rng = np.random.default_rng(hash_dim)
        cases = [
            [], [0], [hash_dim - 1], [0, hash_dim - 1], list(range(min(hash_dim, 300))),
            # consecutive rows gap and gap + 1 apart: one run, then two
            [0, gap, 2 * gap + 1], [5, 5 + gap + 1, 5 + 2 * gap + 1],
            sorted(rng.choice(hash_dim, size=min(hash_dim, 200), replace=False)),
        ]
        if hash_dim <= 4096:
            cases.append(range(hash_dim))  # every row
        for case in cases:
            rows = np.unique(np.asarray(case, np.int64))
            rows = rows[rows < hash_dim]
            got = model._init_rows(seed, hash_dim, d_embed, rows)
            assert got.shape == (rows.size, d_embed)
            assert np.array_equal(got.view(np.int64), table[rows].view(np.int64)), case


class TestForward:
    def test_zero_input(self):
        p = dense_init(64, 8, 4, seed=0)
        p.hidden_b[:] = np.linspace(-1, 1, 4)
        empty = data.SparseVec(np.empty(0, np.int64), np.empty(0, np.float64), 64)
        rec = model.forward(p, [empty, empty])
        assert np.array_equal(rec.phi, np.tile(np.tanh(p.hidden_b), (2, 1)))
        assert np.array_equal(rec.logits, rec.phi @ p.out_w + p.out_b)

    def test_doubling_input_doubles_preactivation_when_bias_zero(self):
        p = dense_init(64, 8, 4, seed=0)  # hidden_b is zero at init
        x = toy_vec()
        x2 = data.SparseVec(x.indices, 2.0 * x.values, x.dim)
        r1, r2 = model.forward(p, [x, x]), model.forward(p, [x2, x2])
        assert np.array_equal(r2.embedded, 2.0 * r1.embedded)
        assert np.array_equal(r2.phi, np.tanh(2.0 * (r1.embedded @ p.hidden_w)))

    def test_deterministic(self):
        p = dense_init(64, 8, 4, seed=0)
        x = toy_vec()
        a, b = model.forward(p, [x]), model.forward(p, [x])
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.logits, b.logits)

    def test_batch_matches_dense_reference(self):
        p = dense_init(64, 8, 4, seed=0)
        feats = [toy_vec(), toy_vec(pairs=((5, 2.0),)), toy_vec(pairs=((3, 0.5), (63, 1.5)))]
        rec = model.forward(p, feats)
        dense = np.zeros((len(feats), 64))
        for row, x in zip(dense, feats):
            row[x.indices] = x.values
        phi = np.tanh(dense @ p.embed @ p.hidden_w + p.hidden_b)
        assert rec.embedded.shape == (3, 8)
        # the summation order differs from the reference's: a float64 rounding tolerance
        assert np.allclose(rec.phi, phi, rtol=0, atol=1e-14)
        assert np.allclose(rec.logits, phi @ p.out_w + p.out_b, rtol=0, atol=1e-14)
        assert model.forward(p, []).logits.shape == (0, 2)

    def test_dim_mismatch(self):
        p = dense_init(64, 8, 4, seed=0)
        with pytest.raises(ValueError):
            model.forward(p, [toy_vec(), toy_vec(dim=128)])

    def test_overflowing_preactivation_raises(self):
        # tanh would map the overflowed pre-activation to a finite phi
        p = dense_init(64, 8, 4, seed=0)
        p.embed[3] = 1e300
        p.hidden_w[:] = 1e300
        with pytest.raises(FloatingPointError, match="pre-activation"):
            model.forward(p, [toy_vec()])


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(model.softmax(np.zeros(2)), np.array([0.5, 0.5]))

    def test_saturation(self):
        probs = model.softmax(np.array([1000.0, 0.0]))
        assert probs[0] > 1 - 1e-12

    def test_closed_form(self):
        probs = model.softmax(np.array([math.log(3), 0.0]))
        assert probs == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            probs = model.softmax(rng.normal(scale=50, size=2))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs > 0)

    def test_logits_wider_apart_than_the_float_range(self):
        # the max-shift overflows to -inf: no warning, and exp(-inf) = 0
        probs = model.softmax(np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]))
        assert np.array_equal(probs, [[1.0, 0.0], [0.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            model.softmax(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            model.softmax(np.array([np.inf, 0.0]))


def nll(logits, label):
    """The NLL term nll_head gives one logits row with unit weight."""
    terms, _ = model.nll_head(np.array([logits], dtype=float), [label], 1.0)
    return float(terms[0])


class TestNll:
    def test_symmetric(self):
        assert nll([0.0, 0.0], 1) == pytest.approx(math.log(2))

    def test_confident_correct(self):
        assert nll([30.0, 0.0], 0) == pytest.approx(0.0, abs=1e-11)

    def test_hand_value(self):
        assert nll([0.0, math.log(3)], 0) == pytest.approx(math.log(4))

    def test_floor(self):
        assert nll([-1000.0, 1000.0], 0) == pytest.approx(-math.log(1e-12))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            nll([0.0, 0.0], 2)


def nll_batch_loss(params, feats, labels):
    terms, _ = model.nll_head(model.forward(params, feats).logits, labels, 1.0)
    return float(terms.sum())


def nll_batch_grads(params, feats, labels):
    rec = model.forward(params, feats)
    _, grad_logits = model.nll_head(rec.logits, labels, 1.0)
    return rec, grad_logits


class TestBackward:
    def setup_method(self):
        self.params = dense_init(64, 5, 4, seed=3)
        texts = ["a b c", "b c d", "x y", "a d x"]
        self.feats = [data.featurize(data.preprocess(t), 64) for t in texts]
        self.labels = [0, 1, 1, 0]

    def test_zero_upstream_gives_zero_gradients(self):
        rec, gls = nll_batch_grads(self.params, self.feats, self.labels)
        grads = model.backward(self.params, rec, np.zeros_like(gls))
        assert all(np.all(g == 0.0) for g in grads.blocks())

    def test_finite_difference(self):
        rec, gls = nll_batch_grads(self.params, self.feats, self.labels)
        grads = model.backward(self.params, rec, gls)
        eps = 1e-5
        for name in model.PARAM_BLOCKS:
            arr = getattr(self.params, name)
            g = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                if name == "embed" and g[idx] == 0.0:
                    continue  # hash rows not touched by any input
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = nll_batch_loss(self.params, self.feats, self.labels)
                arr[idx] = orig - eps
                lm = nll_batch_loss(self.params, self.feats, self.labels)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - g[idx]) <= 1e-4 * max(abs(fd), 1e-6)

    def test_batch_gradient_is_sum_of_per_example(self):
        rec, gls = nll_batch_grads(self.params, self.feats, self.labels)
        whole = model.backward(self.params, rec, gls)
        parts = [
            model.backward(self.params, model.forward(self.params, [f]), g[None])
            for f, g in zip(self.feats, gls)
        ]
        for name in model.PARAM_BLOCKS:
            summed = sum(getattr(p, name) for p in parts)
            assert np.allclose(getattr(whole, name), summed, atol=1e-15)

    def test_grad_phi_path(self):
        # upstream gradient at phi only; finite-difference the induced scalar
        rec, gls = nll_batch_grads(self.params, self.feats, self.labels)
        gps = np.random.default_rng(0).normal(size=rec.phi.shape)
        grads = model.backward(self.params, rec, np.zeros_like(gls), gps)

        def scalar(params):
            return float(np.sum(gps * model.forward(params, self.feats).phi))

        eps = 1e-6
        arr = self.params.hidden_w
        g = grads.hidden_w
        for idx in ((0, 0), (2, 3), (4, 1)):
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = scalar(self.params)
            arr[idx] = orig - eps
            lm = scalar(self.params)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - g[idx]) <= 1e-4 * max(abs(fd), 1e-6)

    def test_shape_mismatch(self):
        rec, gls = nll_batch_grads(self.params, self.feats, self.labels)
        with pytest.raises(ValueError):
            model.backward(self.params, rec, gls[:-1])
        with pytest.raises(ValueError):
            model.backward(self.params, rec, np.zeros((len(gls), 3)))
        with pytest.raises(ValueError):
            model.backward(self.params, rec, gls, np.zeros((len(gls), 5)))


class TestOptimizer:
    def test_adam_first_step(self):
        """From zero moments, one step moves each entry by lr * g / (|g| + eps);
        an entry whose gradient is zero stays bit-identical."""
        p = dense_init(16, 4, 4, seed=0)
        before = p.copy()
        g = model._zeros_like(p)
        g.out_b[:] = [1.0, -2.0]
        g.embed[3] = np.linspace(-1e-3, 1e-3, 4)
        model.Optimizer(0.1, p).step(p, g)
        for name in ("out_b", "embed"):
            gb = getattr(g, name)
            want = getattr(before, name) - 0.1 * gb / (np.abs(gb) + model.ADAM_EPS)
            assert np.allclose(getattr(p, name), want, rtol=0, atol=1e-15)
        untouched = g.embed == 0
        assert untouched.sum() == 15 * 4
        assert np.array_equal(p.embed[untouched], before.embed[untouched])
        for name in ("hidden_w", "hidden_b", "out_w"):
            assert np.array_equal(getattr(p, name), getattr(before, name))

    def test_adam_epsilon(self):
        # |m/c1| = sqrt(v/c2) = |g| after one step, so g = 1e-8 = eps moves p by lr/2
        p = dense_init(16, 4, 4, seed=0)
        before = p.out_b.copy()
        g = model._zeros_like(p)
        g.out_b[:] = 1e-8
        model.Optimizer(0.1, p).step(p, g)
        assert np.allclose(before - p.out_b, 0.05, rtol=1e-9, atol=0)

    def test_adam_deterministic(self):
        def run():
            p = dense_init(16, 4, 4, seed=0)
            opt = model.Optimizer(1e-3, p)
            rng = np.random.default_rng(4)
            for _ in range(5):
                g = model._zeros_like(p)
                g.out_w += rng.normal(size=g.out_w.shape)
                opt.step(p, g)
            return p

        assert same_params(run(), run())

    def test_in_place_step_matches_formula(self):
        """30 steps on 30%-sparse gradients equal the allocating formula bit for bit."""
        p = dense_init(64, 8, 4, seed=0)
        ref = p.copy()
        m, v = model._zeros_like(p), model._zeros_like(p)
        opt = model.Optimizer(1e-2, p)
        rng = np.random.default_rng(9)
        for t in range(1, 31):
            g = model._zeros_like(p)
            for b in g.blocks():
                b += rng.normal(size=b.shape) * (rng.random(b.shape) < 0.3)
            opt.step(p, g)
            c1, c2 = 1.0 - model.ADAM_BETA1 ** t, 1.0 - model.ADAM_BETA2 ** t
            for pb, gb, mb, vb in zip(ref.blocks(), g.blocks(), m.blocks(), v.blocks()):
                mb *= model.ADAM_BETA1
                mb += (1.0 - model.ADAM_BETA1) * gb
                vb *= model.ADAM_BETA2
                vb += (1.0 - model.ADAM_BETA2) * gb * gb
                pb -= 1e-2 * (mb / c1) / (np.sqrt(vb / c2) + model.ADAM_EPS)
        for got, want in zip((*p.blocks(), *opt.m.blocks(), *opt.v.blocks()),
                             (*ref.blocks(), *m.blocks(), *v.blocks())):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_second_moment_overflow_raises(self):
        p = dense_init(16, 4, 4, seed=0)
        g = model._zeros_like(p)
        g.hidden_w[0, 0] = 1e300
        with pytest.raises(FloatingPointError, match="second moment of hidden_w"):
            model.Optimizer(1e-3, p).step(p, g)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_gradient_raises(self, bad):
        # v is never negative, so the guard reads only its max: a NaN or
        # infinite gradient must still reach it
        p = dense_init(16, 4, 4, seed=0)
        g = model._zeros_like(p)
        g.out_b[1] = bad
        before = p.out_b.copy()
        with pytest.raises(FloatingPointError, match="second moment of out_b"):
            model.Optimizer(1e-3, p).step(p, g)
        assert np.array_equal(p.out_b, before)


def unread_rows(m, *datasets):
    """The embedding rows that no featurized example of datasets reads."""
    mask = np.ones(m.hash_dim, dtype=bool)
    for ds in datasets:
        for x in data.featurize_dataset(ds, m.hash_dim):
            mask[x.indices] = False
    return np.flatnonzero(mask)


def init_values_of_unheld(m, rows):
    """rows are not held by m, and compact gives them init's values."""
    assert not np.isin(rows, m.rows).any()
    small, _ = model.compact(m, [data.SparseVec(rows, np.ones(rows.size), m.hash_dim)])
    assert np.array_equal(small.rows, np.union1d(m.rows, rows))
    got = small.embed[np.searchsorted(small.rows, rows)]
    return np.array_equal(got, oracle_embed(m.seed, m.hash_dim, m.d_embed)[rows])


class TestCompact:
    def test_steps_on_compact_rows_match_full_steps_bit_for_bit(self):
        rng = np.random.default_rng(7)
        m = held_model(64, 4, 5, seed=1)  # rows 3, 17 and 63 held off init's values
        full = dense(m)
        read = rng.choice(64, size=20, replace=False)
        feats = []
        for _ in range(12):
            idx = np.sort(rng.choice(read, size=rng.integers(0, 6), replace=False))
            feats.append(data.SparseVec(idx.astype(np.int64), rng.normal(size=idx.size), 64))
        small, (small_feats,) = model.compact(m, feats)
        rows = small.rows
        read = np.unique(np.concatenate([x.indices for x in feats]))
        assert np.array_equal(rows, np.union1d(m.rows, read)) and np.setdiff1d(m.rows, read).size
        for x, y in zip(feats, small_feats):
            assert np.array_equal(rows[y.indices], x.indices) and y.values is x.values
            assert y.dim == rows.size
        start = full.copy()
        opt_full, opt_small = model.Optimizer(0.05, full), model.Optimizer(0.05, small)
        for _ in range(6):
            batch = rng.choice(len(feats), size=5, replace=False)
            gl, gp = rng.normal(size=(5, 2)), rng.normal(size=(5, 5))
            for params, opt, fs in ((full, opt_full, feats), (small, opt_small, small_feats)):
                rec = model.forward(params, [fs[i] for i in batch])
                opt.step(params, model.backward(params, rec, gl, gp))
        # the trained compact model is the result: unread held rows kept their bits
        assert same_params(small, full)
        assert init_values_of_unheld(small, np.setdiff1d(np.arange(64), rows))
        assert not np.array_equal(small.embed, start.embed[rows])

    def test_compact_takes_held_rows_from_the_table(self):
        m = model.init(64, 4, 5, seed=1)
        held, _ = model.compact(m, [toy_vec()])
        held.embed += 1.0
        again, _ = model.compact(held, [toy_vec(pairs=((3, 1.0), (40, 1.0)))])
        # row 17 stays held though unread, and row 40 joins at init's value
        assert again.rows.tolist() == [3, 17, 40]
        assert np.array_equal(again.embed[:2], dense(m).embed[[3, 17]] + 1.0)
        assert np.array_equal(again.embed[2], dense(m).embed[40])

    def test_compact_holds_the_input_rows_bit_for_bit(self):
        m = held_model()  # rows 3, 17 and 127 of 128
        feats = [toy_vec(128, ((5, 1.0), (17, 2.0))), toy_vec(128, ((40, 1.0),))]
        small, (small_feats,) = model.compact(m, feats)
        assert np.array_equal(small.rows, np.union1d(m.rows, [5, 17, 40]))
        held = np.searchsorted(small.rows, m.rows)
        assert np.array_equal(small.embed[held].view(np.int64), m.embed.view(np.int64))
        assert same_params(small, m)
        assert [small.rows[y.indices].tolist() for y in small_feats] == [[5, 17], [40]]

    def test_compact_leaves_its_input_alone(self):
        m = held_model(64, 4, 5, seed=1)
        before = copy.deepcopy(m)
        small, _ = model.compact(m, [toy_vec()], [toy_vec(pairs=((40, 1.0),))])
        assert small.rows.tolist() == [3, 17, 40, 63]
        for block in small.blocks():
            block += 1.0
        small.rows += 1
        assert same_params(m, before) and np.array_equal(m.rows, before.rows)
        with pytest.raises(ValueError):
            model.compact(m, [toy_vec(dim=128)])

    def test_predict_labels_equals_forward_on_the_dense_table(self, small_pretrained):
        m = small_pretrained["params"]
        feats = data.featurize_dataset(small_pretrained["pool"], m.hash_dim)
        logits = model.forward(dense(m), feats).logits
        small, (small_feats,) = model.compact(m, feats)
        assert np.array_equal(model.forward(small, small_feats).logits.view(np.int64),
                              logits.view(np.int64))
        want = np.argmax(model.softmax(logits), axis=1).tolist()
        assert correction.predict_labels(m, feats) == want

    def test_pretrain_returns_unread_rows_unchanged(self):
        # An unread row is not held, and compact gives it init's value.
        source, _, _ = make_scenario(seed=12, n_source=120)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        m = model.init(4096, 8, 8, seed=1)
        before = copy.deepcopy(m)
        out = model.pretrain(m, train, val, model.TrainConfig(max_epochs=2, seed=5))
        unread = unread_rows(m, train, val)
        assert 0 < unread.size < m.hash_dim
        assert np.array_equal(out.rows, np.setdiff1d(np.arange(m.hash_dim), unread))
        assert init_values_of_unheld(out, unread)
        assert not np.array_equal(out.embed, dense(m).embed[out.rows])
        assert same_params(m, before) and m.rows.size == 0

    @pytest.mark.parametrize("learning_rate", [1e-3, 1e-12])
    def test_run_adaptation_returns_unread_rows_unchanged(self, small_pretrained, learning_rate):
        p = small_pretrained
        m, before = p["params"], copy.deepcopy(p["params"])
        cfg = adapt.AdaptConfig(epochs=2, seed=0, learning_rate=learning_rate)
        out, trace = adapt.run_adaptation(m, p["train"], p["pool"], p["calib"], cfg)
        # the input's rows, and the rows source, target and calib read
        read = np.setdiff1d(np.arange(m.hash_dim), unread_rows(m, p["train"], p["pool"], p["calib"]))
        assert np.array_equal(out.rows, np.union1d(m.rows, read))
        # rows the input holds that no input reads (validation-only) keep their bits
        kept = np.setdiff1d(m.rows, read)
        assert kept.size > 0 and np.array_equal(
            out.embed[np.searchsorted(out.rows, kept)], m.embed[np.searchsorted(m.rows, kept)])
        unheld = np.setdiff1d(np.arange(m.hash_dim), out.rows)
        assert unheld.size > 0 and init_values_of_unheld(out, unheld)
        assert same_params(m, before) and np.array_equal(m.rows, before.rows)
        if learning_rate == 1e-12:  # no prediction moves, so no epoch beats the input
            assert trace.best_epoch == 0 and same_params(out, m)
        else:
            assert trace.best_epoch > 0 and not same_params(out, m)


class TestPretrain:
    def test_separable_source_reaches_high_ba(self):
        source, _, _ = make_scenario(seed=11, n_source=500, shift=0.0)
        train, val, test = data.split(source, (0.7, 0.1, 0.2), seed=0)
        params = model.init(1024, 16, 16, seed=0)
        trained = model.pretrain(params, train, val, model.TrainConfig(max_epochs=5, seed=0))
        assert ba_on(trained, val) >= 0.95

    def test_zero_epochs_returns_initial(self):
        source, _, _ = make_scenario(seed=11, n_source=60)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        params = model.init(256, 8, 8, seed=0)
        out = model.pretrain(params, train, val, model.TrainConfig(max_epochs=0, seed=0))
        assert same_params(out, params)

    def test_deterministic(self):
        source, _, _ = make_scenario(seed=12, n_source=120)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        runs = [
            model.pretrain(
                model.init(256, 8, 8, seed=1), train, val,
                model.TrainConfig(max_epochs=2, seed=5),
            )
            for _ in range(2)
        ]
        assert same_params(runs[0], runs[1])

    def test_never_worse_than_any_epoch_prefix(self):
        # best-over-prefix is monotone in the number of epochs under a fixed seed
        source, _, _ = make_scenario(seed=13, n_source=150)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        init_params = model.init(256, 8, 8, seed=2)
        bas = []
        for epochs in range(4):
            out = model.pretrain(
                init_params, train, val, model.TrainConfig(max_epochs=epochs, seed=3)
            )
            bas.append(ba_on(out, val))
        assert all(b >= a - 1e-12 for a, b in zip(bas, bas[1:]))

    def test_requires_labels_and_data(self):
        source, pool, _ = make_scenario(seed=11, n_source=60)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        params = model.init(256, 8, 8, seed=0)
        with pytest.raises(DatasetError, match="^dataset 'e' is empty$"):
            model.pretrain(
                params, data.Dataset([], name="e"), val, model.TrainConfig()
            )
        unlabeled = data.Dataset([data.Example("a b", None)], name="u")
        with pytest.raises(DatasetError):
            model.pretrain(params, unlabeled, val, model.TrainConfig())

    def test_divergence_names_the_epoch(self):
        source, _, _ = make_scenario(seed=11, n_source=60)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        with pytest.raises(AdaptationError, match="pretraining diverged in epoch 1: "):
            model.pretrain(model.init(256, 8, 8, seed=0), train, val,
                           model.TrainConfig(learning_rate=1e300, max_epochs=2))

    def test_empty_validation_split_rejected(self):
        # With no validation example no epoch could beat the input model, so
        # pretraining would silently return it untrained.
        source, _, _ = make_scenario(seed=11, n_source=9)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        assert len(val) == 0
        with pytest.raises(DatasetError, match="^dataset 'synthetic-source/val' is empty$"):
            model.pretrain(model.init(256, 8, 8, seed=0), train, val,
                           model.TrainConfig(max_epochs=20))


def scripted_ba(monkeypatch, module, scores):
    """Make module.logits_ba return scores in turn, raising any exception among them."""
    script = iter(scores)

    def fake(logits, labels):
        score = next(script)
        if isinstance(score, Exception):
            raise score
        return score

    monkeypatch.setattr(module, "logits_ba", fake)


def run_stage(stage, fixture, epochs):
    """The model a stage returns after `epochs` epochs, and the epoch it reports."""
    if stage == "pretraining":
        return model.pretrain(model.init(256, 8, 8, seed=0), fixture["train"], fixture["val"],
                              model.TrainConfig(max_epochs=epochs, seed=0)), None
    out, trace = adapt.run_adaptation(
        fixture["params"], fixture["train"], fixture["pool"], fixture["calib"],
        adapt.AdaptConfig(epochs=epochs, batch_size=8, iterations_per_epoch=2, seed=0))
    return out, trace.best_epoch


STAGE_MODULES = {"pretraining": model, "adaptation": adapt}


@pytest.mark.parametrize("stage", sorted(STAGE_MODULES))
class TestBestEpoch:
    """model._best_epoch, the snapshot loop both stages share, seen through each stage."""

    def test_divergence_in_epoch_2_names_epoch_2(self, monkeypatch, small_pretrained, stage):
        scripted_ba(monkeypatch, STAGE_MODULES[stage], [0.5, 0.6, FloatingPointError("boom")])
        with pytest.raises(AdaptationError, match=f"^{stage} diverged in epoch 2: boom$"):
            run_stage(stage, small_pretrained, epochs=3)

    def test_epoch_0_overflow_stays_bare(self, monkeypatch, small_pretrained, stage):
        scripted_ba(monkeypatch, STAGE_MODULES[stage], [FloatingPointError("boom")])
        with pytest.raises(FloatingPointError, match="^boom$"):
            run_stage(stage, small_pretrained, epochs=2)

    def test_tie_keeps_the_earlier_epoch(self, monkeypatch, small_pretrained, stage):
        scripted_ba(monkeypatch, STAGE_MODULES[stage], [0.5, 0.7])
        first, _ = run_stage(stage, small_pretrained, epochs=1)
        scripted_ba(monkeypatch, STAGE_MODULES[stage], [0.5, 0.7, 0.7])
        kept, epoch = run_stage(stage, small_pretrained, epochs=2)
        assert same_params(kept, first) and epoch in (None, 1)
        scripted_ba(monkeypatch, STAGE_MODULES[stage], [0.5, 0.5])
        unchanged, epoch = run_stage(stage, small_pretrained, epochs=1)
        assert epoch in (None, 0)
        if stage == "pretraining":
            assert same_params(unchanged, model.init(256, 8, 8, seed=0))
        else:
            assert same_params(unchanged, small_pretrained["params"])


def held_model(hash_dim=128, d_embed=8, d_hidden=4, seed=7):
    """A model that holds three rows, among them the last, moved off init's values."""
    m = model.init(hash_dim, d_embed, d_hidden, seed)
    held, _ = model.compact(m, [toy_vec(hash_dim, ((3, 1.0), (17, -0.5), (hash_dim - 1, 2.0)))])
    for block in held.blocks():
        block += 0.25
    return held


def write_meta(arrays, meta):
    text = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
    arrays["meta"] = np.frombuffer(text, dtype=np.uint8)


def set_rows(a, meta, rows):
    a["rows"] = np.asarray(rows, dtype=np.int64)


# Each case breaks a version-2 file of held_model(): arrays and meta in place.
MALFORMED = {
    "unsorted rows": lambda a, meta: set_rows(a, meta, [17, 3, 127]),
    "duplicate rows": lambda a, meta: set_rows(a, meta, [3, 3, 127]),
    "a row at hash_dim": lambda a, meta: set_rows(a, meta, [3, 17, 128]),
    "a negative row": lambda a, meta: set_rows(a, meta, [-1, 17, 127]),
    "int32 rows": lambda a, meta: a.update(rows=a["rows"].astype(np.int32)),
    "2-D rows": lambda a, meta: a.update(rows=a["rows"][None]),
    "a table with a row too few": lambda a, meta: a.update(embed=a["embed"][:-1]),
    "a table too narrow": lambda a, meta: a.update(embed=a["embed"][:, :-1]),
    "a negative seed": lambda a, meta: meta.update(seed=-1),
    "a missing seed": lambda a, meta: meta.pop("seed"),
    "a float seed": lambda a, meta: meta.update(seed=7.0),
    "a zero hash_dim": lambda a, meta: meta.update(hash_dim=0),
    # compact allocates 9 bytes a row, so a width past 2^24 is refused up front
    "a hash_dim of 2^62": lambda a, meta: meta.update(hash_dim=2 ** 62),
    "a hash_dim not a power of two": lambda a, meta: meta.update(hash_dim=192),
    # consistent blocks of 2^13 columns, past the width bound
    "a d_hidden of 2^13": lambda a, meta: (meta.update(d_hidden=2 ** 13), a.update(
        hidden_w=np.zeros((8, 2 ** 13)), hidden_b=np.zeros(2 ** 13), out_w=np.zeros((2 ** 13, 2)))),
    "a boolean seed": lambda a, meta: meta.update(seed=True),
    "an infinite table entry": lambda a, meta: a["embed"].__setitem__((1, 2), np.inf),
    "a NaN block": lambda a, meta: a["out_w"].__setitem__((0, 0), np.nan),
    "a float32 block": lambda a, meta: a.update(hidden_b=a["hidden_b"].astype(np.float32)),
    "no rows array": lambda a, meta: a.pop("rows"),
    "no hidden_w array": lambda a, meta: a.pop("hidden_w"),
    "meta not UTF-8": lambda a, meta: meta.update(raw=b'{"version": 2, "x": "\xff"}'),
    "meta nested too deep": lambda a, meta: meta.update(raw=b"[" * 100_000 + b"]" * 100_000),
    "meta not an object": lambda a, meta: meta.update(raw=b"[2]"),
    # past CPython's integer digit limit, which json.loads raises as ValueError
    "meta with a 5,000-digit integer": lambda a, meta: meta.update(
        raw=b'{"version": 2, "seed": 1' + b"0" * 5000 + b"}"),
}


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = held_model()
        path = tmp_path / "ck.npz"
        model.save_checkpoint(m, path)
        loaded = model.load_checkpoint(path)
        assert (loaded.hash_dim, loaded.seed) == (128, 7)
        for name in ("rows", *model.PARAM_BLOCKS):
            a, b = getattr(m, name), getattr(loaded, name)
            assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64)), name
        assert loaded.rows.tolist() == [3, 17, 127] and same_params(loaded, m)
        with np.load(path) as npz:
            assert sorted(npz.files) == sorted(["meta", "rows", *model.PARAM_BLOCKS])
            meta = json.loads(bytes(npz["meta"]))
        assert meta == {"version": 2, "hash_dim": 128, "seed": 7, "d_embed": 8, "d_hidden": 4}

    def test_wide_adapted_round_trip_holds_no_table(self, tmp_path):
        # At 2^18 x 32 the whole table would be 64 MiB, on disk as in memory.
        source, pool, calib = make_scenario(seed=12, n_source=300, n_target=300)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        m = model.pretrain(model.init(2 ** 18, 32, 32, 0), train, val, model.TrainConfig(seed=0))
        m, trace = adapt.run_adaptation(m, train, pool, calib, adapt.AdaptConfig(epochs=1))
        assert 0 < m.rows.size < 5000 and trace.epochs
        path = tmp_path / "adapted.npz"
        loaded = []
        peak = traced_peak(lambda: (model.save_checkpoint(m, path),
                                    loaded.append(model.load_checkpoint(path))))
        assert peak < 4 * 2 ** 20
        assert path.stat().st_size < m.rows.size * 32 * 8 + 64 * 1024
        assert np.array_equal(loaded[0].rows, m.rows) and np.array_equal(loaded[0].embed, m.embed)

    def test_version_1_is_refused_by_name(self, tmp_path, capsys):
        # Version 1 held the whole table and no seed or rows.
        p = dense_init(16, 4, 4, seed=0)
        path = tmp_path / "v1.npz"
        arrays = {b: getattr(p, b) for b in model.PARAM_BLOCKS}
        write_meta(arrays, {"version": 1, "hash_dim": 16, "d_embed": 4, "d_hidden": 4})
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match="checkpoint version 1 is not supported"):
            model.load_checkpoint(path)
        assert cli.main(["evaluate", "--checkpoint", str(path), "--data", "unused.jsonl"]) == 2
        assert "version 1 " in assert_one_error_line(capsys)

    def test_version_enforced(self, tmp_path):
        p = model.init(16, 4, 4, seed=0)
        path = tmp_path / "ck.npz"
        model.save_checkpoint(p, path)
        for version in (99, "2", None):
            with np.load(path) as npz:
                arrays = {k: npz[k] for k in npz.files}
            meta = json.loads(bytes(arrays["meta"]).decode())
            meta["version"] = version
            write_meta(arrays, meta)
            np.savez(path, **arrays)
            with pytest.raises(ConfigError, match="version"):
                model.load_checkpoint(path)

    @pytest.mark.parametrize("block, value", [
        ("out_w", np.full((4, 2), np.nan)),
        ("embed", np.full((16, 4), np.inf)),
        ("hidden_b", np.zeros(4, dtype=np.float32)),
        ("out_b", np.zeros(3)),
        ("hidden_w", None),  # array missing
    ])
    def test_invalid_block_rejected(self, tmp_path, block, value):
        path = tmp_path / "ck.npz"
        model.save_checkpoint(model.init(16, 4, 4, seed=0), path)
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files if k != block}
        if value is not None:
            arrays[block] = value
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
            model.load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "ck.npz"
        model.save_checkpoint(held_model(), path)
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        return arrays, json.loads(bytes(arrays["meta"]))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_version_2_exits_2_with_one_line(self, tmp_path, capsys, case):
        arrays, meta = self.saved(tmp_path)
        MALFORMED[case](arrays, meta)
        write_meta(arrays, meta.pop("raw", meta))
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
            model.load_checkpoint(path)
        assert cli.main(["evaluate", "--checkpoint", str(path), "--data", "unused.jsonl"]) == 2
        assert str(path) in assert_one_error_line(capsys)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            model.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            model.TrainConfig(batch_size=1)
        with pytest.raises(ConfigError, match="seed"):
            model.TrainConfig(seed=-1)


class TestLogitsBa:
    def test_ties_and_near_ties_go_to_class_zero(self):
        # Row 0's logits differ by 1e-17, below a double's resolution at 1, so
        # its softmax ties and the prediction is class 0; argmax(logits) says 1.
        logits = np.array([[0.0, 1e-17], [0.0, 5.0], [2.0, 2.0]])
        assert np.argmax(logits[0]) == 1
        assert model.logits_ba(logits, [0, 1, 0]) == 1.0
        assert model.logits_ba(logits, np.array([1, 0, 1])) == 0.0

    def test_matches_predict_labels(self, small_pretrained):
        from shiftadapt import correction, metrics

        params, calib = small_pretrained["params"], small_pretrained["calib"]
        feats = data.featurize_dataset(calib, params.hash_dim)
        labels = [ex.label for ex in calib.examples]
        cm = metrics.confusion(correction.predict_labels(params, feats), labels)
        logits = model.forward(dense(params), feats).logits
        assert model.logits_ba(logits, labels) == metrics.balanced_accuracy(cm)

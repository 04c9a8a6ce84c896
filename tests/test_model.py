import math

import numpy as np
import pytest

from shiftadapt import adapt, data, model
from shiftadapt.errors import AdaptationError, ConfigError, DatasetError
from conftest import ba_on, make_scenario, same_params


def toy_vec(dim=64, pairs=((3, 1.0), (17, -0.5))):
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    val = np.array([p[1] for p in pairs], dtype=np.float64)
    return data.SparseVec(idx, val, dim)


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
        p = model.init(64, 16, 9, seed=1)
        assert np.abs(p.out_w).max() <= 1.0 / math.sqrt(9)
        assert np.abs(p.hidden_w).max() <= 1.0 / math.sqrt(16)
        assert np.abs(p.embed).max() <= 1.0 / math.sqrt(64)

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            model.init(0, 4, 4, seed=0)


class TestForward:
    def test_zero_input(self):
        p = model.init(64, 8, 4, seed=0)
        p.hidden_b[:] = np.linspace(-1, 1, 4)
        empty = data.SparseVec(np.empty(0, np.int64), np.empty(0, np.float64), 64)
        rec = model.forward(p, [empty, empty])
        assert np.array_equal(rec.phi, np.tile(np.tanh(p.hidden_b), (2, 1)))
        assert np.array_equal(rec.logits, rec.phi @ p.out_w + p.out_b)

    def test_doubling_input_doubles_preactivation_when_bias_zero(self):
        p = model.init(64, 8, 4, seed=0)  # hidden_b is zero at init
        x = toy_vec()
        x2 = data.SparseVec(x.indices, 2.0 * x.values, x.dim)
        r1, r2 = model.forward(p, [x, x]), model.forward(p, [x2, x2])
        assert np.array_equal(r2.embedded, 2.0 * r1.embedded)
        assert np.array_equal(r2.phi, np.tanh(2.0 * (r1.embedded @ p.hidden_w)))

    def test_deterministic(self):
        p = model.init(64, 8, 4, seed=0)
        x = toy_vec()
        a, b = model.forward(p, [x]), model.forward(p, [x])
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.logits, b.logits)

    def test_batch_matches_dense_reference(self):
        p = model.init(64, 8, 4, seed=0)
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
        p = model.init(64, 8, 4, seed=0)
        with pytest.raises(ValueError):
            model.forward(p, [toy_vec(), toy_vec(dim=128)])

    def test_overflowing_preactivation_raises(self):
        # tanh would map the overflowed pre-activation to a finite phi
        p = model.init(64, 8, 4, seed=0)
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
        self.params = model.init(64, 5, 4, seed=3)
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
        p = model.init(16, 4, 4, seed=0)
        before = p.copy()
        g = model.ModelParams.zeros_like(p)
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

    def test_adam_deterministic(self):
        def run():
            p = model.init(16, 4, 4, seed=0)
            opt = model.Optimizer(1e-3, p)
            rng = np.random.default_rng(4)
            for _ in range(5):
                g = model.ModelParams.zeros_like(p)
                g.out_w += rng.normal(size=g.out_w.shape)
                opt.step(p, g)
            return p

        assert same_params(run(), run())

    def test_in_place_step_matches_formula(self):
        """30 steps on 30%-sparse gradients equal the allocating formula bit for bit."""
        p = model.init(64, 8, 4, seed=0)
        ref = p.copy()
        m, v = model.ModelParams.zeros_like(p), model.ModelParams.zeros_like(p)
        opt = model.Optimizer(1e-2, p)
        rng = np.random.default_rng(9)
        for t in range(1, 31):
            g = model.ModelParams(*(rng.normal(size=b.shape) * (rng.random(b.shape) < 0.3)
                                    for b in p.blocks()))
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
        p = model.init(16, 4, 4, seed=0)
        g = model.ModelParams.zeros_like(p)
        g.hidden_w[0, 0] = 1e300
        with pytest.raises(FloatingPointError, match="second moment of hidden_w"):
            model.Optimizer(1e-3, p).step(p, g)


def unread_rows(params, *datasets):
    """Mask of the embedding rows that no featurized example of datasets reads."""
    mask = np.ones(params.hash_dim, dtype=bool)
    for ds in datasets:
        for x in data.featurize_dataset(ds, params.hash_dim):
            mask[x.indices] = False
    return mask


class TestCompact:
    def test_steps_on_compact_rows_match_full_steps_bit_for_bit(self):
        rng = np.random.default_rng(7)
        full = model.init(64, 4, 5, seed=1)
        read = rng.choice(64, size=20, replace=False)
        feats = []
        for _ in range(12):
            idx = np.sort(rng.choice(read, size=rng.integers(0, 6), replace=False))
            feats.append(data.SparseVec(idx.astype(np.int64), rng.normal(size=idx.size), 64))
        small, rows, (small_feats,) = model.compact(full, feats)
        assert np.array_equal(rows, np.unique(np.concatenate([x.indices for x in feats])))
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
        out = model.expand(start, small, rows)
        for got, want in zip(out.blocks(), full.blocks()):
            assert np.array_equal(got, want)
        unread = np.setdiff1d(np.arange(64), rows)
        assert np.array_equal(out.embed[unread], start.embed[unread])
        assert not np.array_equal(out.embed[rows], start.embed[rows])

    def test_compact_and_expand_leave_their_inputs_alone(self):
        full = model.init(64, 4, 5, seed=1)
        before = full.copy()
        small, rows, _ = model.compact(full, [toy_vec()], [toy_vec(pairs=((40, 1.0),))])
        assert rows.tolist() == [3, 17, 40]
        for block in small.blocks():
            block += 1.0
        out = model.expand(full, small, rows)
        assert same_params(full, before)
        assert np.array_equal(out.embed[rows], before.embed[rows] + 1.0)
        with pytest.raises(ValueError):
            model.compact(full, [toy_vec(dim=128)])

    def test_pretrain_returns_unread_rows_unchanged(self):
        source, _, _ = make_scenario(seed=12, n_source=120)
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        params = model.init(4096, 8, 8, seed=1)
        before = params.copy()
        out = model.pretrain(params, train, val, model.TrainConfig(max_epochs=2, seed=5))
        unread = unread_rows(params, train, val)
        assert 0 < unread.sum() < params.hash_dim
        assert np.array_equal(out.embed[unread], params.embed[unread])
        assert not np.array_equal(out.embed[~unread], params.embed[~unread])
        assert same_params(params, before)

    @pytest.mark.parametrize("learning_rate", [1e-3, 1e-12])
    def test_run_adaptation_returns_unread_rows_unchanged(self, small_pretrained, learning_rate):
        p = small_pretrained
        params, before = p["params"], p["params"].copy()
        cfg = adapt.AdaptConfig(epochs=2, seed=0, learning_rate=learning_rate)
        out, trace = adapt.run_adaptation(params, p["train"], p["pool"], p["calib"], cfg)
        unread = unread_rows(params, p["train"], p["pool"], p["calib"])
        assert unread.sum() > 0
        assert np.array_equal(out.embed[unread], params.embed[unread])
        assert same_params(params, before)
        if learning_rate == 1e-12:  # no prediction moves, so no epoch beats the input
            assert trace.best_epoch == 0 and same_params(out, params)
        else:
            assert trace.best_epoch > 0 and not same_params(out, params)


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
        with pytest.raises(DatasetError):
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
        with pytest.raises(DatasetError, match="validation"):
            model.pretrain(model.init(256, 8, 8, seed=0), train, val,
                           model.TrainConfig(max_epochs=20))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = model.init(128, 8, 4, seed=7)
        path = tmp_path / "ck.npz"
        model.save_checkpoint(p, path)
        loaded = model.load_checkpoint(path)
        for a, b in zip(p.blocks(), loaded.blocks()):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_version_enforced(self, tmp_path):
        p = model.init(16, 4, 4, seed=0)
        path = tmp_path / "ck.npz"
        model.save_checkpoint(p, path)
        import json

        import numpy as np

        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 99
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
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
        logits = model.forward(params, feats).logits
        assert model.logits_ba(logits, labels) == metrics.balanced_accuracy(cm)

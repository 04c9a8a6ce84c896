import math

import numpy as np
import pytest

from shiftadapt import data, model
from shiftadapt.errors import ConfigError, DatasetError
from conftest import ba_on, make_scenario


def toy_vec(dim=64, pairs=((3, 1.0), (17, -0.5))):
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    val = np.array([p[1] for p in pairs], dtype=np.float64)
    return data.SparseVec(idx, val, dim)


class TestInit:
    def test_deterministic(self):
        a = model.init(128, 8, 4, seed=9)
        b = model.init(128, 8, 4, seed=9)
        assert a.allclose(b)

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
        rec = model.forward(p, empty)
        assert np.array_equal(rec.phi, np.tanh(p.hidden_b))
        assert np.array_equal(rec.logits, rec.phi @ p.out_w + p.out_b)

    def test_doubling_input_doubles_preactivation_when_bias_zero(self):
        p = model.init(64, 8, 4, seed=0)  # hidden_b is zero at init
        x = toy_vec()
        x2 = data.SparseVec(x.indices, 2.0 * x.values, x.dim)
        r1 = model.forward(p, x)
        r2 = model.forward(p, x2)
        assert np.array_equal(r2.pre_hidden, 2.0 * r1.pre_hidden)

    def test_deterministic(self):
        p = model.init(64, 8, 4, seed=0)
        x = toy_vec()
        a, b = model.forward(p, x), model.forward(p, x)
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.logits, b.logits)

    def test_dim_mismatch(self):
        p = model.init(64, 8, 4, seed=0)
        with pytest.raises(ValueError):
            model.forward(p, toy_vec(dim=128))


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


class TestNll:
    def test_symmetric(self):
        assert model.nll_loss(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_confident_correct(self):
        assert model.nll_loss(np.array([1 - 1e-12, 1e-12]), 0) == pytest.approx(0.0, abs=1e-11)

    def test_hand_value(self):
        assert model.nll_loss(np.array([0.25, 0.75]), 0) == pytest.approx(math.log(4))

    def test_floor(self):
        assert model.nll_loss(np.array([0.0, 1.0]), 0) == pytest.approx(-math.log(1e-12))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            model.nll_loss(np.array([0.5, 0.5]), 2)


def nll_batch_loss(params, feats, labels):
    total = 0.0
    for f, y in zip(feats, labels):
        rec = model.forward(params, f)
        total += model.nll_loss(model.softmax(rec.logits), y)
    return total


def nll_batch_grads(params, feats, labels):
    records, gls = [], []
    for f, y in zip(feats, labels):
        rec = model.forward(params, f)
        probs = model.softmax(rec.logits)
        g = probs.copy()
        g[y] -= 1.0
        records.append(rec)
        gls.append(g)
    return records, gls


class TestBackward:
    def setup_method(self):
        self.params = model.init(64, 5, 4, seed=3)
        texts = ["a b c", "b c d", "x y", "a d x"]
        self.feats = [data.featurize(data.preprocess(t), 64) for t in texts]
        self.labels = [0, 1, 1, 0]

    def test_zero_upstream_gives_zero_gradients(self):
        records, _ = nll_batch_grads(self.params, self.feats, self.labels)
        zeros = [np.zeros(2) for _ in records]
        grads = model.backward(self.params, records, zeros)
        assert all(np.all(g == 0.0) for g in grads.blocks())

    def test_finite_difference(self):
        records, gls = nll_batch_grads(self.params, self.feats, self.labels)
        grads = model.backward(self.params, records, gls)
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
        records, gls = nll_batch_grads(self.params, self.feats, self.labels)
        whole = model.backward(self.params, records, gls)
        parts = [
            model.backward(self.params, [r], [g]) for r, g in zip(records, gls)
        ]
        for name in model.PARAM_BLOCKS:
            summed = sum(getattr(p, name) for p in parts)
            assert np.allclose(getattr(whole, name), summed, atol=1e-15)

    def test_grad_phi_path(self):
        # upstream gradient at phi only; finite-difference the induced scalar
        records, _ = nll_batch_grads(self.params, self.feats, self.labels)
        rng = np.random.default_rng(0)
        gps = [rng.normal(size=4) for _ in records]
        zeros = [np.zeros(2) for _ in records]
        grads = model.backward(self.params, records, zeros, gps)

        def scalar(params):
            return sum(
                float(gp @ model.forward(params, f).phi)
                for gp, f in zip(gps, self.feats)
            )

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
        records, gls = nll_batch_grads(self.params, self.feats, self.labels)
        with pytest.raises(ValueError):
            model.backward(self.params, records, gls[:-1])
        with pytest.raises(ValueError):
            model.backward(self.params, records, [np.zeros(3) for _ in records])


class TestOptimizer:
    def test_sgd_update_rule(self):
        p = model.init(16, 4, 4, seed=0)
        before = p.copy()
        g = model.ModelParams.zeros_like(p)
        g.out_b[:] = [1.0, -2.0]
        opt = model.Optimizer(model.OptimizerConfig(name="sgd"), 0.1, p)
        opt.step(p, g)
        assert np.allclose(p.out_b, before.out_b - 0.1 * np.array([1.0, -2.0]))

    def test_adam_deterministic(self):
        def run():
            p = model.init(16, 4, 4, seed=0)
            opt = model.Optimizer(model.OptimizerConfig(), 1e-3, p)
            rng = np.random.default_rng(4)
            for _ in range(5):
                g = model.ModelParams.zeros_like(p)
                g.out_w += rng.normal(size=g.out_w.shape)
                opt.step(p, g)
            return p

        assert run().allclose(run())


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
        assert out.allclose(params)

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
        assert runs[0].allclose(runs[1])

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
        with pytest.raises(ConfigError):
            model.pretrain(
                params, data.Dataset([], "source", "e"), val, model.TrainConfig()
            )
        unlabeled = data.Dataset([data.Example("a b", None)], "source", "u")
        with pytest.raises(DatasetError):
            model.pretrain(params, unlabeled, val, model.TrainConfig())


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


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            model.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            model.TrainConfig(batch_size=1)
        with pytest.raises(ConfigError):
            model.OptimizerConfig(name="rmsprop")

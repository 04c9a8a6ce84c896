import dataclasses
import sys

import numpy as np
import pytest

from shiftadapt import adapt, correction, data, mmd, model
from shiftadapt.adapt import AdaptConfig, class_aware_sample, run_adaptation
from shiftadapt.errors import (
    AdaptationError,
    ConfigError,
    DatasetError,
    EmptyPseudoLabelSetError,
)
from conftest import ba_on, logits_and_labels, same_params


def labeled_source(counts={0: 30, 1: 30}):
    examples = []
    for cls, n in counts.items():
        examples.extend(data.Example(f"f0p{i} f1p{cls}", cls) for i in range(n))
    return data.Dataset(examples, name="s")


def sample(source, target_labels, rng):
    """The source examples class_aware_sample picks for a target batch's labels."""
    indices, _ = class_aware_sample([ex.label for ex in source.examples], target_labels, rng)
    return [source.examples[i] for i in indices]


class TestClassAwareSample:
    def test_exact_histogram(self):
        rng = np.random.default_rng(0)
        batch = sample(labeled_source(), [0] * 3 + [1] * 5, rng)
        got = sorted(ex.label for ex in batch)
        assert got == [0] * 3 + [1] * 5

    def test_single_class_batch(self):
        rng = np.random.default_rng(1)
        batch = sample(labeled_source(), [1] * 6, rng)
        assert [ex.label for ex in batch] == [1] * 6

    def test_replacement_when_pool_small(self):
        source = labeled_source({0: 2, 1: 10})
        for seed in range(100):
            rng = np.random.default_rng(seed)
            batch = sample(source, [0] * 4 + [1] * 2, rng)
            got = sorted(ex.label for ex in batch)
            assert got == [0] * 4 + [1] * 2
            zeros = [ex for ex in batch if ex.label == 0]
            assert len(set(ex.text for ex in zeros)) <= 2  # duplicates permitted

    def test_pool_of_exactly_k_is_drawn_without_replacement(self):
        labels = [0, 0, 0, 1, 1, 1, 1]
        for seed in range(20):
            chosen, with_replacement = class_aware_sample(labels, [0, 0, 0, 1],
                                                          np.random.default_rng(seed))
            assert not with_replacement
            assert sorted(chosen[:3]) == [0, 1, 2] and len(set(chosen)) == 4

    def test_missing_class_raises(self):
        source = labeled_source({1: 10})
        with pytest.raises(AdaptationError, match="class 0"):
            sample(source, [0, 1], np.random.default_rng(0))

    def test_deterministic_given_state(self):
        a = sample(labeled_source(), [0, 0, 1], np.random.default_rng(3))
        b = sample(labeled_source(), [0, 0, 1], np.random.default_rng(3))
        assert [e.text for e in a] == [e.text for e in b]

    def test_histogram_property_random_draws(self):
        rng = np.random.default_rng(4)
        source = labeled_source({0: 7, 1: 9})
        for _ in range(200):
            labels = rng.integers(0, 2, int(rng.integers(1, 12))).tolist()
            batch = sample(source, labels, rng)
            want = {c: labels.count(c) for c in set(labels)}
            got = {}
            for ex in batch:
                got[ex.label] = got.get(ex.label, 0) + 1
            assert got == want

    def test_requires_labeled_source(self):
        ds = data.Dataset([data.Example("a b", None)], name="s")
        with pytest.raises(DatasetError):
            sample(ds, [0], np.random.default_rng(0))


class TestAdaptConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AdaptConfig(batch_size=1)
        with pytest.raises(ConfigError):
            AdaptConfig(tau=0.5)
        with pytest.raises(ConfigError):
            AdaptConfig(lam=-0.1)
        with pytest.raises(ConfigError):
            AdaptConfig(epochs=0)
        with pytest.raises(ConfigError):
            AdaptConfig(iterations_per_epoch=0)
        with pytest.raises(ConfigError):
            AdaptConfig(learning_rate=0)
        with pytest.raises(ConfigError, match="seed"):
            AdaptConfig(seed=-1)


@pytest.fixture(scope="module")
def adapted_run(small_pretrained):
    cfg = AdaptConfig(seed=5, epochs=2, batch_size=16)
    params, trace = run_adaptation(
        small_pretrained["params"],
        small_pretrained["train"],
        small_pretrained["pool"],
        small_pretrained["calib"],
        cfg,
    )
    return cfg, params, trace


class TestRunAdaptation:
    def test_deterministic_trace_and_params(self, small_pretrained, adapted_run):
        cfg, params, trace = adapted_run
        params2, trace2 = run_adaptation(
            small_pretrained["params"],
            small_pretrained["train"],
            small_pretrained["pool"],
            small_pretrained["calib"],
            cfg,
        )
        assert trace.iterations == trace2.iterations
        assert trace.epochs == trace2.epochs
        assert same_params(params, params2)

    def test_stage_one_runs_through_the_public_functions(self, small_pretrained, monkeypatch):
        """The adapter calls the sampler, pseudo-labeller and correction fit
        that the tests above check: one draw per iteration, one fit and one
        pseudo-labelling per epoch."""
        calls = dict.fromkeys(("class_aware_sample", "pseudo_label", "fit_correction"), 0)
        for owner, name in ((adapt, "class_aware_sample"), (correction, "pseudo_label"),
                            (correction, "fit_correction")):
            real = getattr(owner, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (adapt, correction):  # every namespace that binds the function
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        cfg = AdaptConfig(seed=1, epochs=3, batch_size=16, iterations_per_epoch=2)
        _, trace = run_adaptation(
            small_pretrained["params"], small_pretrained["train"],
            small_pretrained["pool"], small_pretrained["calib"], cfg,
        )
        assert calls == {"class_aware_sample": len(trace.iterations),
                         "pseudo_label": cfg.epochs, "fit_correction": cfg.epochs}

    @pytest.mark.parametrize("lam, grad_calls", [(0.01, 1), (0.0, 0)])
    def test_stage_two_runs_through_the_public_functions(self, small_pretrained, monkeypatch,
                                                         lam, grad_calls):
        """Per iteration, one kernel_blocks pass with its one median_bandwidth
        call, one contrastive_loss and, when lambda != 0, one contrastive_grad,
        each given that iteration's source and target EmbeddingBatch first."""
        names = ("kernel_blocks", "median_bandwidth", "contrastive_loss", "contrastive_grad")
        calls = {name: [] for name in names}
        modules = [m for key, m in sys.modules.items()
                   if key == "shiftadapt" or key.startswith("shiftadapt.")]
        for name in names:
            real = getattr(mmd, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name].append(args[:2])
                return _real(*args, **kwargs)

            for module in modules:  # every namespace that binds the function
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, spy)
        cfg = AdaptConfig(seed=1, epochs=2, batch_size=16, iterations_per_epoch=2, lam=lam)
        _, trace = run_adaptation(
            small_pretrained["params"], small_pretrained["train"],
            small_pretrained["pool"], small_pretrained["calib"], cfg,
        )
        n_iter = len(trace.iterations)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "kernel_blocks": n_iter, "median_bandwidth": n_iter,
            "contrastive_loss": n_iter, "contrastive_grad": grad_calls * n_iter}
        for pair in calls["kernel_blocks"]:
            assert all(type(batch) is mmd.EmbeddingBatch for batch in pair)
        for name in names[1:]:  # the same two batches as that iteration's pass
            for got, want in zip(calls[name], calls["kernel_blocks"]):
                assert got[0] is want[0] and got[1] is want[1], name

    def test_given_pool_features_give_the_same_bits(self, small_pretrained, adapted_run,
                                                    monkeypatch):
        """Pool features made by the caller: the same model bits and trace as
        when run_adaptation featurizes the pool, and the pool is not featurized."""
        cfg, params, trace = adapted_run
        pool = small_pretrained["pool"]
        pool_feats = data.featurize_dataset(pool, params.hash_dim)
        seen = []
        real = adapt.featurize_dataset
        monkeypatch.setattr(adapt, "featurize_dataset",
                            lambda ds, dim: seen.append(ds) or real(ds, dim))
        params2, trace2 = run_adaptation(
            small_pretrained["params"], small_pretrained["train"], pool,
            small_pretrained["calib"], cfg, target_feats=pool_feats,
        )
        assert all(ds is not pool for ds in seen) and len(seen) == 2
        assert dataclasses.asdict(trace2) == dataclasses.asdict(trace)
        for name in ("rows", "embed", "hidden_w", "hidden_b", "out_w", "out_b"):
            a, b = getattr(params, name), getattr(params2, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (params2.hash_dim, params2.seed) == (params.hash_dim, params.seed)

    def test_trace_shape_and_finiteness(self, adapted_run):
        cfg, _, trace = adapted_run
        n_pseudo_first = trace.epochs[0].n_pseudo
        expected_per_epoch = -(-n_pseudo_first // cfg.batch_size)  # ceil
        assert len(trace.iterations) == expected_per_epoch * cfg.epochs
        for i, rec in enumerate(trace.iterations, start=1):
            assert rec.iteration == i
            assert np.isfinite(rec.nll) and np.isfinite(rec.contrastive)
            assert np.isfinite(rec.combined) and np.isfinite(rec.gamma)
            assert rec.combined == pytest.approx(
                rec.nll + cfg.lam * rec.contrastive, abs=1e-12
            )

    def test_records_hold_python_scalars(self, adapted_run):
        """summary.json is written by json.dump, which rejects numpy integers,
        and trace.csv by repr, which spells a numpy float np.float64(...)."""
        _, _, trace = adapted_run
        for rec in trace.iterations:
            assert type(rec.iteration) is int
            for value in (rec.nll, rec.contrastive, rec.combined, rec.gamma):
                assert type(value) is float
            assert all(type(term) is str for term in rec.skipped_terms)
        for e in trace.epochs:
            assert type(e.epoch) is int and type(e.n_pseudo) is int
            for value in (e.pseudo_prior, e.pseudo_accuracy, e.calib_ba):
                assert type(value) is float
        assert type(trace.best_epoch) is int and type(trace.best_calib_ba) is float
        assert type(trace.replacement_batches) is int

    def test_epoch_records(self, adapted_run):
        cfg, _, trace = adapted_run
        assert [e.epoch for e in trace.epochs] == list(range(1, cfg.epochs + 1))
        for e in trace.epochs:
            assert e.n_pseudo > 0
            assert 0.0 <= e.pseudo_prior <= 1.0
            assert e.pseudo_accuracy is not None  # pool carries labels for diagnostics
            assert 0.0 <= e.calib_ba <= 1.0
        e1, e2 = trace.epochs
        assert e1.correction["w"] != e2.correction["w"] or e1.n_pseudo != e2.n_pseudo

    @staticmethod
    def assert_stage_one_of(record, params, small_pretrained, tau):
        """record holds the correction fit and pseudo-labelling of params."""
        cp = correction.fit_correction(*logits_and_labels(params, small_pretrained["calib"]))
        pool_logits, _ = logits_and_labels(params, small_pretrained["pool"])
        indices, _ = correction.pseudo_label(cp, pool_logits, tau)
        assert record.n_pseudo == len(indices)
        assert record.correction == cp.to_dict()

    def test_first_epoch_matches_standalone_stage_one(self, small_pretrained, adapted_run):
        cfg, _, trace = adapted_run
        self.assert_stage_one_of(trace.epochs[0], small_pretrained["params"],
                                 small_pretrained, cfg.tau)

    def test_second_epoch_refits_stage_one_on_the_adapted_model(self, small_pretrained,
                                                                 adapted_run):
        cfg, _, trace = adapted_run
        # The same seed for one epoch draws the same batches; its best epoch is
        # epoch 1, so it returns the working model that epoch 2 starts from.
        after_one, trace_one = run_adaptation(
            small_pretrained["params"], small_pretrained["train"],
            small_pretrained["pool"], small_pretrained["calib"],
            dataclasses.replace(cfg, epochs=1),
        )
        assert trace_one.best_epoch == 1
        self.assert_stage_one_of(trace.epochs[1], after_one, small_pretrained, cfg.tau)

    def test_returned_model_never_worse_on_calib(self, small_pretrained, adapted_run):
        _, params, _ = adapted_run
        before = ba_on(small_pretrained["params"], small_pretrained["calib"])
        after = ba_on(params, small_pretrained["calib"])
        assert after >= before - 1e-12

    def test_lambda_zero_is_pure_nll_finetuning(self, small_pretrained, monkeypatch):
        cfg = AdaptConfig(seed=9, epochs=1, batch_size=16, lam=0.0)
        runs = []
        for bandwidth in (mmd.median_bandwidth, lambda s, t, dists: 123.0):
            monkeypatch.setattr(mmd, "median_bandwidth", bandwidth)
            runs.append(run_adaptation(
                small_pretrained["params"],
                small_pretrained["train"],
                small_pretrained["pool"],
                small_pretrained["calib"],
                cfg,
            ))
        # the kernel cannot influence the trajectory when lambda == 0
        assert same_params(runs[0][0], runs[1][0])
        for rec in runs[0][1].iterations:
            assert rec.combined == rec.nll

    def test_each_iteration_computes_each_distance_once(self, small_pretrained, monkeypatch):
        # The bandwidth, the contrastive value and its gradient share one
        # distance pass: n^2 + m^2 + nm entries for n source and m target rows.
        entries = []
        sq_dists = mmd._sq_dists

        def counted(a, b):
            entries.append(a.shape[0] * b.shape[0])
            return sq_dists(a, b)

        monkeypatch.setattr(mmd, "_sq_dists", counted)
        cfg = AdaptConfig(seed=5, epochs=1, batch_size=16)
        _, trace = run_adaptation(
            small_pretrained["params"],
            small_pretrained["train"],
            small_pretrained["pool"],
            small_pretrained["calib"],
            cfg,
        )
        n = m = cfg.batch_size
        assert trace.iterations
        assert 0 < sum(entries) <= len(trace.iterations) * (n * n + m * m + n * m)

    def test_lambda_changes_trajectory(self, small_pretrained, adapted_run):
        cfg, params, _ = adapted_run
        params2, _ = run_adaptation(
            small_pretrained["params"],
            small_pretrained["train"],
            small_pretrained["pool"],
            small_pretrained["calib"],
            AdaptConfig(seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size, lam=0.0),
        )
        assert not same_params(params, params2)

    def test_empty_pseudo_set_aborts_with_guidance(self, small_scenario):
        source, pool, calib = small_scenario
        train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
        weak = model.init(1024, 16, 16, seed=0)  # untrained: confidences near 0.5
        cfg = AdaptConfig(tau=0.99, label_correction=False, seed=0, epochs=1)
        with pytest.raises(EmptyPseudoLabelSetError, match="lower tau"):
            run_adaptation(weak, train, pool, calib, cfg)

    def test_overflowing_contrastive_step_names_the_epoch(self, small_pretrained):
        cfg = AdaptConfig(seed=2, epochs=2, batch_size=16, iterations_per_epoch=3, lam=1e300)
        with pytest.raises(AdaptationError, match="adaptation diverged in epoch 1: "):
            run_adaptation(small_pretrained["params"], small_pretrained["train"],
                           small_pretrained["pool"], small_pretrained["calib"], cfg)

    def test_fixed_iteration_count_honored(self, small_pretrained):
        cfg = AdaptConfig(seed=2, epochs=2, batch_size=16, iterations_per_epoch=3)
        _, trace = run_adaptation(
            small_pretrained["params"],
            small_pretrained["train"],
            small_pretrained["pool"],
            small_pretrained["calib"],
            cfg,
        )
        assert len(trace.iterations) == 6

    def test_trace_csv_bytes(self, tmp_path):
        """The header, the reprs of the numbers, the |-joined skipped terms, an
        empty field when none was skipped, and csv.writer's CRLF line ends."""
        trace = adapt.AdaptTrace(iterations=[
            adapt.IterationRecord(iteration=1, nll=0.1 + 0.2, contrastive=-0.0, combined=1e-300,
                                  gamma=2.5, skipped_terms=("d01:st", "d11:tt")),
            adapt.IterationRecord(iteration=2, nll=0.5, contrastive=1 / 3, combined=0.5,
                                  gamma=1e20, skipped_terms=()),
        ])
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_bytes() == (
            b"iteration,nll,contrastive,combined,gamma,skipped_terms\r\n"
            b"1,0.30000000000000004,-0.0,1e-300,2.5,d01:st|d11:tt\r\n"
            b"2,0.5,0.3333333333333333,0.5,1e+20,\r\n")

    def test_replacement_batches_count_the_replacement_draws(self, small_pretrained,
                                                            monkeypatch):
        """A source class smaller than a target batch draws is sampled with
        replacement: replacement_batches counts the draws that reported it.
        15 class-1 examples against batches of 16 from a pool of prior 0.9
        make some draws of each kind."""
        train = small_pretrained["train"]
        ones = [ex for ex in train.examples if ex.label == 1][:15]
        source = data.Dataset([ex for ex in train.examples if ex.label == 0] + ones, name="s")
        drawn = []
        real = adapt.class_aware_sample

        def spy(*args):
            chosen, with_replacement = real(*args)
            drawn.append(with_replacement)
            return chosen, with_replacement

        monkeypatch.setattr(adapt, "class_aware_sample", spy)
        cfg = AdaptConfig(seed=1, epochs=2, batch_size=16, iterations_per_epoch=4)
        _, trace = run_adaptation(small_pretrained["params"], source, small_pretrained["pool"],
                                  small_pretrained["calib"], cfg)
        assert len(drawn) == len(trace.iterations)
        assert 0 < trace.replacement_batches == sum(drawn) < len(drawn)

    def test_trace_csv_roundtrip(self, tmp_path, adapted_run):
        _, _, trace = adapted_run
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,nll,contrastive,combined,gamma,skipped_terms"
        assert len(lines) == len(trace.iterations) + 1
        first = lines[1].split(",")
        assert float(first[1]) == trace.iterations[0].nll

    def test_unlabeled_source_rejected(self, small_pretrained):
        unlabeled = data.Dataset([data.Example("a b", None)], name="u")
        with pytest.raises(DatasetError):
            run_adaptation(
                small_pretrained["params"], unlabeled,
                small_pretrained["pool"], small_pretrained["calib"], AdaptConfig(),
            )

    def test_unlabeled_calib_rejected(self, small_pretrained):
        unlabeled = data.Dataset([data.Example("a b", None)], name="u")
        with pytest.raises(DatasetError):
            run_adaptation(
                small_pretrained["params"], small_pretrained["train"],
                small_pretrained["pool"], unlabeled,
                AdaptConfig(label_correction=False),
            )

    @pytest.mark.parametrize("empty, message", [
        ("target", "^target dataset must be non-empty$"),
        ("calib", "^dataset 'e' is empty$"),
    ])
    def test_empty_target_or_calib_rejected(self, small_pretrained, empty, message):
        sets = {"target": small_pretrained["pool"], "calib": small_pretrained["calib"],
                empty: data.Dataset([], name="e")}
        with pytest.raises(DatasetError, match=message):
            run_adaptation(small_pretrained["params"], small_pretrained["train"],
                           sets["target"], sets["calib"], AdaptConfig())

    def test_pool_smaller_than_batch_wraps(self, small_pretrained):
        tiny = data.Dataset(small_pretrained["pool"].examples[:6], name="tiny")
        cfg = AdaptConfig(seed=0, epochs=2, batch_size=16, tau=0.55)
        params, trace = run_adaptation(
            small_pretrained["params"], small_pretrained["train"],
            tiny, small_pretrained["calib"], cfg,
        )
        # ceil(n_pseudo / 16) == 1 iteration per epoch; batches wrap with duplicates
        assert len(trace.iterations) == 2
        assert trace.epochs[0].n_pseudo <= 6

    def test_single_class_pool_records_skipped_terms(self, small_pretrained):
        # build a pool the model itself pseudo-labels entirely as class 1
        full_pool = small_pretrained["pool"]
        indices, labels = correction.pseudo_label(
            correction.CorrectionParams.identity(),
            logits_and_labels(small_pretrained["params"], full_pool)[0], tau=0.55,
        )
        one_idx = indices[labels == 1][:12].tolist()
        assert len(one_idx) >= 8
        pool = data.Dataset([full_pool.examples[i] for i in one_idx], name="ones")
        cfg = AdaptConfig(seed=0, epochs=1, batch_size=8, tau=0.55, label_correction=False)
        params, trace = run_adaptation(
            small_pretrained["params"], small_pretrained["train"],
            pool, small_pretrained["calib"], cfg,
        )
        rec = trace.iterations[0]
        # pseudo labels are all class 1, so every class-0-touching term is skipped
        assert "d00:ss" in rec.skipped_terms and "d01:st" in rec.skipped_terms
        assert np.isfinite(rec.contrastive)

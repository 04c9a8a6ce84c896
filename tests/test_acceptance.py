"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 3-5 and 8 use the
default synthetic scenario (conditional shift via shifted class means plus
label shift 0.5 -> 0.9).
"""
import itertools
import time

import numpy as np
import pytest

from shiftadapt import adapt, cli, config, correction, data, metrics, mmd, model
from shiftadapt.cli import main
from shiftadapt.mmd import EmbeddingBatch
from conftest import ba_on, dense
from test_correction import grid_best
from test_mmd import kernels, naive_class_mmd


def report(num, passed, detail):
    print(f"\ncriterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def default_scenario(seed):
    cfg = config.build(data.SynthConfig, cli.default_synth_dict(seed=seed))
    source, target = data.gen_synthetic(cfg)
    calib = data.Dataset(target.examples[:200], name="calib")
    pool = data.Dataset(target.examples[200:], name="pool")
    return source, pool, calib


def pretrain_default(source, seed):
    train, val, _ = data.split(source, (0.7, 0.1, 0.2), seed=0)
    params = model.init(4096, 32, 32, seed=seed)
    trained = model.pretrain(params, train, val, model.TrainConfig(max_epochs=5, seed=seed))
    return train, trained


@pytest.fixture(scope="module")
def five_seed_experiment():
    """Full pipeline on 5 seeds: naive baseline, full adaptation, and the
    no-label-correction ablation arm. Shared by criteria 4 and 5."""
    rows = []
    for seed in range(5):
        t0 = time.perf_counter()
        source, pool, calib = default_scenario(100 + seed)
        train, pre = pretrain_default(source, seed)
        naive_ba = ba_on(pre, pool)

        full, _ = adapt.run_adaptation(
            pre, train, pool, calib, adapt.AdaptConfig(seed=seed)
        )
        full_ba = ba_on(full, pool)

        nolc, _ = adapt.run_adaptation(
            pre, train, pool, calib, adapt.AdaptConfig(seed=seed, label_correction=False)
        )
        nolc_ba = ba_on(nolc, pool)
        rows.append({
            "seed": seed,
            "naive": naive_ba,
            "full": full_ba,
            "nolc": nolc_ba,
            "elapsed": time.perf_counter() - t0,
        })
    return rows


def test_criterion_1_mmd_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    instances = 0
    while instances < 50:
        n, m = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        d = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.3, 4.0))
        sl = rng.integers(0, 2, n)
        tl = rng.integers(0, 2, m)
        S = EmbeddingBatch(rng.normal(size=(n, d)), sl)
        T = EmbeddingBatch(rng.normal(size=(m, d)), tl)

        loss_expected = 0.0
        for c1, c2, coef in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, -0.5), (1, 0, -0.5)):
            want = naive_class_mmd(S, T, c1, c2, gamma)
            if want is not None:
                loss_expected += coef * want
        got_loss = mmd.contrastive_loss(S, T, kernels(S, T, gamma)).value
        worst = max(worst, abs(got_loss - loss_expected))
        instances += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"{instances} instances, max |impl - oracle| = {worst:.3e} (tol 1e-9), "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    configs = 0

    for _ in range(10):  # contrastive_grad configurations
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.5, 3.0))
        S = EmbeddingBatch(rng.normal(size=(n, d)), rng.integers(0, 2, n))
        T = EmbeddingBatch(rng.normal(size=(m, d)), rng.integers(0, 2, m))
        res = mmd.contrastive_grad(S, T, kernels(S, T, gamma))
        for arr, grad in ((S.vectors, res.grad_source), (T.vectors, res.grad_target)):
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    orig = arr[i, j]
                    arr[i, j] = orig + eps
                    lp = mmd.contrastive_loss(S, T, kernels(S, T, gamma)).value
                    arr[i, j] = orig - eps
                    lm = mmd.contrastive_loss(S, T, kernels(S, T, gamma)).value
                    arr[i, j] = orig
                    fd = (lp - lm) / (2 * eps)
                    worst = max(worst, abs(fd - grad[i, j]) / max(abs(fd), 1e-6))
        configs += 1

    vocab = [f"w{i}" for i in range(40)]
    for _ in range(10):  # model backward configurations
        d_embed = int(rng.integers(3, 7))
        d_hidden = int(rng.integers(2, 6))
        params = dense(model.init(128, d_embed, d_hidden, seed=int(rng.integers(1 << 31))))
        feats = [
            data.featurize(list(rng.choice(vocab, size=rng.integers(2, 8))), 128)
            for _ in range(4)
        ]
        labels = rng.integers(0, 2, 4).tolist()
        gps = rng.normal(size=(4, d_hidden))
        rec = model.forward(params, feats)
        _, gls = model.nll_head(rec.logits, labels, 1.0)
        grads = model.backward(params, rec, gls, gps)

        def scalar(p):
            rec = model.forward(p, feats)
            terms, _ = model.nll_head(rec.logits, labels, 1.0)
            return float(terms.sum() + np.sum(gps * rec.phi))

        for name in model.PARAM_BLOCKS:
            arr = getattr(params, name)
            g = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                if name == "embed" and g[idx] == 0.0:
                    continue  # hash rows no input touches
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = scalar(params)
                arr[idx] = orig - eps
                lm = scalar(params)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(fd - g[idx]) / max(abs(fd), 1e-6))
        configs += 1

    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-4 and elapsed < 30.0,
        f"{configs} configurations, max relative error {worst:.3e} (tol 1e-4), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_label_shift_correction_recovery():
    t0 = time.perf_counter()
    source, pool, calib = default_scenario(seed=7)
    _, pre = pretrain_default(source, seed=0)
    pool_feats = data.featurize_dataset(pool, pre.hash_dim)

    calib_feats = data.featurize_dataset(calib, pre.hash_dim)
    calib_logits = model.forward(dense(pre), calib_feats).logits
    calib_labels = np.asarray([ex.label for ex in calib.examples])

    uncorrected_prior = float(np.mean(correction.predict_labels(pre, pool_feats)))
    cp = correction.fit_correction(calib_logits, calib_labels)
    corrected_prior = float(np.mean(correction.predict_labels(pre, pool_feats, cp)))

    grid_nll, _ = grid_best(calib_logits, calib_labels)
    fitted_nll = cp.fit_nll_history[-1]

    elapsed = time.perf_counter() - t0
    ok = (
        abs(corrected_prior - 0.9) <= 0.05
        and abs(uncorrected_prior - 0.9) > 0.10
        and fitted_nll <= grid_nll + 1e-2
        and elapsed < 60.0
    )
    report(
        3,
        ok,
        f"corrected prior {corrected_prior:.3f} (|dev| <= 0.05 of 0.9), uncorrected "
        f"{uncorrected_prior:.3f} (dev > 0.10), fitted NLL {fitted_nll:.4f} vs grid "
        f"{grid_nll:.4f} (gap <= 1e-2), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_end_to_end_adaptation_gain(five_seed_experiment):
    rows = five_seed_experiment
    gains = [r["full"] - r["naive"] for r in rows]
    mean_gain = float(np.mean(gains))
    slowest = max(r["elapsed"] for r in rows)
    ok = mean_gain >= 0.05 and slowest < 120.0
    report(
        4,
        ok,
        f"5-seed mean BA gain {mean_gain:+.4f} (>= 0.05), per-seed gains "
        f"{[f'{g:+.3f}' for g in gains]}, slowest seed {slowest:.1f}s (< 120s)",
    )


def test_criterion_5_ablation_ordering(five_seed_experiment):
    rows = five_seed_experiment
    full = float(np.mean([r["full"] for r in rows]))
    nolc = float(np.mean([r["nolc"] for r in rows]))
    naive = float(np.mean([r["naive"] for r in rows]))
    ok = full >= nolc and naive <= nolc and naive <= full
    report(
        5,
        ok,
        f"mean BA: full {full:.4f} >= no-label-correction {nolc:.4f} >= "
        f"naive {naive:.4f}",
    )


def test_criterion_6_class_aware_sampler_property():
    rng = np.random.default_rng(6006)
    source_pools = [
        {0: 3, 1: 40},  # forces replacement for class 0 on larger batches
        {0: 25, 1: 25},
        {0: 40, 1: 5},
    ]
    draws = 0
    for counts in source_pools:
        examples = []
        for cls, n in counts.items():
            examples.extend(data.Example(f"f0p{i} f1p{cls}", cls) for i in range(n))
        source = data.Dataset(examples, name="s")
        source_labels = [ex.label for ex in source.examples]
        for _ in range(334):
            size = int(rng.integers(1, 25))
            labels = rng.integers(0, 2, size).tolist()
            indices, _ = adapt.class_aware_sample(source_labels, labels, rng)
            batch = [source.examples[i] for i in indices]
            want = {c: labels.count(c) for c in set(labels)}
            got = {}
            for ex in batch:
                got[ex.label] = got.get(ex.label, 0) + 1
            assert got == want
            draws += 1
    report(6, draws >= 1000, f"{draws} seeded draws, every histogram matched exactly")


def test_criterion_7_metric_correctness():
    checked = 0
    for tp, tn, fp, fn in itertools.product(range(6), repeat=4):
        if tp + tn + fp + fn == 0:
            continue  # the type invariant requires at least one example
        cm = metrics.ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
        tpr = tp / (tp + fn) if tp + fn else 0.0
        tnr = tn / (tn + fp) if tn + fp else 0.0
        assert metrics.balanced_accuracy(cm) == pytest.approx(0.5 * (tpr + tnr), abs=0)
        f1, acc = metrics.f1_and_accuracy(cm)
        assert acc == pytest.approx((tp + tn) / (tp + tn + fp + fn), abs=0)
        want_f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        assert f1 == pytest.approx(want_f1, abs=0)
        checked += 1

    # constant predictors pin BA at exactly 0.5 whenever both classes appear
    constant_checked = 0
    for pos, neg in itertools.product(range(1, 6), repeat=2):
        truth = [1] * pos + [0] * neg
        for const in (0, 1):
            cm = metrics.confusion([const] * (pos + neg), truth)
            assert metrics.balanced_accuracy(cm) == 0.5
            constant_checked += 1
    report(
        7,
        True,
        f"{checked} confusion matrices match hand formulas exactly; "
        f"{constant_checked} constant-predictor cases give BA == 0.5",
    )


def test_criterion_8_cmd_adapt_byte_determinism(tmp_path):
    synth_dir = tmp_path / "data"
    overrides = [
        "--set", f"output.directory={synth_dir}",
        "--set", "train.max_epochs=3",
        "--set", "adapt.epochs=2",
    ]
    assert main(["synth"] + overrides) == 0

    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        args = ["adapt"] + overrides + [
            "--set", f"output.directory={out}",
            "--set", f"data.source={synth_dir}/source.jsonl",
            "--set", f"data.target={synth_dir}/target.jsonl",
            "--set", f"data.calib={synth_dir}/calib.jsonl",
            "--set", f"data.target_labels={synth_dir}/target_labels.jsonl",
        ]
        assert main(args) == 0
        outputs.append(out)

    trace_equal = (outputs[0] / "trace.csv").read_bytes() == (outputs[1] / "trace.csv").read_bytes()
    summary_equal = (
        (outputs[0] / "summary.json").read_bytes()
        == (outputs[1] / "summary.json").read_bytes()
    )
    report(
        8,
        trace_equal and summary_equal,
        f"trace.csv byte-identical: {trace_equal}; summary.json byte-identical: {summary_equal}",
    )

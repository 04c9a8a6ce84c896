import itertools
import math

import numpy as np
import pytest

from shiftadapt import correction, data, model
from shiftadapt.correction import (
    CorrectionParams,
    apply_correction,
    fit_correction,
    pseudo_label,
)
from shiftadapt.errors import ConfigError, DatasetError
from conftest import logits_and_labels, make_scenario

W_AXIS = np.linspace(-2.0, 4.0, 21)
B_AXIS = np.linspace(-5.0, 5.0, 21)


def grid_best(logits, labels, w_axis=W_AXIS, b_axis=B_AXIS):
    """Exhaustive lattice search over (w0, w1, b0, b1); returns (best NLL, best point)."""
    labels = np.asarray(labels)
    best_nll, best_point = np.inf, None
    grid = np.array(list(itertools.product(w_axis, w_axis, b_axis, b_axis)))
    for chunk in np.array_split(grid, max(1, len(grid) // 4000)):
        u = logits[None, :, :] * chunk[:, None, :2] + chunk[:, None, 2:]
        u = u - u.max(axis=2, keepdims=True)
        logp = u - np.log(np.exp(u).sum(axis=2, keepdims=True))
        nll = -logp[:, np.arange(len(labels)), labels].mean(axis=1)
        i = int(nll.argmin())
        if nll[i] < best_nll:
            best_nll, best_point = float(nll[i]), chunk[i]
    return best_nll, best_point


def dataset_from_texts(texts, labels):
    return data.Dataset([data.Example(t, y) for t, y in zip(texts, labels)], name="calib")


class TestApplyCorrection:
    def test_identity(self):
        logits = np.array([2.0, 1.0])
        out = apply_correction(CorrectionParams.identity(), logits)
        assert np.array_equal(out, model.softmax(logits))

    def test_equal_scaling_preserves_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(scale=3, size=2)
            c = float(rng.uniform(0.1, 5.0))
            cp = CorrectionParams(w=np.array([c, c]), b=np.zeros(2))
            assert np.argmax(apply_correction(cp, logits)) == np.argmax(model.softmax(logits))

    def test_bias_shift_closed_form(self):
        cp = CorrectionParams(w=np.ones(2), b=np.array([0.0, math.log(9)]))
        out = apply_correction(cp, np.zeros(2))
        assert out == pytest.approx([0.1, 0.9], abs=1e-15)

    def test_bias_discarded_rejects_nonzero_b(self):
        with pytest.raises(ConfigError, match="bias_discarded"):
            CorrectionParams(w=np.array([2.0, 0.5]), b=np.array([5.0, -5.0]), bias_discarded=True)
        with pytest.raises(ConfigError, match="bias_discarded"):
            CorrectionParams.from_dict({"w": [1, 1], "b": [0, 50], "bias_discarded": True})
        cp = CorrectionParams.from_dict({"w": [2.0, 0.5], "b": [0, -0.0], "bias_discarded": True})
        logits = np.array([1.0, -1.0])
        assert np.array_equal(apply_correction(cp, logits), model.softmax(cp.w * logits))

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cp = CorrectionParams(w=rng.normal(size=2), b=rng.normal(size=2))
            out = apply_correction(cp, rng.normal(scale=10, size=2))
            assert np.all(out > 0) and abs(out.sum() - 1.0) <= 1e-12

    def test_non_finite_params_rejected(self):
        # Refused when built, so no to_dict() holds a NaN, which JSON cannot spell.
        for w, b, key, shown in [
            (np.array([np.inf, 1.0]), np.zeros(2), "w", "[inf, 1.0]"),
            (np.array([np.nan, 1.0]), np.zeros(2), "w", "[nan, 1.0]"),
            (np.ones(2), np.array([0.0, -np.inf]), "b", "[0.0, -inf]"),
            (np.ones(3), np.zeros(2), "w", "[1.0, 1.0, 1.0]"),
            (np.ones(2), np.zeros((2, 1)), "b", "[[0.0], [0.0]]"),
            (np.array(["1", "1"]), np.zeros(2), "w", "['1', '1']"),
            (np.array([True, True]), np.zeros(2), "w", "[True, True]"),
        ]:
            with pytest.raises(ConfigError) as info:
                CorrectionParams(w=w, b=b)
            assert str(info.value) == f"correction {key!r} must be two finite numbers, got {shown}"

    def test_json_roundtrip(self):
        cp = CorrectionParams(w=np.array([1.5, 0.5]), b=np.array([-0.25, 0.25]))
        back = CorrectionParams.from_dict(cp.to_dict())
        assert np.array_equal(back.w, cp.w) and np.array_equal(back.b, cp.b)
        assert back.bias_discarded == cp.bias_discarded


def calibrated_fixture():
    """Calibrated symmetric logits: identity correction is NLL-optimal.

    40 examples in two mirrored groups with probs (0.25, 0.75) / (0.75, 0.25);
    within each group labels match the stated probabilities exactly, so the
    NLL gradient at the identity is zero.
    """
    g = math.log(3)
    logits, labels = [], []
    for _ in range(15):
        logits.append([-g / 2, g / 2]); labels.append(1)
    for _ in range(5):
        logits.append([-g / 2, g / 2]); labels.append(0)
    for _ in range(15):
        logits.append([g / 2, -g / 2]); labels.append(0)
    for _ in range(5):
        logits.append([g / 2, -g / 2]); labels.append(1)
    return np.array(logits), np.array(labels)


def fit_on_logits(logits, labels):
    """Drive the fit through the same internals fit_correction uses."""
    return correction._descend(np.asarray(logits, dtype=np.float64), np.asarray(labels), True)


def matrix_mean_nll(logits, labels, w, b):
    """The corrected mean NLL on the (n, 2) matrix, with row reductions and a
    gather: the reference the two-column form is compared against."""
    u = logits * w + b
    u = u - u.max(axis=1, keepdims=True)
    logp = u - np.log(np.exp(u).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


class TestCorrectedMeanNll:
    def test_two_column_form_is_the_matrix_form_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for case in range(600):
            n = int(rng.integers(1, 250))
            logits = rng.standard_normal((n, 2)) * (1e2 if case % 3 == 0 else 3.0)
            if case % 4 == 0:
                labels = np.full(n, case // 4 % 2, dtype=np.int64)
            else:
                labels = rng.integers(0, 2, n)
            w = rng.standard_normal(2) * 2.0
            b = rng.standard_normal(2) * 2.0
            got, (e0, e1, s) = correction._nll_pass(
                np.ascontiguousarray(logits[:, 0]), np.ascontiguousarray(logits[:, 1]),
                labels == 1, *w.tolist(), *b.tolist())
            want = matrix_mean_nll(logits, labels, w, b)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), case
            u = logits * w + b
            e = np.exp(u - u.max(axis=1, keepdims=True))
            assert np.stack([e0, e1, s], axis=1).tobytes() == np.column_stack(
                [e, e.sum(axis=1)]).tobytes(), case


# The descent before the one-pass kernel, kept as the bit-for-bit reference:
# the bodies of the former correction._corrected_mean_nll,
# _corrected_nll_grad and _descend, with the constants FIT_MAX_ITERS 500,
# FIT_TOL 1e-8, the Armijo 1e-4, the 1e-20 step floor, the 1e-24 gradient
# floor and B_MAX 10 written as literals.
def oracle_corrected_mean_nll(logits: np.ndarray, labels: np.ndarray, w, b) -> float:
    u0 = logits[:, 0] * w[0] + b[0]
    u1 = logits[:, 1] * w[1] + b[1]
    top = np.maximum(u0, u1)
    u0 -= top
    u1 -= top
    logp = np.where(labels == 1, u1, u0) - np.log(np.exp(u0) + np.exp(u1))
    return float(-logp.mean())


def oracle_corrected_nll_grad(logits, labels, w, b):
    u = logits * w + b
    u = u - u.max(axis=1, keepdims=True)
    p = np.exp(u)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(labels)), labels] -= 1.0
    p /= len(labels)
    return (p * logits).sum(axis=0), p.sum(axis=0)


def oracle_descend(logits, labels, fit_bias: bool):
    w = np.ones(2)
    b = np.zeros(2)
    nll = oracle_corrected_mean_nll(logits, labels, w, b)
    history = [nll]
    step = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(500):
            gw, gb = oracle_corrected_nll_grad(logits, labels, w, b)
            if not fit_bias:
                gb = np.zeros(2)
            gnorm2 = float(gw @ gw + gb @ gb)
            if gnorm2 < 1e-24:
                break
            t = step
            accepted = False
            while t > 1e-20:
                w_new = w - t * gw
                b_new = b - t * gb
                nll_new = oracle_corrected_mean_nll(logits, labels, w_new, b_new)
                if nll_new <= nll - 1e-4 * t * gnorm2:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
            improvement = nll - nll_new
            w, b, nll = w_new, b_new, nll_new
            history.append(nll)
            step = t * 2.0
            if improvement < 1e-8:
                break
    return w, b, history


def oracle_fit_correction(logits, labels, descend=oracle_descend) -> CorrectionParams:
    """fit_correction after its input checks, on the oracle descent."""
    labels = np.asarray(labels).astype(np.int64)
    warnings = []
    if len(set(labels.tolist())) == 1:
        warnings.append(f"calibration set contains a single class ({int(labels[0])})")
    w, b, history = descend(logits, labels, True)
    bias_discarded = False
    if np.max(np.abs(b)) > 10.0:
        w, b, history = descend(logits, labels, False)
        bias_discarded = True
        b = np.zeros(2)
    identity_nll = oracle_corrected_mean_nll(logits, labels, np.ones(2), np.zeros(2))
    if history[-1] > identity_nll:
        warnings.append("fit regressed past the identity correction; returning identity")
        return CorrectionParams(
            w=np.ones(2), b=np.zeros(2), fit_nll_history=[identity_nll], warnings=warnings
        )
    return CorrectionParams(
        w=w, b=b, bias_discarded=bias_discarded,
        fit_nll_history=[float(v) for v in history], warnings=warnings,
    )


def assert_same_bytes(got, want, case):
    """Two (w, b, history) triples, or two CorrectionParams, hold the same bits."""
    if isinstance(got, CorrectionParams):
        assert got.bias_discarded is want.bias_discarded, case
        assert got.warnings == want.warnings, case
        got = got.w, got.b, got.fit_nll_history
        want = want.w, want.b, want.fit_nll_history
    for g, v in zip(got, want):
        assert np.asarray(g, np.float64).tobytes() == np.asarray(v, np.float64).tobytes(), case
    assert all(type(v) is float for v in got[2]), case


def oracle_cases(count, seed):
    """(case, logits, labels): n from 1 to 400; logit scales 1e-3, 3, 1e200
    and, on one case in 16, 1e2 (whose fits run to the step cap); labels at
    random, one-class, or from a shifted decision boundary, whose fits on up
    to 60 rows often push |b| past B_MAX; one case in 7 has Fortran-ordered
    logits."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        kind = ("tiny", "three", "overflow", "shifted")[case % 4] if case % 16 != 15 else "hundred"
        n = (1, 400)[case] if case < 2 else int(rng.integers(2, 61 if kind == "shifted" else 401))
        scale = {"tiny": 1e-3, "overflow": 1e200, "hundred": 1e2}.get(kind, 3.0)
        logits = rng.standard_normal((n, 2)) * scale
        if kind == "shifted":
            margin = logits[:, 1] - logits[:, 0] + 3.0 + 2.0 * rng.standard_normal(n)
            labels = (margin > 0).astype(np.int64)
        elif case % 5 == 4:
            labels = np.full(n, case // 5 % 2, dtype=np.int64)
        else:
            labels = rng.integers(0, 2, n)
        if case % 7 == 6:
            logits = np.asfortranarray(logits)
        yield case, logits, labels


class TestFitMatchesOracle:
    def test_fit_correction_bit_for_bit(self):
        discarded = 0
        for case, logits, labels in oracle_cases(320, seed=29):
            got = fit_correction(logits, labels)
            assert_same_bytes(got, oracle_fit_correction(logits, labels), case)
            discarded += got.bias_discarded
        # the B_MAX path ran, so the bias-free descent was compared as well
        assert discarded >= 5

    def test_bias_free_descent_bit_for_bit(self):
        for case, logits, labels in oracle_cases(60, seed=30):
            assert_same_bytes(correction._descend(logits, labels, False),
                              oracle_descend(logits, labels, False), case)

    def test_identity_fallback_bit_for_bit(self, monkeypatch):
        # Armijo never accepts a step that raises the NLL, so a regression is
        # made by appending one to each descent's history.
        def regressed(descend):
            def run(logits, labels, fit_bias):
                w, b, history = descend(logits, labels, fit_bias)
                return w, b, history + [history[0] + abs(history[0]) + 1.0]
            return run

        for case, logits, labels in oracle_cases(12, seed=31):
            monkeypatch.setattr(correction, "_descend", regressed(correction._descend))
            got = fit_correction(logits, labels)
            monkeypatch.undo()
            assert got.warnings[-1].startswith("fit regressed")
            assert_same_bytes(got, oracle_fit_correction(
                logits, labels, regressed(oracle_descend)), case)


class TestFitCorrection:
    def test_calibrated_model_barely_changes(self):
        logits, labels = calibrated_fixture()
        w, b, history = fit_on_logits(logits, labels)
        assert abs(history[-1] - history[0]) < 1e-3
        # argmax agreement with the uncorrected predictions is total
        corrected = np.argmax(logits * w + b, axis=1)
        assert np.array_equal(corrected, np.argmax(logits, axis=1))
        # lattice oracle confirms the identity region is optimal
        best_nll, _ = grid_best(logits, labels)
        assert history[-1] <= best_nll + 1e-2

    def test_skewed_prior_shifts_predictions(self):
        # class-1-heavy calib but symmetric, uninformative logits
        rng = np.random.default_rng(8)
        n = 40
        labels = np.array([1] * 36 + [0] * 4)
        u = rng.normal(scale=0.5, size=n)
        logits = np.stack([u, -u], axis=1)
        w, b, history = fit_on_logits(logits, labels)
        preds = np.argmax(logits * w + b, axis=1)
        assert preds.mean() >= 0.85
        best_nll, best_point = grid_best(logits, labels)
        assert history[-1] <= best_nll + 1e-2
        # the lattice optimum also shifts the bias toward class 1
        assert best_point[3] > best_point[2]

    def test_b_max_triggers_discard(self, monkeypatch):
        scenario = make_scenario(seed=21, n_source=80, n_target=80, n_calib=40)
        _, _, calib = scenario
        params = model.init(256, 8, 8, seed=0)
        monkeypatch.setattr(correction, "B_MAX", 1e-6)
        cp = fit_correction(*logits_and_labels(params, calib))
        assert cp.bias_discarded
        assert np.array_equal(cp.b, np.zeros(2))

    def test_huge_logits_fit_without_numpy_warnings(self):
        # gw @ gw overflows and trial NLLs turn NaN; the suite turns any
        # RuntimeWarning into an error, so a leaked warning fails this test
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((20, 2)) * 1e200
        labels = rng.integers(0, 2, 20)
        cp = fit_correction(logits, labels)
        assert np.all(np.isfinite(cp.w)) and np.all(np.isfinite(cp.b))
        assert all(b <= a for a, b in zip(cp.fit_nll_history, cp.fit_nll_history[1:]))

    def test_single_class_warns_but_fits(self):
        calib = dataset_from_texts(["f0p1 f1p1", "f0p2 f1p0", "f0p0 f1p2"], [1, 1, 1])
        params = model.init(256, 8, 8, seed=0)
        cp = fit_correction(*logits_and_labels(params, calib))
        assert any("single class" in w for w in cp.warnings)

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(4, 64))
            labels = rng.integers(0, 2, n)
            logits = rng.normal(scale=2, size=(n, 2))
            _, _, history = fit_on_logits(logits, labels)
            assert history[-1] <= history[0] + 1e-12
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_grid_oracle_optimality_small_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            n = int(rng.integers(8, 65))
            labels = (rng.random(n) < 0.8).astype(np.int64)
            logits = rng.normal(size=(n, 2)) + np.stack(
                [(1 - labels) * 1.5, labels * 1.0], axis=1
            )
            _, _, history = fit_on_logits(logits, labels)
            best_nll, _ = grid_best(logits, labels)
            assert history[-1] <= best_nll + 1e-2

    def test_validation(self):
        with pytest.raises(DatasetError):
            fit_correction(np.empty((0, 2)), [])
        with pytest.raises(DatasetError):
            fit_correction(np.zeros((1, 2)), [None])

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 2, 1)])
    def test_logits_must_be_n_by_2(self, shape):
        with pytest.raises(ValueError, match="logits"):
            fit_correction(np.zeros(shape), [0, 1])


class TestPredictLabels:
    @pytest.mark.parametrize("cp", [None, CorrectionParams.identity()])
    @pytest.mark.parametrize("texts, want", [([], []), (["a b", "c"], [0, 0])])
    def test_empty_and_tied_rows(self, cp, texts, want):
        params = model.init(64, 4, 4, seed=0)
        params.out_w[:] = 0.0  # logits == out_b == 0: every row ties, and ties go to class 0
        feats = [data.featurize(t.split(), 64) for t in texts]
        assert correction.predict_labels(params, feats, cp) == want


class TestPseudoLabel:
    def test_threshold_filtering(self):
        cp = CorrectionParams.identity()
        logits = np.log(np.array([[0.55, 0.45], [0.25, 0.75]]))
        indices, labels = pseudo_label(cp, logits, tau=0.6)
        assert indices.dtype == labels.dtype == np.int64
        assert indices.tolist() == [1] and labels.tolist() == [1]
        assert apply_correction(cp, logits)[indices, labels] == pytest.approx([0.75])

    def test_boundary_confidence_retained(self):
        cp = CorrectionParams.identity()
        logits = np.log(np.array([[0.4, 0.6]]))
        indices, labels = pseudo_label(cp, logits, tau=0.6)
        assert indices.tolist() == [0] and labels.tolist() == [1]
        assert apply_correction(cp, logits)[indices, labels] == pytest.approx([0.6])

    @pytest.mark.parametrize("cp", [CorrectionParams.identity(), CorrectionParams(
        w=np.array([2.0, 2.0]), b=np.array([1.0, -1.0]))])
    def test_tied_row_never_kept(self, cp):
        # A tie's argmax is class 0 with confidence 0.5, below every valid tau.
        logits = (np.zeros((1, 2)) - cp.b) / cp.w  # corrected logits tie exactly
        assert apply_correction(cp, logits)[0, 0] == 0.5
        indices, labels = pseudo_label(cp, logits, tau=0.500001)
        assert indices.size == 0 and labels.size == 0

    def test_full_interface_on_synthetic(self, small_pretrained):
        pre = small_pretrained["params"]
        pool = small_pretrained["pool"]
        calib = small_pretrained["calib"]
        cp = fit_correction(*logits_and_labels(pre, calib))
        pool_logits, _ = logits_and_labels(pre, pool)
        indices, labels = pseudo_label(cp, pool_logits, tau=0.7)
        assert indices.size > 0
        probs = apply_correction(cp, pool_logits)
        assert np.all(probs[indices, labels] >= 0.7)
        assert np.array_equal(labels, np.argmax(probs[indices], axis=1))
        assert len(set(indices.tolist())) == len(indices)
        assert np.all(np.diff(indices) > 0)  # ascending
        # deterministic
        again = pseudo_label(cp, pool_logits, tau=0.7)
        assert np.array_equal(again[0], indices) and np.array_equal(again[1], labels)

    def test_filtering_improves_precision(self, small_pretrained):
        pre = small_pretrained["params"]
        pool = small_pretrained["pool"]
        calib = small_pretrained["calib"]
        truth = np.asarray([ex.label for ex in pool.examples])
        cp = fit_correction(*logits_and_labels(pre, calib))
        pool_logits, _ = logits_and_labels(pre, pool)
        filtered = pseudo_label(cp, pool_logits, tau=0.8)
        unfiltered = pseudo_label(cp, pool_logits, tau=0.500001)
        assert len(unfiltered[0]) == len(pool)

        def precision(ps):
            indices, labels = ps
            return np.mean(labels == truth[indices])

        assert precision(filtered) >= precision(unfiltered)

    def test_tau_validated(self, small_pretrained):
        pool_logits, _ = logits_and_labels(small_pretrained["params"], small_pretrained["pool"])
        with pytest.raises(ConfigError):
            pseudo_label(CorrectionParams.identity(), pool_logits, tau=0.5)
        with pytest.raises(ConfigError):
            pseudo_label(CorrectionParams.identity(), pool_logits, tau=1.0)

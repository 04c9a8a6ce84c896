import json

import numpy as np
import pytest

from shiftadapt.config import to_dict
from shiftadapt.metrics import (
    ConfusionMatrix,
    balanced_accuracy,
    confusion,
    f1_and_accuracy,
    metrics_report,
)


class TestConfusion:
    def test_perfect_agreement(self):
        truth = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        cm = confusion(truth, truth)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (4, 6, 0, 0)

    def test_constant_positive_predictor(self):
        truth = [1] * 5 + [0] * 5
        cm = confusion([1] * 10, truth)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 5, 0, 0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            preds = rng.integers(0, 2, 20).tolist()
            truth = rng.integers(0, 2, 20).tolist()
            if i % 2:  # numpy int arrays as well as lists
                cm = confusion(np.asarray(preds), np.asarray(truth))
            else:
                cm = confusion(preds, truth)
            assert all(type(c) is int for c in (cm.tp, cm.tn, cm.fp, cm.fn))
            # independent per-element loop
            tp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 1)
            tn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 0)
            fp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 0)
            fn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 1)
            assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)
            assert cm.n == 20

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])
        with pytest.raises(ValueError):
            confusion([], [])

    def test_non_binary_labels(self):
        for label in (2, None, 0.5, "1", -1, float("nan")):
            for preds, truth in (([label], [1]), ([1], [label]), ([0, label], [1, 0])):
                with pytest.raises(ValueError):
                    confusion(preds, truth)
        # bools and 1.0 equal 0 or 1, so they count as labels
        for label in (True, False, 1.0):
            for preds, truth in (([label], [1]), ([1], [label]), ([0, label], [1, 0])):
                cm = confusion(preds, truth)
                pairs = list(zip(preds, truth))
                assert (cm.tp, cm.fn) == (pairs.count((1, 1)), pairs.count((0, 1)))
                assert (cm.fp, cm.tn) == (pairs.count((1, 0)), pairs.count((0, 0)))


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy(ConfusionMatrix(4, 6, 0, 0)) == 1.0

    def test_constant_predictor_is_half(self):
        truth = [1] * 7 + [0] * 3
        assert balanced_accuracy(confusion([1] * 10, truth)) == 0.5
        assert balanced_accuracy(confusion([0] * 10, truth)) == 0.5

    def test_hand_computed(self):
        # TPR = 90/100, TNR = 5/10
        assert balanced_accuracy(ConfusionMatrix(tp=90, tn=5, fp=5, fn=10)) == pytest.approx(0.7)

    def test_zero_support_rate_is_zero_and_flagged(self):
        cm = ConfusionMatrix(tp=0, tn=8, fp=2, fn=0)  # no positives in truth
        assert balanced_accuracy(cm) == pytest.approx(0.5 * (0.0 + 0.8))
        assert "no_positive_support" in metrics_report(cm).degenerate


class TestF1Accuracy:
    def test_perfect(self):
        assert f1_and_accuracy(ConfusionMatrix(4, 6, 0, 0)) == (1.0, 1.0)

    def test_zero_denominator_flagged(self):
        cm = ConfusionMatrix(tp=0, tn=5, fp=0, fn=5)
        f1, acc = f1_and_accuracy(cm)
        assert f1 == 0.0 and acc == 0.5
        assert "f1_undefined" not in metrics_report(cm).degenerate  # denominator is fn=5 > 0
        empty_pos = ConfusionMatrix(tp=0, tn=10, fp=0, fn=0)
        assert "f1_undefined" in metrics_report(empty_pos).degenerate

    def test_hand_computed(self):
        f1, acc = f1_and_accuracy(ConfusionMatrix(tp=8, tn=6, fp=2, fn=4))
        assert f1 == pytest.approx(16 / 22)
        assert acc == pytest.approx(0.7)


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        preds = rng.integers(0, 2, 30).tolist()
        truth = rng.integers(0, 2, 30).tolist()
        base = metrics_report(confusion(preds, truth))
        for _ in range(10):
            perm = rng.permutation(30)
            shuffled = metrics_report(
                confusion([preds[i] for i in perm], [truth[i] for i in perm])
            )
            assert shuffled == base

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 6, 4)))
            if cm.n == 0:
                continue
            rep = metrics_report(cm)
            assert 0.0 <= rep.ba <= 1.0
            assert 0.0 <= rep.accuracy <= 1.0
            assert 0.0 <= rep.f1 <= 1.0

    def test_accuracy_exceeds_ba_under_imbalance(self):
        # constant majority-class predictor: accuracy = prior, BA pinned at 0.5
        truth = [1] * 95 + [0] * 5
        cm = confusion([1] * 100, truth)
        _, acc = f1_and_accuracy(cm)
        assert acc == pytest.approx(0.95)
        assert balanced_accuracy(cm) == 0.5
        assert acc > balanced_accuracy(cm)


class TestSerialization:
    def test_json_dict(self):
        rep = metrics_report(ConfusionMatrix(tp=8, tn=6, fp=2, fn=4))
        # the JSON the CLI writes: the tuple of flags becomes a list
        d = json.loads(json.dumps(to_dict(rep)))
        assert d["n"] == 20 and d["support_pos"] == 12 and d["degenerate"] == []

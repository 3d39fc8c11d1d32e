"""Tests for metrics, feature extraction, and linear probing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import get_mae_config
from repro.data.datasets import ArrayDataset, DatasetSpec, SplitDataset
from repro.eval.features import extract_features, standardize_features
from repro.eval.linear_probe import linear_probe, probe_features
from repro.eval.metrics import topk_accuracy
from repro.models.mae import MaskedAutoencoder


def confusion_matrix(
    pred: np.ndarray, labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """(n_classes, n_classes) counts; rows = true class, cols = predicted."""
    pred = np.asarray(pred, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if pred.shape != labels.shape:
        raise ValueError("pred/labels shape mismatch")
    if ((pred < 0) | (pred >= n_classes)).any():
        raise ValueError("prediction out of class range")
    if ((labels < 0) | (labels >= n_classes)).any():
        raise ValueError("label out of class range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (labels, pred), 1)
    return cm


class TestTopK:
    def test_top1_exact(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        assert topk_accuracy(logits, np.array([1, 0, 0]), k=1) == pytest.approx(2 / 3)

    def test_topk_monotone_in_k(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((50, 10))
        labels = rng.integers(0, 10, 50)
        accs = [topk_accuracy(logits, labels, k=k) for k in range(1, 11)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0  # k = n_classes

    @given(
        n=st.integers(2, 40),
        c=st.integers(2, 8),
        k=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_argsort(self, n, c, k, seed):
        if k > c:
            k = c
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, c))
        labels = rng.integers(0, c, n)
        naive = np.mean(
            [
                label in np.argsort(-row)[:k]
                for row, label in zip(logits, labels)
            ]
        )
        assert topk_accuracy(logits, labels, k=k) == pytest.approx(naive)

    def test_validation(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros((2, 3)), np.zeros(2), k=4)
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="mismatch"):
            topk_accuracy(np.zeros((2, 3)), np.zeros(3))


class TestConfusion:
    def test_counts(self):
        cm = confusion_matrix(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_diagonal_is_correct_predictions(self):
        pred = np.array([0, 1, 2, 2])
        cm = confusion_matrix(pred, pred, 3)
        assert cm.trace() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([3]), np.array([0]), 2)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([5]), 2)


class TestFeatures:
    def test_extract_batches_consistently(self, tiny_mae_cfg, rng):
        model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
        imgs = rng.standard_normal((10, 3, 16, 16))
        all_at_once = extract_features(model, imgs, batch_size=10)
        chunked = extract_features(model, imgs, batch_size=3)
        np.testing.assert_allclose(all_at_once, chunked, atol=1e-12)

    def test_empty_input_returns_zero_by_width(self, tiny_mae_cfg):
        # Regression: np.concatenate([]) used to blow up on N == 0.
        model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
        empty = np.zeros((0, 3, 16, 16), dtype=np.float32)
        feats = extract_features(model, empty)
        assert feats.shape == (0, tiny_mae_cfg.encoder.width)
        # Same dtype promotion as the non-empty path (float64 compute).
        assert feats.dtype == np.float64
        # Downstream consumers keep working on the empty result.
        np.testing.assert_array_equal(
            np.concatenate([feats, feats]), np.zeros((0, tiny_mae_cfg.encoder.width))
        )

    def test_standardize_uses_train_stats(self, rng):
        train = rng.standard_normal((50, 8)) * 3 + 1
        test = rng.standard_normal((20, 8))
        strain, stest = standardize_features(train, test)
        np.testing.assert_allclose(strain.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(strain.std(axis=0), 1, atol=1e-2)
        # Test set uses train statistics, not its own.
        assert not np.allclose(stest.mean(axis=0), 0, atol=1e-3)

    def test_validation(self, rng):
        model = MaskedAutoencoder(
            get_mae_config("proxy-base"), rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            extract_features(model, rng.standard_normal((3, 16, 16)))
        with pytest.raises(ValueError):
            standardize_features(rng.standard_normal(5))


class TestLinearProbe:
    def test_learns_linearly_separable_features(self, rng):
        """On trivially separable synthetic features the probe must hit
        ~100% quickly."""
        n, d, c = 120, 16, 4
        y = np.arange(n) % c
        feats = rng.standard_normal((n, d)) * 0.1
        feats[np.arange(n), y] += 5.0
        yte = np.arange(40) % c
        fte = rng.standard_normal((40, d)) * 0.1
        fte[np.arange(40), yte] += 5.0
        res = probe_features(feats, y, fte, yte, n_classes=c, epochs=10, seed=0)
        assert res.final_top1 > 0.95
        assert len(res.top1) == 10
        assert res.best_top1 >= res.top1[0]

    def test_records_every_epoch(self, rng):
        res = probe_features(
            rng.standard_normal((20, 4)),
            np.arange(20) % 2,
            rng.standard_normal((10, 4)),
            np.arange(10) % 2,
            n_classes=2,
            epochs=7,
        )
        assert len(res.top1) == len(res.top5) == len(res.train_losses) == 7

    def test_top5_at_least_top1(self, rng):
        res = probe_features(
            rng.standard_normal((60, 8)),
            np.arange(60) % 6,
            rng.standard_normal((30, 8)),
            np.arange(30) % 6,
            n_classes=6,
            epochs=3,
        )
        assert all(t5 >= t1 for t1, t5 in zip(res.top1, res.top5))

    def test_full_protocol_on_tiny_dataset(self, tiny_mae_cfg, rng):
        model = MaskedAutoencoder(tiny_mae_cfg, rng=np.random.default_rng(1))
        spec = DatasetSpec("toy", 2, 16, 8, 1, 0.1, 2, 16, 8)
        imgs_tr = rng.standard_normal((16, 3, 16, 16))
        imgs_te = rng.standard_normal((8, 3, 16, 16))
        data = SplitDataset(
            spec=spec,
            train=ArrayDataset(imgs_tr, np.arange(16) % 2),
            test=ArrayDataset(imgs_te, np.arange(8) % 2),
        )
        res = linear_probe(model, data, epochs=2, model_name="tiny")
        assert res.dataset == "toy"
        assert res.model == "tiny"
        assert 0.0 <= res.final_top1 <= 1.0

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="positive"):
            probe_features(
                rng.standard_normal((4, 2)), np.zeros(4, int),
                rng.standard_normal((4, 2)), np.zeros(4, int),
                n_classes=2, epochs=0,
            )


class TestTopKTies:
    @given(
        n=st.integers(1, 30),
        c=st.integers(2, 8),
        k=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_ties_break_by_class_index(self, n, c, k, seed):
        """Integer-valued logits tie often; the stable argsort is the oracle."""
        k = min(k, c)
        rng = np.random.default_rng(seed)
        logits = rng.integers(-2, 3, size=(n, c)).astype(np.float64)
        labels = rng.integers(0, c, n)
        top = np.argsort(-logits, axis=1, kind="stable")[:, :k]
        expected = float((top == labels[:, None]).any(axis=1).mean())
        assert topk_accuracy(logits, labels, k=k) == expected

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="class range"):
            topk_accuracy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError, match="class range"):
            topk_accuracy(np.zeros((2, 3)), np.array([-1, 0]))

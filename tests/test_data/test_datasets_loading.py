"""Tests for dataset builders, dataloader, sampler, and transforms."""

import numpy as np
import pytest

from repro.data.datasets import (
    DATASET_SPECS,
    ArrayDataset,
    build_dataset,
    build_pretraining_corpus,
)
from repro.data.transforms import (
    IMAGENET_MEAN,
    IMAGENET_STD,
    normalize_images,
    random_flip,
)
from tests.test_data.dataloader import DataLoader
from tests.test_data.sampler import DistributedSampler


def denormalize_images(
    images: np.ndarray,
    mean: np.ndarray = IMAGENET_MEAN,
    std: np.ndarray = IMAGENET_STD,
) -> np.ndarray:
    """Inverse of :func:`normalize_images` over ``(..., C, H, W)``."""
    return images * std[:, None, None] + mean[:, None, None]


class TestDatasetSpecs:
    def test_paper_train_ratios_preserved(self):
        for spec in DATASET_SPECS.values():
            assert spec.train_ratio == pytest.approx(
                spec.paper_train_ratio, abs=0.005
            ), spec.name

    def test_paper_sizes_recorded(self):
        assert DATASET_SPECS["millionaid"].paper_train == 1000
        assert DATASET_SPECS["ucm"].paper_test == 1050
        assert DATASET_SPECS["nwpu"].paper_test == 28350


class TestBuildDataset:
    def test_sizes_and_classes(self):
        data = build_dataset("ucm", img_size=16)
        spec = DATASET_SPECS["ucm"]
        assert len(data.train) == spec.n_train
        assert len(data.test) == spec.n_test
        assert data.train.n_classes == spec.n_classes

    def test_balanced_labels(self):
        data = build_dataset("ucm", img_size=16)
        counts = np.bincount(data.train.labels)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a = build_dataset("aid", img_size=16, seed=3)
        b = build_dataset("aid", img_size=16, seed=3)
        np.testing.assert_array_equal(a.train.images, b.train.images)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            build_dataset("imagenet")

    def test_pretraining_corpus_uses_millionaid_salt(self):
        corpus = build_pretraining_corpus(n_images=24, img_size=16)
        assert len(corpus) == 24
        assert corpus.name == "millionaid/pretrain"

    def test_array_dataset_validation(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.standard_normal((2, 3, 4)), np.zeros(2))
        with pytest.raises(ValueError, match="mismatch"):
            ArrayDataset(rng.standard_normal((2, 3, 4, 4)), np.zeros(3))


class TestDataLoader:
    def _dataset(self, rng, n=10):
        return ArrayDataset(
            rng.standard_normal((n, 3, 4, 4)), np.arange(n) % 3
        )

    def test_batch_shapes(self, rng):
        dl = DataLoader(self._dataset(rng), batch_size=4, shuffle=False)
        batches = list(dl)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 3, 4, 4)
        assert batches[2][0].shape == (2, 3, 4, 4)  # remainder

    def test_drop_last(self, rng):
        dl = DataLoader(
            self._dataset(rng), batch_size=4, shuffle=False, drop_last=True
        )
        assert len(dl) == 2
        assert len(list(dl)) == 2

    def test_epoch_covers_all_items(self, rng):
        ds = self._dataset(rng)
        dl = DataLoader(ds, batch_size=3, shuffle=True, seed=1)
        seen = np.concatenate([y for _, y in dl])
        assert sorted(seen.tolist()) == sorted(ds.labels.tolist())

    def test_shuffle_differs_across_epochs_but_reproducible(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3, 4, 4)), np.arange(10))
        dl1 = DataLoader(ds, batch_size=10, shuffle=True, seed=7)
        e0 = next(iter(dl1))[1]
        e1 = next(iter(dl1))[1]
        assert not np.array_equal(e0, e1)
        dl2 = DataLoader(ds, batch_size=10, shuffle=True, seed=7)
        np.testing.assert_array_equal(next(iter(dl2))[1], e0)

    def test_set_epoch(self, rng):
        ds = self._dataset(rng)
        dl1 = DataLoader(ds, batch_size=10, seed=7)
        dl1.set_epoch(5)
        got = next(iter(dl1))[1]
        dl2 = DataLoader(ds, batch_size=10, seed=7)
        dl2.set_epoch(5)
        np.testing.assert_array_equal(next(iter(dl2))[1], got)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            DataLoader(self._dataset(rng), batch_size=0)
        with pytest.raises(ValueError, match="exceeds"):
            DataLoader(self._dataset(rng, n=4), batch_size=8, drop_last=True)

    def test_oversized_batch_yields_single_short_batch(self, rng):
        # torch semantics: batch_size > len(dataset) is fine without
        # drop_last — one short batch containing the whole dataset.
        ds = self._dataset(rng, n=4)
        dl = DataLoader(ds, batch_size=8, shuffle=False)
        assert len(dl) == 1
        batches = list(dl)
        assert len(batches) == 1
        assert batches[0][0].shape == (4, 3, 4, 4)
        np.testing.assert_array_equal(
            np.sort(batches[0][1]), np.sort(ds.labels)
        )


class TestDistributedSampler:
    def test_ranks_partition_epoch(self):
        samplers = [DistributedSampler(16, 4, r, seed=1) for r in range(4)]
        chunks = [s.epoch_indices(0) for s in samplers]
        union = np.concatenate(chunks)
        assert sorted(union.tolist()) == list(range(16))
        assert all(len(c) == 4 for c in chunks)

    def test_union_is_the_global_permutation(self):
        """Interleaving rank slices reconstructs the 1-rank order."""
        single = DistributedSampler(12, 1, 0, seed=3).epoch_indices(2)
        multi = [DistributedSampler(12, 3, r, seed=3).epoch_indices(2) for r in range(3)]
        reconstructed = np.empty(12, dtype=int)
        for r, chunk in enumerate(multi):
            reconstructed[r::3] = chunk
        np.testing.assert_array_equal(reconstructed, single)

    def test_epochs_differ(self):
        s = DistributedSampler(32, 2, 0, seed=0)
        assert not np.array_equal(s.epoch_indices(0), s.epoch_indices(1))

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedSampler(0, 1, 0)
        with pytest.raises(ValueError):
            DistributedSampler(8, 2, 2)

    def test_drop_last_truncates(self):
        samplers = [DistributedSampler(7, 2, r, seed=5) for r in range(2)]
        chunks = [s.epoch_indices(0) for s in samplers]
        assert all(len(c) == 3 for c in chunks)
        union = sorted(np.concatenate(chunks).tolist())
        # 6 distinct items survive; exactly one is dropped this epoch.
        assert len(set(union)) == 6

    def test_padding_mode_wraps(self):
        samplers = [
            DistributedSampler(7, 2, r, seed=5, drop_last=False) for r in range(2)
        ]
        chunks = [s.epoch_indices(0) for s in samplers]
        assert all(len(c) == 4 for c in chunks)
        union = np.concatenate(chunks)
        # Every item appears; the pad duplicates the permutation's head.
        assert set(union.tolist()) == set(range(7))
        assert len(union) == 8

    def test_padding_mode_exact_division_unchanged(self):
        a = DistributedSampler(8, 2, 0, seed=1).epoch_indices(0)
        b = DistributedSampler(8, 2, 0, seed=1, drop_last=False).epoch_indices(0)
        np.testing.assert_array_equal(a, b)


class TestTransforms:
    def test_normalize_roundtrip(self, rng):
        x = rng.random((2, 3, 4, 4))
        np.testing.assert_allclose(
            denormalize_images(normalize_images(x)), x, atol=1e-12
        )

    def test_normalize_single_image(self, rng):
        x = rng.random((3, 4, 4))
        assert normalize_images(x).shape == x.shape

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channel"):
            normalize_images(rng.random((2, 4, 4, 4)))

    def test_random_flip_preserves_content(self, rng):
        x = rng.random((8, 3, 4, 4))
        y = random_flip(x, np.random.default_rng(0))
        for i in range(8):
            same = np.array_equal(y[i], x[i])
            flipped = np.array_equal(y[i], x[i, :, :, ::-1])
            assert same or flipped

    def test_random_flip_actually_flips_some(self):
        rng = np.random.default_rng(1)
        x = np.arange(8 * 3 * 4 * 4, dtype=float).reshape(8, 3, 4, 4)
        y = random_flip(x, rng)
        assert not np.array_equal(x, y)

"""Every downstream protocol refuses bad labels at the training loop's door.

Labels that do not match the rows used to train on a prefix, a label of
-1 trained against the last class, and an empty training split died with
a bare ``ZeroDivisionError`` after NaN warnings. Each is now a
``ValueError`` raised before any feature is extracted.
"""

import numpy as np
import pytest

from repro.data.datasets import ArrayDataset, DatasetSpec, SplitDataset
from repro.data.segmentation import SegmentationDataset
from repro.eval.few_shot import few_shot_probe
from repro.eval.finetune import finetune
from repro.eval.linear_probe import linear_probe, probe_features
from repro.eval.segmentation import segmentation_probe

N_CLASSES = 3


class NoExtract:
    """A source model whose encoder must never run."""

    def encode_features(self, images):
        raise AssertionError("features extracted before the labels were checked")

    encode_patch_tokens = encode_features


def _split(labels):
    labels = np.asarray(labels)
    images = np.zeros((len(labels), 3, 16, 16))
    return SplitDataset(
        spec=DatasetSpec("toy", N_CLASSES, len(labels), 4, 1, 0.1, N_CLASSES, 8, 4),
        train=ArrayDataset(images, labels),
        test=ArrayDataset(np.zeros((4, 3, 16, 16)), np.arange(4) % N_CLASSES),
    )


def _seg(labels):
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 4)
    return SegmentationDataset(
        images=np.zeros((len(labels), 3, 16, 16)),
        patch_labels=labels,
        pixel_labels=np.zeros((len(labels), 16, 16), dtype=np.int64),
        patch=8,
        n_classes=N_CLASSES,
    )


BAD_LABELS = {
    "negative": ([0, 1, -1, 2], "outside"),
    "too_large": ([0, 1, 3, 2], "outside"),
    "empty": ([], "empty"),
}


class TestProbeFeatures:
    def test_labels_longer_than_features(self, rng):
        with pytest.raises(ValueError, match="20 labels for 10"):
            probe_features(
                rng.standard_normal((10, 4)), np.arange(20) % 2,
                rng.standard_normal((5, 4)), np.arange(5) % 2, n_classes=2,
            )

    @pytest.mark.parametrize("case", BAD_LABELS)
    def test_bad_labels(self, case, rng):
        labels, match = BAD_LABELS[case]
        with pytest.raises(ValueError, match=match):
            probe_features(
                rng.standard_normal((len(labels), 4)), np.asarray(labels, dtype=np.int64),
                rng.standard_normal((5, 4)), np.arange(5) % N_CLASSES,
                n_classes=N_CLASSES,
            )


@pytest.mark.parametrize("case", BAD_LABELS)
class TestEveryProtocolRefusesBeforeExtracting:
    def test_linear_probe(self, case):
        labels, match = BAD_LABELS[case]
        with pytest.raises(ValueError, match=match):
            linear_probe(NoExtract(), _split(labels), epochs=2)

    def test_few_shot(self, case):
        labels, match = BAD_LABELS[case]
        with pytest.raises(ValueError, match=match):
            few_shot_probe(NoExtract(), _split(labels), shots=[1], epochs=2)

    def test_segmentation(self, case):
        labels, match = BAD_LABELS[case]
        data = _seg(labels)
        with pytest.raises(ValueError, match=match):
            segmentation_probe(NoExtract(), data, data, epochs=2)

    def test_finetune(self, case):
        labels, match = BAD_LABELS[case]
        with pytest.raises(ValueError, match=match):
            finetune(NoExtract(), _split(labels), epochs=2)

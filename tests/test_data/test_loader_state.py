"""Resume-cursor tests for the DataLoader."""

import numpy as np
import pytest

from repro.data.datasets import ArrayDataset
from tests.test_data.dataloader import DataLoader


def _loader(seed=5, shuffle=True):
    imgs = np.arange(20 * 3 * 4 * 4, dtype=np.float64).reshape(20, 3, 4, 4)
    labels = np.arange(20) % 5
    return DataLoader(
        ArrayDataset(imgs, labels), batch_size=4, shuffle=shuffle, seed=seed
    )


def _epoch_batches(loader):
    return [(x.copy(), y.copy()) for x, y in loader]


def _assert_epochs_equal(ba, bb):
    assert len(ba) == len(bb)
    for (xa, ya), (xb, yb) in zip(ba, bb):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)


def test_state_roundtrip_resumes_same_permutations():
    a = _loader()
    a.set_epoch(3)
    b = _loader()
    b.load_state_dict(a.state_dict())
    # Epoch 3, then the auto-advanced epoch 4: both streams must agree.
    for _ in range(2):
        _assert_epochs_equal(_epoch_batches(a), _epoch_batches(b))


def test_state_dict_contents():
    a = _loader(seed=9)
    a.set_epoch(7)
    assert a.state_dict() == {"epoch": 7, "batch": 0, "seed": 9}


def test_mismatched_seed_rejected():
    sd = _loader(seed=1).state_dict()
    with pytest.raises(ValueError, match="seed"):
        _loader(seed=2).load_state_dict(sd)


def test_epoch_cursor_fast_forwards():
    # A fresh loader fast-forwarded to epoch k yields epoch k's batches —
    # the property that lets a resumed run skip replaying earlier epochs.
    for epoch in range(3):
        a = _loader()
        a.set_epoch(epoch)
        fresh = _loader()
        fresh.load_state_dict({"epoch": epoch, "batch": 0, "seed": 5})
        _assert_epochs_equal(_epoch_batches(a), _epoch_batches(fresh))


def test_legacy_cursor_without_batch_key_resumes_at_epoch_boundary():
    # Cursors written before batch-granularity resume carry no "batch"
    # key; they must restore exactly as they used to.
    fresh = _loader()
    fresh.load_state_dict({"epoch": 2, "seed": 5})
    assert fresh.state_dict() == {"epoch": 2, "batch": 0, "seed": 5}
    ref = _loader()
    ref.set_epoch(2)
    _assert_epochs_equal(_epoch_batches(ref), _epoch_batches(fresh))


@pytest.mark.parametrize("consumed", [1, 3, 4])
def test_mid_epoch_snapshot_resumes_without_replay_or_skip(consumed):
    # The uninterrupted reference stream: epochs 0 and 1, back to back.
    ref = _loader()
    uninterrupted = _epoch_batches(ref) + _epoch_batches(ref)

    # Interrupted run: consume `consumed` batches, snapshot, restore
    # into a brand-new loader, and drain to the end of epoch 1.
    a = _loader()
    it = iter(a)
    seen = [(x.copy(), y.copy()) for _, (x, y) in zip(range(consumed), it)]
    sd = a.state_dict()
    assert sd["batch"] == consumed % len(a)  # cursor points at the NEXT batch

    b = _loader()
    b.load_state_dict(sd)
    seen += _epoch_batches(b)  # remainder of epoch 0
    seen += _epoch_batches(b)  # all of epoch 1

    # Concatenation replays the uninterrupted permutation sequence:
    # nothing repeated, nothing skipped, mid-epoch included.
    _assert_epochs_equal(seen, uninterrupted)


def test_snapshot_is_batch_granular_not_sample_granular():
    # Documented limitation: the cursor counts a batch as consumed the
    # moment it is yielded. A snapshot taken "mid-batch" (after the
    # yield, before the consumer finishes with it) resumes at the NEXT
    # batch — the in-flight batch is never replayed.
    a = _loader()
    it = iter(a)
    first = next(it)
    sd = a.state_dict()
    assert sd == {"epoch": 0, "batch": 1, "seed": 5}
    b = _loader()
    b.load_state_dict(sd)
    resumed = _epoch_batches(b)
    # The resumed stream starts at batch 1; batch 0 does not reappear.
    x0, _ = first
    for x, _ in resumed:
        assert not np.array_equal(x, x0)


def test_exhausting_iteration_advances_epoch_and_rewinds_batch():
    a = _loader()
    _ = _epoch_batches(a)
    assert a.state_dict() == {"epoch": 1, "batch": 0, "seed": 5}

"""RngPool snapshot/restore: mid-sequence bit-exact continuation."""

import numpy as np
import pytest

from tests.test_utils.rng import RngPool


def test_mid_sequence_restore_continues_exactly():
    pool = RngPool(42)
    pool.get("masking").standard_normal(10)  # advance mid-sequence
    pool.get("shuffle").integers(0, 100, size=5)
    sd = pool.state_dict()

    restored = RngPool(42)
    restored.load_state_dict(sd)
    np.testing.assert_array_equal(
        pool.get("masking").standard_normal(16),
        restored.get("masking").standard_normal(16),
    )
    np.testing.assert_array_equal(
        pool.get("shuffle").integers(0, 100, size=8),
        restored.get("shuffle").integers(0, 100, size=8),
    )


def test_unmaterialized_streams_still_deterministic_after_restore():
    pool = RngPool(7)
    pool.get("a").random(3)
    restored = RngPool(7)
    restored.load_state_dict(pool.state_dict())
    # A stream never drawn before the snapshot is created fresh on both
    # sides from the same root seed.
    np.testing.assert_array_equal(
        pool.get("new-stream").random(4), restored.get("new-stream").random(4)
    )


def test_mismatched_seed_rejected():
    sd = RngPool(1).state_dict()
    with pytest.raises(ValueError, match="seed"):
        RngPool(2).load_state_dict(sd)


def test_state_dict_is_json_like():
    import json

    pool = RngPool(3)
    pool.get("x").random(2)
    json.dumps(pool.state_dict())  # must not raise

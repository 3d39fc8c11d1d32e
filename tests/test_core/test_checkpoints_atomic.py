"""Tests for atomic, versioned, checksummed checkpoints.

Covers the satellite regression: a crash mid-write (simulated by a
monkeypatched writer that emits partial bytes then dies) must leave the
previous good snapshot untouched and loadable.
"""

import hashlib
import io
import os

import numpy as np
import pytest

import repro.core.checkpoints as ckpt_mod
from repro.core.checkpoints import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointManager,
    checkpoint_exists,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.config import get_mae_config
from repro.models.mae import MaskedAutoencoder
from repro.precision.bf16 import bf16_round

CFG = get_mae_config("proxy-base")


def _model(seed=0):
    return MaskedAutoencoder(CFG, rng=np.random.default_rng(seed))


def _nested_state(rng):
    return {
        "model": {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(3)},
        "optimizer": {
            "t": 7,
            "lr": 1.5e-4,
            "slots": [{"m": rng.standard_normal(4)}, {}],
        },
        "step_count": 7,
        "note": "hello",
        "flag": True,
        "nothing": None,
    }


class TestAtomicWrite:
    def test_crash_mid_write_preserves_previous_snapshot(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.npz")
        model = _model(0)
        save_checkpoint(model, path, meta={"step": 1})

        # Simulate the writer dying partway: write half the real archive
        # bytes, then crash.
        real_writer = ckpt_mod._write_payload

        def dying_writer(fileobj, payload):
            buf = io.BytesIO()
            real_writer(buf, payload)
            raw = buf.getvalue()
            fileobj.write(raw[: len(raw) // 2])
            raise IOError("disk died mid-write")

        monkeypatch.setattr(ckpt_mod, "_write_payload", dying_writer)
        with pytest.raises(IOError, match="mid-write"):
            save_checkpoint(_model(99), path, meta={"step": 2})
        monkeypatch.undo()

        # The old snapshot survived, bit-for-bit, and no temp junk remains.
        fresh = _model(5)
        meta = load_checkpoint(fresh, path)
        assert meta == {"step": 1}
        for (_, a), (_, b) in zip(
            model.named_parameters(), fresh.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)
        assert [n for n in os.listdir(tmp_path) if n != "ckpt.npz"] == []

    def test_crash_before_first_snapshot_leaves_nothing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.npz")

        def dying_writer(fileobj, payload):
            raise IOError("dead on arrival")

        monkeypatch.setattr(ckpt_mod, "_write_payload", dying_writer)
        with pytest.raises(IOError):
            save_checkpoint(_model(0), path)
        assert not checkpoint_exists(path)
        assert os.listdir(tmp_path) == []


class TestModelCheckpointFormat:
    def test_roundtrip_with_version_and_checksum(self, tmp_path):
        path = str(tmp_path / "m")
        save_checkpoint(_model(3), path, meta={"k": [1, 2]})
        assert checkpoint_exists(path)
        meta = load_checkpoint(_model(4), path)
        assert meta == {"k": [1, 2]}

    def test_corrupted_archive_detected(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_checkpoint(_model(3), path)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(_model(0), path)

    def test_truncated_archive_detected(self, tmp_path):
        path = str(tmp_path / "m.npz")
        save_checkpoint(_model(3), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 3])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(_model(0), path)

    def test_checksum_catches_silent_payload_swap(self, tmp_path):
        # Rewrite one array through plain np.savez (valid zip, valid CRCs)
        # without updating the stored digest: only our checksum layer can
        # catch this class of corruption.
        path = str(tmp_path / "m.npz")
        save_checkpoint(_model(3), path)
        with np.load(path) as ar:
            payload = {k: ar[k] for k in ar.files}
        victim = next(k for k in payload if k != "__meta__")
        payload[victim] = payload[victim] + 1.0
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError, match="checksum mismatch"):
            load_checkpoint(_model(0), path)

    def test_versionless_archive_refused(self, tmp_path):
        # An archive whose metadata lost its version field used to load
        # with its checksum unread: strip the field from a saved archive.
        import json

        path = str(tmp_path / "m.npz")
        save_checkpoint(_model(3), path, meta={"k": 1})
        assert load_checkpoint(_model(4), path) == {"k": 1}  # v2 round-trips
        with np.load(path) as ar:
            payload = {k: ar[k] for k in ar.files}
        meta = json.loads(bytes(payload["__meta__"]).decode("utf-8"))
        del meta["__ckpt_version__"]
        payload["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError, match="__ckpt_version__"):
            load_checkpoint(_model(0), path)

    def test_future_version_refused(self, tmp_path):
        import json

        path = str(tmp_path / "future.npz")
        payload = {
            "x": np.zeros(2),
            "__meta__": np.frombuffer(
                json.dumps({"__ckpt_version__": CHECKPOINT_VERSION + 1}).encode(),
                dtype=np.uint8,
            ),
        }
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointCorruptError, match="newer"):
            load_checkpoint(_model(0), path)


def _tobytes_checksum(arrays):
    """Format v2's digest as first written: every array through a
    ``tobytes`` copy of its C-contiguous form."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode("utf-8"))
        h.update(str(a.dtype).encode("utf-8"))
        h.update(str(a.shape).encode("utf-8"))
        h.update(a.tobytes())
    return h.hexdigest()


class TestStateChecksum:
    def test_in_place_digest_equals_the_tobytes_formula(self, rng):
        grid = rng.standard_normal((6, 8))
        cases = {
            "fp64": {"w": grid},
            "bf16": {"w": bf16_round(grid.astype(np.float32))},
            "bool": {"mask": rng.random((5, 3)) < 0.5},
            "0d": {"t": np.array(7.25)},
            "strided": {"w": grid[:, ::3], "wt": grid.T, "rows": grid[::2]},
            "empty": {"z": np.zeros((0, 4))},
        }
        for name, arrays in cases.items():
            assert ckpt_mod._state_checksum(arrays) == _tobytes_checksum(arrays), name
        merged = {f"{n}/{k}": v for n, a in cases.items() for k, v in a.items()}
        assert ckpt_mod._state_checksum(merged) == _tobytes_checksum(merged)


class TestCheckpointManager:
    def test_nested_state_roundtrip_is_exact(self, tmp_path, rng):
        mgr = CheckpointManager(str(tmp_path))
        state = _nested_state(rng)
        mgr.save(state, step=7, meta={"who": "test"})
        loaded, meta = mgr.load_step(7)
        assert meta == {"who": "test"}
        np.testing.assert_array_equal(loaded["model"]["w"], state["model"]["w"])
        np.testing.assert_array_equal(
            loaded["optimizer"]["slots"][0]["m"], state["optimizer"]["slots"][0]["m"]
        )
        assert loaded["optimizer"]["slots"][1] == {}
        # Scalar types survive exactly (ints stay ints, floats bit-exact).
        assert loaded["optimizer"]["t"] == 7 and isinstance(loaded["optimizer"]["t"], int)
        assert loaded["optimizer"]["lr"] == 1.5e-4
        assert loaded["step_count"] == 7
        assert loaded["note"] == "hello"
        assert loaded["flag"] is True
        assert loaded["nothing"] is None
        assert loaded["model"]["w"].dtype == state["model"]["w"].dtype

    def test_latest_valid_falls_back_past_corruption(self, tmp_path, rng):
        mgr = CheckpointManager(str(tmp_path), keep=3)
        for step in (2, 4, 6):
            mgr.save({"x": np.full(3, float(step))}, step=step)
        # Corrupt the newest snapshot on disk.
        newest = mgr.path_for(6)
        raw = bytearray(open(newest, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(newest, "wb").write(bytes(raw))

        state, _, step = mgr.latest_valid()
        assert step == 4
        np.testing.assert_array_equal(state["x"], np.full(3, 4.0))

    def test_latest_valid_none_when_empty_or_all_corrupt(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "nowhere"))
        assert mgr.latest_valid() is None
        mgr2 = CheckpointManager(str(tmp_path))
        mgr2.save({"x": np.zeros(2)}, step=1)
        open(mgr2.path_for(1), "wb").write(b"garbage")
        assert mgr2.latest_valid() is None

    def test_pruning_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep=2)
        for step in (1, 2, 3, 4):
            mgr.save({"x": np.zeros(1)}, step=step)
        assert mgr.steps() == [3, 4]

    def test_missing_step_raises_filenotfound(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        with pytest.raises(FileNotFoundError):
            mgr.load_step(123)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(str(tmp_path), keep=0)
        mgr = CheckpointManager(str(tmp_path))
        with pytest.raises(TypeError, match="dict"):
            mgr.save([1, 2], step=0)
        with pytest.raises(ValueError, match="step"):
            mgr.save({"x": np.zeros(1)}, step=-1)
        with pytest.raises(ValueError, match="'/'-free"):
            mgr.save({"a/b": np.zeros(1)}, step=0)
        with pytest.raises(TypeError, match="cannot checkpoint"):
            mgr.save({"fn": lambda: None}, step=0)

"""Versioned, atomic, checksummed training checkpoints.

Two layers:

- A *model-only* API (:func:`save_checkpoint` / :func:`load_checkpoint`)
  kept source-compatible with the experiment suite: one ``.npz`` per
  model state dict plus JSON metadata.
- A *training* API (:class:`CheckpointManager`) for elastic resume: a
  directory of step-numbered snapshots, each holding an arbitrary nested
  state tree (model params, optimizer moments, LR-schedule position,
  loss history, RNG/loader cursors) flattened into one archive.

Both layers share the same durability contract:

**Atomic**
    Archives are written to a temp file in the destination directory,
    fsynced, then ``os.replace``-d over the final name (and the directory
    entry fsynced). A crash at any byte of the write leaves the previous
    snapshot untouched; partially written temp files are unlinked.
**Checksummed**
    Metadata records a SHA-256 over every array's name, dtype, shape and
    raw bytes. On load the digest is recomputed and compared; any
    mismatch — or an unreadable/truncated archive — raises
    :class:`CheckpointCorruptError` instead of returning garbage.
**Versioned**
    Metadata records ``CHECKPOINT_VERSION``. Archives from a newer
    format than this reader understands, or carrying no version at all
    (which would otherwise load with no checksum), are refused loudly.

:meth:`CheckpointManager.latest_valid` walks snapshots newest-first and
silently skips corrupt ones, so a run killed mid-save resumes from the
last *valid* snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile

import numpy as np

from repro.models.module import Module

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "CheckpointManager",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_exists",
]

#: Format version written into every archive's metadata.
CHECKPOINT_VERSION = 2

_META_KEY = "__meta__"
_VERSION_FIELD = "__ckpt_version__"


class CheckpointCorruptError(RuntimeError):
    """The archive is unreadable, truncated, or fails its checksum."""


# -- state-tree flattening -------------------------------------------------
#
# Nested state (dicts / lists / arrays / JSON scalars) is stored as flat
# "a/b/0/c"-keyed arrays plus a JSON manifest describing the structure, so
# one .npz holds an engine snapshot (model + optimizer slots + counters)
# without a schema baked into the format.


def _flatten_state(obj, prefix, arrays, manifest) -> None:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        keys = list(obj.keys())
        for k in keys:
            if not isinstance(k, str) or "/" in k:
                raise ValueError(f"state dict keys must be '/'-free strings, got {k!r}")
        manifest[prefix] = {"kind": "dict", "keys": keys}
        for k in keys:
            _flatten_state(obj[k], f"{prefix}/{k}" if prefix else k, arrays, manifest)
    elif isinstance(obj, (list, tuple)):
        manifest[prefix] = {"kind": "list", "len": len(obj)}
        for i, v in enumerate(obj):
            _flatten_state(v, f"{prefix}/{i}" if prefix else str(i), arrays, manifest)
    elif isinstance(obj, np.ndarray):
        manifest[prefix] = {"kind": "array"}
        arrays[prefix] = obj
    elif isinstance(obj, (bool, int, float, str)) or obj is None:
        # JSON round-trips Python ints exactly and floats via shortest
        # repr, so scalar state (step counters, lr) stays bit-exact.
        manifest[prefix] = {"kind": "scalar", "value": obj}
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__} at {prefix!r}")


def _unflatten_state(arrays: dict, manifest: dict, prefix: str = ""):
    node = manifest[prefix]
    kind = node["kind"]
    if kind == "dict":
        return {
            k: _unflatten_state(arrays, manifest, f"{prefix}/{k}" if prefix else k)
            for k in node["keys"]
        }
    if kind == "list":
        return [
            _unflatten_state(arrays, manifest, f"{prefix}/{i}" if prefix else str(i))
            for i in range(node["len"])
        ]
    if kind == "array":
        return arrays[prefix]
    if kind == "scalar":
        return node["value"]
    raise CheckpointCorruptError(f"unknown manifest kind {kind!r} at {prefix!r}")


def _state_checksum(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode("utf-8"))
        h.update(str(a.dtype).encode("utf-8"))
        h.update(str(a.shape).encode("utf-8"))
        # The buffer itself, not a ``tobytes`` copy; through a throwaway
        # view so the array keeps no buffer-export info (cf. image_digest).
        h.update(a.view())
    return h.hexdigest()


# -- atomic archive I/O ----------------------------------------------------


def _norm_path(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


def _write_payload(fileobj, payload: dict[str, np.ndarray]) -> None:
    """Serialize the archive to an open file object (test seam for
    simulating a crash mid-write). Entries are stored, not deflated:
    fp32 weights and optimizer moments barely compress, and deflate was
    nearly all of a save's time. ``np.load`` reads either form."""
    np.savez(fileobj, **payload)


def _atomic_savez(path: str, payload: dict[str, np.ndarray]) -> None:
    """Write ``payload`` as an ``.npz``, atomically replacing ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            _write_payload(f, payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dirfd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def _save_archive(path: str, arrays: dict[str, np.ndarray], meta: dict) -> None:
    if _META_KEY in arrays:
        raise ValueError(f"array name collides with reserved key {_META_KEY}")
    payload = dict(arrays)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    _atomic_savez(path, payload)


def _read_archive(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Load (arrays, meta) from ``path``; corruption raises, never returns."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            arrays = {k: archive[k] for k in archive.files if k != _META_KEY}
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError) as e:
        raise CheckpointCorruptError(f"unreadable checkpoint {path}: {e}") from e
    version = meta.get(_VERSION_FIELD)
    if version is None:
        raise CheckpointCorruptError(
            f"checkpoint {path} has no {_VERSION_FIELD} field in its metadata; "
            "every writer records one, so its checksum cannot be trusted"
        )
    if version > CHECKPOINT_VERSION:
        raise CheckpointCorruptError(
            f"checkpoint {path} has format version {version}, newer than "
            f"supported version {CHECKPOINT_VERSION}"
        )
    digest = _state_checksum(arrays)
    if digest != meta.get("checksum"):
        raise CheckpointCorruptError(
            f"checksum mismatch in {path}: stored {meta.get('checksum')!r}, "
            f"recomputed {digest!r}"
        )
    return arrays, meta


# -- model-only API (experiment suite) -------------------------------------


def save_checkpoint(model: Module, path: str, meta: dict | None = None) -> None:
    """Atomically write the model's state dict (plus JSON metadata)."""
    state = model.state_dict()
    full_meta = {
        _VERSION_FIELD: CHECKPOINT_VERSION,
        "checksum": _state_checksum(state),
        "meta": meta or {},
    }
    _save_archive(_norm_path(path), state, full_meta)


def load_checkpoint(model: Module, path: str) -> dict:
    """Load a checkpoint into ``model`` (checksum verified); returns the
    stored metadata."""
    arrays, meta = _read_archive(_norm_path(path))
    model.load_state_dict(arrays)
    return meta["meta"]


def checkpoint_exists(path: str) -> bool:
    """True when a checkpoint archive exists at ``path``."""
    return os.path.exists(_norm_path(path))


# -- training snapshots ----------------------------------------------------


class CheckpointManager:
    """Step-numbered atomic snapshots of an arbitrary nested state tree.

    Parameters
    ----------
    directory:
        Where snapshots live (created on first save).
    keep:
        Retain at most this many newest snapshots; older ones are pruned
        after each save. Keeping more than one is what makes fallback
        from a corrupt newest snapshot possible.
    prefix:
        Snapshot filename stem (``<prefix>-<step:08d>.npz``).
    """

    def __init__(self, directory: str, keep: int = 3, prefix: str = "ckpt"):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep
        self.prefix = prefix

    def path_for(self, step: int) -> str:
        """Snapshot path for an absolute optimizer step."""
        return os.path.join(self.directory, f"{self.prefix}-{step:08d}.npz")

    def steps(self) -> list[int]:
        """Ascending steps of all snapshot files present on disk."""
        if not os.path.isdir(self.directory):
            return []
        out = []
        head = self.prefix + "-"
        for name in os.listdir(self.directory):
            if not (name.startswith(head) and name.endswith(".npz")):
                continue
            stem = name[len(head) : -len(".npz")]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def save(self, state: dict, step: int, meta: dict | None = None) -> str:
        """Atomically write ``state`` as the snapshot for ``step``."""
        if not isinstance(state, dict):
            raise TypeError("snapshot state must be a dict at the root")
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        arrays: dict[str, np.ndarray] = {}
        manifest: dict[str, dict] = {}
        _flatten_state(state, "", arrays, manifest)
        full_meta = {
            _VERSION_FIELD: CHECKPOINT_VERSION,
            "checksum": _state_checksum(arrays),
            "manifest": manifest,
            "step": step,
            "meta": meta or {},
        }
        path = self.path_for(step)
        _save_archive(path, arrays, full_meta)
        self._prune(protect=step)
        return path

    def load_step(self, step: int) -> tuple[dict, dict]:
        """Load one snapshot; returns ``(state, user_meta)``.

        Raises :class:`CheckpointCorruptError` when the archive is
        damaged and :class:`FileNotFoundError` when absent.
        """
        arrays, meta = _read_archive(self.path_for(step))
        if "manifest" not in meta:
            raise CheckpointCorruptError(
                f"snapshot {self.path_for(step)} has no state manifest"
            )
        state = _unflatten_state(arrays, meta["manifest"])
        return state, meta.get("meta", {})

    def latest_valid(self) -> tuple[dict, dict, int] | None:
        """Newest loadable snapshot as ``(state, user_meta, step)``.

        Corrupt snapshots are skipped (newest-first) so a crash during a
        save — or bit rot in the latest file — falls back to the previous
        valid snapshot instead of failing the resume.
        """
        for step in reversed(self.steps()):
            try:
                state, user_meta = self.load_step(step)
            except CheckpointCorruptError:
                continue
            return state, user_meta, step
        return None

    def _prune(self, protect: int) -> None:
        steps = self.steps()
        excess = [s for s in steps if s != protect]
        # Keep the newest (keep - 1) besides the protected snapshot.
        n_extra = max(0, len(excess) - (self.keep - 1))
        for s in excess[:n_extra]:
            try:
                os.unlink(self.path_for(s))
            except OSError:
                pass

"""The mesh-discipline lint: the tree is clean, and the linter bites.

Wires ``tools/lint.py``'s ``group_discipline`` and ``facade`` rules
into tier-1: collective
``Group`` construction stays confined to ``repro.mesh`` and
``repro.comm.world``, and every ``repro.__all__`` name resolves and is
documented in the README. Both directions are self-tested against
planted violations so a silently-passing linter cannot regress.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "lint.py"
SRC = REPO / "src" / "repro"


def _lint(root: Path, *rules: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *rules, "--root", str(root)],
        capture_output=True,
        text=True,
    )


def _planted_tree(tmp_path: Path) -> Path:
    """A minimal tree copy for planting Group-discipline violations."""
    root = tmp_path / "src" / "repro"
    (root / "comm").mkdir(parents=True)
    (root / "mesh").mkdir()
    (root / "core").mkdir()
    for rel in ("comm/world.py", "mesh/device_mesh.py", "core/engine_core.py"):
        shutil.copy(SRC / rel, root / rel)
    return root


def test_library_tree_is_clean():
    proc = _lint(SRC, "group_discipline", "facade")
    assert proc.returncode == 0, proc.stderr


def test_linter_catches_group_construction_outside_mesh(tmp_path):
    root = _planted_tree(tmp_path)
    core = root / "core" / "engine_core.py"
    core.write_text(
        core.read_text()
        + "\n\ndef _rogue(ranks):\n    return Group(tuple(ranks))\n"
    )
    proc = _lint(root, "group_discipline")
    assert proc.returncode == 1
    assert "core/engine_core.py" in proc.stderr
    assert "Group(...)" in proc.stderr


def test_attribute_group_calls_are_caught_too(tmp_path):
    root = _planted_tree(tmp_path)
    core = root / "core" / "engine_core.py"
    core.write_text(
        core.read_text()
        + "\n\ndef _rogue2(world, ranks):\n    import repro.comm.world as w\n"
        "    return w.Group(tuple(ranks))\n"
    )
    proc = _lint(root, "group_discipline")
    assert proc.returncode == 1
    assert "core/engine_core.py" in proc.stderr


def test_allowed_sites_do_not_trip(tmp_path):
    # comm/world.py and mesh/ construct Group legitimately; the planted
    # tree contains both untouched and must lint clean.
    proc = _lint(_planted_tree(tmp_path), "group_discipline")
    assert proc.returncode == 0, proc.stderr


def test_facade_names_resolve_and_are_documented():
    proc = _lint(SRC, "facade")
    assert proc.returncode == 0, proc.stderr
    # Guard the premise: the facade the rule audits is the real one.
    sys.path.insert(0, str(REPO / "src"))
    try:
        import repro

        assert "make_engine" in repro.__all__
    finally:
        sys.path.remove(str(REPO / "src"))


def test_unknown_flag_is_a_usage_error():
    proc = _lint(SRC, "--bogus")
    assert proc.returncode == 2


def test_nonexistent_root_is_a_usage_error(tmp_path):
    proc = _lint(tmp_path / "missing", "group_discipline")
    assert proc.returncode == 2

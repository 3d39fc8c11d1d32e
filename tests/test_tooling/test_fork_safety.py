"""The fork-safety lint: the tree is clean, and the linter actually bites.

Wires ``tools/lint.py``'s ``fork_safety`` rule into tier-1: the library tree must
stay safe for the spawn-based process backend (explicit spawn contexts,
no wall-clock sleeps, no mutated module-level state on the engine hot
path), and the checker must catch planted instances of each violation
class (self-test against silent-pass regressions).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "lint.py"
SRC = REPO / "src" / "repro"


def _lint(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "fork_safety", "--root", str(root)],
        capture_output=True,
        text=True,
    )


def test_library_tree_is_fork_safe():
    proc = _lint(SRC)
    assert proc.returncode == 0, proc.stderr


def test_linter_catches_default_fork_context(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "import multiprocessing\n"
        "def run(f):\n"
        "    ctx = multiprocessing.get_context()\n"
        "    p = multiprocessing.Process(target=f)\n"
        "    p.start()\n"
    )
    (pkg / "good.py").write_text(
        "import multiprocessing\n"
        "def run(f):\n"
        "    ctx = multiprocessing.get_context('spawn')\n"
        "    ctx.Process(target=f).start()\n"
    )
    proc = _lint(pkg)
    assert proc.returncode == 1
    assert "bad.py:3" in proc.stderr  # bare get_context()
    assert "bad.py:4" in proc.stderr  # multiprocessing.Process
    assert "good.py" not in proc.stderr


def test_linter_catches_wall_clock_sleep(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "loop.py").write_text(
        "import time\n"
        "def poll(conn):\n"
        "    while not conn.poll():\n"
        "        time.sleep(0.1)\n"
    )
    proc = _lint(pkg)
    assert proc.returncode == 1
    assert "loop.py:4" in proc.stderr
    assert "time.sleep" in proc.stderr


def test_linter_catches_mutated_module_state_on_hot_path(tmp_path):
    core = tmp_path / "pkg" / "core"
    core.mkdir(parents=True)
    (core / "cachey.py").write_text(
        "_CACHE = {}\n"
        "def lookup(key):\n"
        "    if key not in _CACHE:\n"
        "        _CACHE[key] = expensive(key)\n"
        "    return _CACHE[key]\n"
    )
    # The same pattern outside a hot-path package is allowed.
    util = tmp_path / "pkg" / "util"
    util.mkdir()
    (util / "cachey.py").write_text(
        "_CACHE = {}\n"
        "def lookup(key):\n"
        "    _CACHE[key] = 1\n"
    )
    proc = _lint(tmp_path / "pkg")
    assert proc.returncode == 1
    assert "core/cachey.py:4" in proc.stderr
    assert "util/cachey.py" not in proc.stderr


def test_linter_allows_local_rebinds_and_constants(tmp_path):
    core = tmp_path / "pkg" / "core"
    core.mkdir(parents=True)
    (core / "clean.py").write_text(
        "_TABLE = {'a': 1}\n"  # read-only module constant: fine
        "def f():\n"
        "    _TABLE_local = {}\n"
        "    _TABLE_local['x'] = 1\n"
        "    return _TABLE['a']\n"
        "def g(items):\n"
        "    out = []\n"
        "    out.append(items)\n"  # local mutable: fine
        "    return out\n"
    )
    proc = _lint(tmp_path / "pkg")
    assert proc.returncode == 0, proc.stderr


def test_nonexistent_root_is_a_usage_error(tmp_path):
    proc = _lint(tmp_path / "missing")
    assert proc.returncode == 2

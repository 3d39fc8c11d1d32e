"""The dtype-discipline lint: hot path clean, and the linter bites.

Wires ``tools/lint.py``'s ``dtype`` rule into tier-1: allocation
constructors on the training hot path must pin ``dtype=`` explicitly,
and the checker must catch a planted violation (self-test against
silent-pass regressions).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "lint.py"


def _run(*args):
    # The rule's scope is the hot-path packages under --root, so planted
    # files live in a directory named like one (``models``).
    return subprocess.run(
        [sys.executable, str(TOOL), "dtype", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_hot_path_packages_are_clean():
    # No --root = src/repro, where the rule's scope is
    # models/optim/core/precision/comm/backend/mesh.
    proc = _run()
    assert proc.returncode == 0, proc.stderr


def test_linter_catches_a_planted_unpinned_alloc(tmp_path):
    pkg = tmp_path / "models"
    pkg.mkdir()
    (pkg / "clean.py").write_text(
        "import numpy as np\n"
        "a = np.zeros(3, dtype=np.float64)\n"
        "b = np.full((2, 2), 0.5, dtype=np.float32)\n"
        "c = np.zeros_like(a)\n"  # *_like inherits its prototype's dtype
    )
    (pkg / "dirty.py").write_text(
        "import numpy as np\n"
        "buf = np.empty((4, 4))\n"
    )
    cold = tmp_path / "experiments"  # same call off the hot path: allowed
    cold.mkdir()
    (cold / "cold.py").write_text("import numpy as np\nbuf = np.empty((4, 4))\n")
    proc = _run("--root", tmp_path)
    assert proc.returncode == 1
    assert "cold.py" not in proc.stderr
    assert "dirty.py:2" in proc.stderr
    assert "np.empty" in proc.stderr
    assert "clean.py" not in proc.stderr


def test_positional_dtype_accepted(tmp_path):
    pkg = tmp_path / "models"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import numpy as np\n"
        "a = np.zeros(3, np.float32)\n"
        "b = np.full((2,), 1.0, np.float64)\n"
    )
    proc = _run("--root", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_non_numpy_namesakes_ignored(tmp_path):
    pkg = tmp_path / "models"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "class Pool:\n"
        '    """Not numpy."""\n'
        "    def empty(self):\n"
        '        """Whether the pool is empty."""\n'
        "        return True\n"
        "pool = Pool()\n"
        "x = pool.empty()\n"
    )
    proc = _run("--root", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_nonexistent_root_is_a_usage_error(tmp_path):
    proc = _run("--root", tmp_path / "missing")
    assert proc.returncode == 2

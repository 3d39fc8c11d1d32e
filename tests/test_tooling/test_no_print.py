"""The no-print lint: the tree is clean, and the linter actually bites.

Wires ``tools/lint.py``'s ``no_print`` rule into tier-1: the library tree must
stay free of bare ``print()`` calls, and the checker must catch a
planted one (self-test against silent-pass regressions).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "lint.py"
SRC = REPO / "src" / "repro"


def test_library_tree_has_no_bare_prints():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "no_print", "--root", str(SRC)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_linter_catches_a_planted_print(tmp_path):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "clean.py").write_text('"""Docstring print() only."""\nx = 1\n')
    (bad / "dirty.py").write_text("def f():\n    print('hello')\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "no_print", "--root", str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "dirty.py:2" in proc.stderr
    assert "clean.py" not in proc.stderr


def test_linter_ignores_docstrings_and_comments(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "mod.py").write_text(
        '"""Example::\n\n    print(report.render())\n"""\n# print(x)\ny = "print(z)"\n'
    )
    proc = subprocess.run(
        [sys.executable, str(TOOL), "no_print", "--root", str(tree)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_nonexistent_root_is_a_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "no_print", "--root", str(tmp_path / "missing")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2

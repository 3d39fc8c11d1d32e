"""The runtime dependencies ``pyproject.toml`` declares are exactly the
third-party modules ``src/`` imports.

An AST scan collects every top-level module named by an ``import`` or an
absolute ``from ... import`` anywhere in ``src/`` — function-local and
``TYPE_CHECKING`` imports included — minus the standard library and the
package itself. A module imported but not declared breaks a clean
install; one declared but never imported is dead weight every install
pays for.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from 3.11

ROOT = Path(__file__).resolve().parents[2]


def imported_third_party(src: Path) -> set[str]:
    """Top-level modules ``src`` imports that are neither stdlib nor ``repro``."""
    names: set[str] = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def declared_dependencies(pyproject: Path) -> set[str]:
    """Distribution names of ``[project] dependencies``, specifiers dropped."""
    project = tomllib.loads(pyproject.read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0] for req in project["dependencies"]}


def test_declared_dependencies_are_exactly_what_src_imports():
    imported = imported_third_party(ROOT / "src")
    assert "numpy" in imported  # the scan sees the package's one dependency
    assert imported == declared_dependencies(ROOT / "pyproject.toml")

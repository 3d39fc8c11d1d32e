"""Lint: hot-path array allocations must pin their dtype explicitly.

NumPy's allocation constructors default to ``float64``. On the training
hot path that default is a silent decision — an allocation that *meant*
to match its neighbours keeps working until someone flips the compute
dtype, at which point an implicit-float64 buffer upcasts every kernel it
touches (and doubles its memory) without a single diff line saying so.
The rule: every ``np.empty`` / ``np.zeros`` / ``np.ones`` / ``np.full``
in the hot-path packages spells out ``dtype=``. The ``*_like``
constructors are exempt (they inherit their prototype's dtype, which is
the point of using them).

Usage::

    python tools/dtype_discipline_check.py [root ...]

With no arguments, checks the hot-path packages
(``src/repro/{models,optim,core,precision,comm,backend,mesh}``). Exits
0 when clean, 1 with one ``path:line: message`` per violation, 2 on a
bad root.
Wired into tier-1 via ``tests/test_tooling/test_dtype_discipline.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Allocation constructors that silently default to float64.
CHECKED_CALLS: frozenset[str] = frozenset({"empty", "zeros", "ones", "full"})

#: Names the ``numpy`` module is bound to in this codebase.
NUMPY_ALIASES: frozenset[str] = frozenset({"np", "numpy"})

#: Hot-path subpackages checked by default (relative to src/repro).
HOT_PACKAGES = ("models", "optim", "core", "precision", "comm", "backend", "mesh")


def find_unpinned_allocs(source: str, path: str) -> list[tuple[str, int, str]]:
    """Return (path, lineno, call) for each dtype-less allocation call."""
    tree = ast.parse(source, filename=path)
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in CHECKED_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in NUMPY_ALIASES
        ):
            continue
        if any(kw.arg == "dtype" for kw in node.keywords):
            continue
        # np.full(shape, fill, dtype) / np.zeros(shape, dtype) may pass
        # dtype positionally; the second (or third, for full) positional
        # argument is the dtype slot.
        dtype_pos = 2 if func.attr == "full" else 1
        if len(node.args) > dtype_pos:
            continue
        hits.append((path, node.lineno, f"np.{func.attr}"))
    return hits


def check_tree(root: Path) -> list[str]:
    """Lint every ``*.py`` under ``root``; return violation messages."""
    violations = []
    for py in sorted(root.rglob("*.py")):
        for path, lineno, call in find_unpinned_allocs(
            py.read_text(encoding="utf-8"), str(py)
        ):
            violations.append(
                f"{path}:{lineno}: {call}(...) without dtype= on the hot "
                "path (the float64 default must be an explicit choice)"
            )
    return violations


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    if argv:
        roots = [Path(a) for a in argv]
    else:
        repro = Path(__file__).parent.parent / "src" / "repro"
        roots = [repro / pkg for pkg in HOT_PACKAGES]
    violations = []
    for root in roots:
        if not root.is_dir():
            sys.stderr.write(f"not a directory: {root}\n")
            return 2
        violations.extend(check_tree(root))
    for v in violations:
        sys.stderr.write(v + "\n")
    if violations:
        sys.stderr.write(f"{len(violations)} unpinned allocation(s) found\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Lint: every telemetry name must be documented in DESIGN.md.

The telemetry bus is the only account of what ran; a counter that CI
gates on but DESIGN.md never mentions is an undocumented contract. This
walks every module under ``src/repro`` with the AST, collects the
first-argument string literal of every ``counter(...)`` /
``gauge(...)`` / ``span(...)`` / ``record_span(...)`` call, and requires
each collected name to appear verbatim in DESIGN.md.

Usage::

    python tools/serve_metrics_check.py [src_root] [design_md]

Exits 0 when every emitted name is documented, 1 with one
``path:line: message`` per undocumented name, 2 on usage errors.
Wired into tier-1 via ``tests/test_tooling/test_serve_metrics.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Telemetry-bus methods whose first argument is a metric/span name.
EMIT_METHODS = frozenset({"counter", "gauge", "span", "record_span"})


def emitted_names(source: str, path: str) -> list[tuple[str, str, int]]:
    """Return ``(name, path, lineno)`` for every telemetry emission.

    Only string-literal first arguments are collectable; a dynamically
    built name cannot be linted and is ignored.
    """
    tree = ast.parse(source, filename=path)
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in EMIT_METHODS):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            hits.append((first.value, path, first.lineno))
    return hits


def undocumented(src_root: Path, design_md: Path) -> list[str]:
    """Violation messages for emitted names DESIGN.md never mentions."""
    design = design_md.read_text(encoding="utf-8")
    violations = []
    for py in sorted(src_root.rglob("*.py")):
        for name, path, lineno in emitted_names(
            py.read_text(encoding="utf-8"), str(py)
        ):
            if name not in design:
                violations.append(
                    f"{path}:{lineno}: telemetry name {name!r} is emitted "
                    f"but not documented in {design_md.name}"
                )
    return violations


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    here = Path(__file__).parent.parent
    src_root = Path(argv[0]) if argv else here / "src" / "repro"
    design_md = Path(argv[1]) if len(argv) > 1 else here / "DESIGN.md"
    if not src_root.is_dir():
        sys.stderr.write(f"not a directory: {src_root}\n")
        return 2
    if not design_md.is_file():
        sys.stderr.write(f"not a file: {design_md}\n")
        return 2
    violations = undocumented(src_root, design_md)
    for v in violations:
        sys.stderr.write(v + "\n")
    if violations:
        sys.stderr.write(f"{len(violations)} undocumented telemetry name(s)\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The bench scripts outside ``benchmarks/e2e`` measure wall-clock ratios
inside one run; none of them re-runs an experiment row.

An experiment's facts are stated once, as ``python -m repro.experiments``
claims and tier-1 tests. A bench that imports ``repro.experiments`` would
run the same row a second time under a second gate.
"""

from __future__ import annotations

import ast
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _imported_modules(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_no_bench_script_imports_the_experiments():
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert {p.name for p in scripts} >= {"bench_serving.py", "bench_multicore.py"}
    offenders = [
        f"{path.name}: {name}"
        for path in scripts
        for name in sorted(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
        if name == "repro.experiments" or name.startswith("repro.experiments.")
    ]
    assert offenders == []

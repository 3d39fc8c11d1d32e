"""Every ``PerfParams`` field is a setting some caller chooses.

``PerfParams`` documents itself as "every setting a caller chooses for
the simulated step"; fitted values that no caller sets belong in module
constants instead. This test keeps that true: each field must be passed
by keyword in at least one ``PerfParams(...)`` call in ``src/`` or
``examples/``.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.perf.schedule import PerfParams

REPO = Path(__file__).parent.parent.parent


def _keywords_set(sources: dict[str, str]) -> set[str]:
    """Keyword names passed to any ``PerfParams(...)`` call in ``sources``."""
    seen: set[str] = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "PerfParams":
                seen.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return seen


def _tree_sources() -> dict[str, str]:
    paths = [*(REPO / "src").rglob("*.py"), *(REPO / "examples").rglob("*.py")]
    return {str(p.relative_to(REPO)): p.read_text() for p in paths}


def test_every_perf_params_field_is_set_by_a_caller():
    fields = {f.name for f in dataclasses.fields(PerfParams)}
    unset = fields - _keywords_set(_tree_sources())
    assert not unset, (
        f"PerfParams fields no caller in src/ or examples/ sets: {sorted(unset)}; "
        "make them module constants or delete them"
    )


def test_collector_reads_keywords_of_plain_and_dotted_calls():
    planted = {
        "a.py": "PerfParams(local_batch=8, **extra)\n",
        "b.py": "schedule.PerfParams(mesh=None)\nOther(prefetch=1)\n",
    }
    assert _keywords_set(planted) == {"local_batch", "mesh"}

"""Benchmark harness configuration.

The pytest-run benches (``bench_serving.py``, ``bench_multicore.py``)
print their report through :func:`emit` (run with ``-s`` to see it).
The paper's tables and figures are regenerated, and their shapes
checked, by ``python -m repro.experiments``.
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print a labelled report block (shows up in bench output)."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")

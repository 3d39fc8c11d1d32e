"""Command-line experiment runner.

Regenerate any paper artifact directly::

    python -m repro.experiments table1
    python -m repro.experiments fig3
    python -m repro.experiments all        # everything but the slow ones
    python -m repro.experiments fig5       # pretrains (cached) proxy suite
"""

from __future__ import annotations

import importlib
import sys
import time

#: The one experiment table, in listing order: ``name -> (module under
#: repro.experiments, render chains, in the fast set?)``. A chain is
#: applied left to right — ``("render_x",)`` is ``render_x()``,
#: ``("run_x", "render_x")`` is ``render_x(run_x())`` — and a row's
#: chains print blank-line separated.
EXPERIMENTS: dict[str, tuple[str, tuple[tuple[str, ...], ...], bool]] = {
    "table1": ("table1", (("render_table1",),), True),
    "table2": ("table2", (("render_table2",),), True),
    "fig1": ("fig1", (("render_fig1",),), True),
    "fig2": ("fig2", (("render_fig2",),), True),
    "fig3": ("fig3", (("render_fig3",),), True),
    "fig4": ("fig4", (("render_fig4",),), True),
    "ablations": (
        "ablations",
        (("render_bucket_sweep",), ("render_shard_group_sweep",), ("render_contention_sweep",)),
        True,
    ),
    "mesh": ("mesh_axes", (("render_mesh_axes",),), True),
    "mesh-crossover": ("mesh_crossover", (("render_mesh_crossover",),), True),
    "traffic": ("traffic_exp", (("render_traffic",),), True),
    "fig5": ("fig5", (("render_fig5",),), False),
    "table3": ("table3", (("render_table3",),), False),
    "fig6": ("fig6", (("render_fig6",),), False),
    "fewshot": ("fewshot", (("run_fewshot", "render_fewshot"),), False),
    "adaptation": ("adaptation", (("run_adaptation", "render_adaptation"),), False),
    "ssl": ("ssl_compare", (("run_ssl_compare", "render_ssl_compare"),), False),
    "segmentation": ("segmentation_exp", (("run_segmentation", "render_segmentation"),), False),
}
_FAST = [name for name, row in EXPERIMENTS.items() if row[2]]


def _echo(text: str) -> None:
    """Write one line to stdout (the CLI's user-facing output channel)."""
    sys.stdout.write(text + "\n")


def _render(name: str) -> str:
    module, chains, _ = EXPERIMENTS[name]
    # Imported here so `--help` stays instant.
    mod = importlib.import_module(f"repro.experiments.{module}")
    parts = []
    for first, *rest in chains:
        value = getattr(mod, first)()
        for fn in rest:
            value = getattr(mod, fn)(value)
        parts.append(value)
    return "\n\n".join(parts)


def main(argv: list[str]) -> int:
    """Run the named experiments; returns a process exit code."""
    known = list(EXPERIMENTS)
    if not argv or argv[0] in ("-h", "--help"):
        _echo(__doc__)
        _echo(f"experiments: {', '.join(known)}, all (= fast set)")
        return 0
    targets = _FAST if argv == ["all"] else argv
    unknown = [t for t in targets if t not in known]
    if unknown:
        _echo(f"unknown experiment(s): {unknown}; known: {known}")
        return 2
    for name in targets:
        t0 = time.perf_counter()
        body = _render(name)
        dt = time.perf_counter() - t0
        bar = "=" * 78
        _echo(f"{bar}\n{name}  ({dt:.1f}s)\n{bar}\n{body}\n")
    return 0


def cli() -> None:
    """Console-script entry point (``repro-experiments``)."""
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

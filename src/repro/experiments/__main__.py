"""Command-line experiment runner.

Regenerate any paper artifact and check the paper's shapes on it::

    python -m repro.experiments table1
    python -m repro.experiments fig3
    python -m repro.experiments all        # everything but the slow ones
    python -m repro.experiments fig5       # pretrains (cached) proxy suite

After each report it prints ``paper shapes: k/n hold`` and one
``FAILED: <sentence>`` line per claim that does not hold; the exit
status is 1 when any claim failed. Rows that share a run (``table3`` and
``fig6``) run it once per invocation.
"""

from __future__ import annotations

import importlib
import sys
import time

#: The one experiment table, in listing order: ``name -> (module under
#: repro.experiments, run, render, claims, in the fast set?)``. ``run()``
#: returns the result, ``render(result)`` its report and
#: ``claims(result)`` the paper's shapes as ``(sentence, holds)`` pairs.
#: Rows naming the same ``(module, run)`` render one result.
EXPERIMENTS: dict[str, tuple[str, str, str, str, bool]] = {
    "table1": ("table1", "run_table1", "render_table1", "claims_table1", True),
    "table2": ("table2", "run_table2", "render_table2", "claims_table2", True),
    "fig1": ("fig1", "run_fig1", "render_fig1", "claims_fig1", True),
    "fig2": ("fig2", "run_fig2", "render_fig2", "claims_fig2", True),
    "fig3": ("fig3", "run_fig3", "render_fig3", "claims_fig3", True),
    "fig4": ("fig4", "run_fig4", "render_fig4", "claims_fig4", True),
    "ablations": ("ablations", "run_ablations", "render_ablations", "claims_ablations", True),
    "mesh": ("mesh_axes", "run_mesh_axes", "render_mesh_axes", "claims_mesh_axes", True),
    "mesh-crossover": ("mesh_crossover", "run_mesh_crossover", "render_mesh_crossover",
                       "claims_mesh_crossover", True),
    "traffic": ("traffic_exp", "run_traffic", "render_traffic", "claims_traffic", True),
    "fig5": ("fig5", "run_fig5", "render_fig5", "claims_fig5", False),
    "table3": ("table3", "run_table3", "render_table3", "claims_table3", False),
    "fig6": ("table3", "run_table3", "render_fig6", "claims_fig6", False),
    "fewshot": ("fewshot", "run_fewshot", "render_fewshot", "claims_fewshot", False),
    "adaptation": ("adaptation", "run_adaptation", "render_adaptation", "claims_adaptation",
                   False),
    "ssl": ("ssl_compare", "run_ssl_compare", "render_ssl_compare", "claims_ssl_compare",
            False),
    "segmentation": ("segmentation_exp", "run_segmentation", "render_segmentation",
                     "claims_segmentation", False),
    "elastic": ("elastic_exp", "run_elastic", "render_elastic", "claims_elastic", False),
}
_FAST = [name for name, row in EXPERIMENTS.items() if row[4]]


def _echo(text: str) -> None:
    """Write one line to stdout (the CLI's user-facing output channel)."""
    sys.stdout.write(text + "\n")


def _run(name: str, results: dict) -> tuple[str, list[tuple[str, bool]]]:
    """Report and claims of one row; ``results`` holds this invocation's
    run results by ``(module, run)``, so a shared run runs once."""
    module, run, render, claims, _ = EXPERIMENTS[name]
    # Imported here so `--help` stays instant.
    mod = importlib.import_module(f"repro.experiments.{module}")
    if (module, run) not in results:
        results[module, run] = getattr(mod, run)()
    result = results[module, run]
    return getattr(mod, render)(result), getattr(mod, claims)(result)


def _verdict(claims: list[tuple[str, bool]]) -> str:
    """``paper shapes: k/n hold``, then a ``FAILED:`` line per claim missed."""
    misses = [sentence for sentence, holds in claims if not holds]
    return "\n".join(
        [f"paper shapes: {len(claims) - len(misses)}/{len(claims)} hold"]
        + [f"FAILED: {sentence}" for sentence in misses]
    )


def main(argv: list[str]) -> int:
    """Run the named experiments; returns a process exit code."""
    known = list(EXPERIMENTS)
    if not argv or argv[0] in ("-h", "--help"):
        _echo(__doc__)
        _echo(f"experiments: {', '.join(known)}, all (= fast set)")
        return 0
    targets = list(dict.fromkeys(t for a in argv for t in (_FAST if a == "all" else [a])))
    unknown = [t for t in targets if t not in known]
    if unknown:
        _echo(f"unknown experiment(s): {unknown}; known: {known}")
        return 2
    failed = False
    results: dict = {}
    for name in targets:
        t0 = time.perf_counter()
        body, claims = _run(name, results)
        dt = time.perf_counter() - t0
        failed = failed or not all(holds for _, holds in claims)
        bar = "=" * 78
        _echo(f"{bar}\n{name}  ({dt:.1f}s)\n{bar}\n{body}\n{_verdict(claims)}\n")
    return 1 if failed else 0


def cli() -> None:
    """Console-script entry point (``repro-experiments``)."""
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

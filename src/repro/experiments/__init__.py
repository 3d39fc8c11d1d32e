"""Experiment drivers: one module per paper table / figure.

Each module exposes ``run_*`` returning structured results and a
``render`` producing the paper-comparable text report. The benchmark
harness under ``benchmarks/`` is a thin wrapper over these.

=========  ==========================================================
module     reproduces
=========  ==========================================================
table1     Table I  — ViT architecture inventory & parameter counts
fig1       Fig. 1   — MAE ViT-3B weak scaling (io/syn/no-comm/real)
fig2       Fig. 2   — ViT-5B sharding x prefetch x limit_all_gathers
fig3       Fig. 3   — weak scaling, models that fit on one GPU
fig4       Fig. 4   — weak scaling, 5B/15B + memory + power traces
table2     Table II — dataset inventory (analogues + paper originals)
fig5       Fig. 5   — MAE pretraining loss vs step, four model sizes
table3     Table III— linear-probe top-1 across datasets and sizes
fig6       Fig. 6   — probe top-1/top-5 vs probing epoch
=========  ==========================================================
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {"downstream": ("DownstreamRecipe", "PretrainedModel", "pretrain_suite")}
)

# Experiment modules (imported by the CLI and benches, never from here):
#   table1, table2, fig1..fig6 — the paper's artifacts
#   ablations, fewshot, adaptation, ssl_compare, segmentation_exp — extensions
#   mesh_axes — per-axis comm breakdown across TP/PP/DP mesh compositions

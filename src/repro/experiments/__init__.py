"""Experiment drivers: one module per paper table / figure / extension.

Each module exposes ``run_*`` (callable without arguments; returns the
structured result), ``render_*`` (the result's paper-comparable text
report) and ``claims_*`` (the paper's shapes on the result, as
``(sentence, holds)`` pairs). ``python -m repro.experiments`` is the one
driver: its ``EXPERIMENTS`` table is the index of every module, row by
row, and README's "Reproducing the paper" says which artifact each row
reproduces. ``downstream`` pretrains and caches the proxy suite the
probing rows share; ``report`` and ``asciiplot`` format the reports.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {"downstream": ("DownstreamRecipe", "PretrainedModel", "pretrain_suite")}
)

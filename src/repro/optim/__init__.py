"""Optimizers and learning-rate schedules.

Optimizers operate on any object exposing ``.data`` and ``.grad`` NumPy
arrays — both :class:`repro.models.module.Parameter` and the FSDP
engine's flat parameter shards qualify, so the same AdamW code runs
sharded and unsharded (a correctness requirement of the equivalence
tests).

- :mod:`repro.optim.adamw` — AdamW (used for MAE pretraining, paper §V-B).
- :mod:`repro.optim.lars` — LARS (used for linear probing, paper §V-C).
- :mod:`repro.optim.sgd` — SGD with momentum (baseline/regression tests).
- :mod:`repro.optim.schedules` — cosine decay with linear warmup.
- :mod:`repro.optim.grad_clip` — global-norm gradient clipping.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("Optimizer",),
        "adamw": ("AdamW",),
        "lars": ("LARS",),
        "sgd": ("SGD",),
        "schedules": ("CosineWithWarmup",),
        "grad_clip": ("clip_grad_norm", "global_grad_norm"),
    },
)

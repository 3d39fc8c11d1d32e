"""Emulated mixed precision (bf16) for the training stack.

The paper's billion-scale configurations only fit on a GCD because the
standard reduced-precision levers are applied: bf16 parameters,
gradients and collective payloads with fp32 master weights and optimizer
state, plus gradient accumulation ("Optimizing Distributed Training on
Frontier for LLMs", PAPERS.md). This package provides the NumPy-only
emulation of those levers:

- :mod:`repro.precision.bf16` — uint16-based bf16 encode/decode and the
  grid-rounding helper the engines use as their cast point, plus the
  logical byte-accounting tables (:data:`DTYPE_BYTES`,
  :data:`WIRE_FRACTION`);
- :mod:`repro.precision.scaler` — static/dynamic loss scaling with
  checkpointable state.

Select it per engine via ``EngineConfig(precision="bf16",
grad_accum_steps=k)``; see :mod:`repro.core.engine`.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bf16": (
            "BF16_EPS",
            "BF16_MAX",
            "DTYPE_BYTES",
            "PRECISIONS",
            "WIRE_FRACTION",
            "bf16_round",
            "from_bf16",
            "to_bf16",
            "wire_fraction",
        ),
        "scaler": ("LossScaler",),
    },
)

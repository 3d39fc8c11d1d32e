"""From-scratch NumPy neural-network substrate (ViT + MAE).

Every layer implements an explicit, hand-derived backward pass; tests
validate each against central-difference gradients. All math is
vectorized NumPy over contiguous arrays (no per-element Python loops),
and parameter storage supports *views into flat buffers* so the FSDP
engine can materialize parameters by all-gathering into one flat array
per transformer block without copies.

Modules:

- :mod:`repro.models.module` — Parameter / Module base machinery.
- :mod:`repro.models.workspace` — scratch-buffer pool: attached, a steady
  step allocates nothing activation-sized (``test_steady_state.py``).
- :mod:`repro.models.functional` — fused gelu / softmax / layernorm
  primitives with paired backward functions (``out=``-aware).
- :mod:`repro.models.reference` — the original allocating kernels, kept
  verbatim as the numerical oracle and benchmark baseline.
- :mod:`repro.models.layers` — Linear, LayerNorm, GELU, Dropout, MLP.
- :mod:`repro.models.attention` — multi-head self-attention.
- :mod:`repro.models.blocks` — pre-norm transformer encoder block.
- :mod:`repro.models.patch` — patchify / unpatchify, patch embedding.
- :mod:`repro.models.vit` — Vision Transformer encoder (+ optional head).
- :mod:`repro.models.mae` — masked autoencoder for ViT pretraining.
- :mod:`repro.models.init` — weight initialization (trunc-normal, xavier).
- :mod:`repro.models.posembed` — fixed 2-D sin-cos position embeddings.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "module": ("Parameter", "Module"),
        "workspace": ("Workspace",),
        "layers": ("Linear", "LayerNorm", "GELU", "Dropout", "MLP"),
        "attention": ("MultiHeadSelfAttention",),
        "blocks": ("TransformerBlock",),
        "patch": ("PatchEmbed", "patchify", "unpatchify"),
        "vit": ("VisionTransformer",),
        "mae": ("MaskedAutoencoder",),
        "simclr": ("SimCLRModel", "nt_xent"),
    },
)

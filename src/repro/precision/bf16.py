"""Emulated bfloat16 over NumPy's native float types.

The container has no accelerator dtype support beyond NumPy, so bf16 is
*emulated*: values live in ordinary ``float32``/``float64`` arrays but
are constrained to the bf16 grid — the 2^16 values representable with an
8-bit exponent and 7-bit mantissa. The conversion is the standard
bit-level one (view the fp32 pattern as ``uint32``, round-to-nearest-even
into the top 16 bits, store as ``uint16``); no third-party dtype package
is involved.

Two views of a bf16 tensor:

- the *storage* form, a ``uint16`` array (what :func:`to_bf16` returns
  and what a real accelerator would keep in HBM / put on the wire);
- the *compute* form, a native-dtype array whose values sit exactly on
  the bf16 grid (what :func:`bf16_round` returns and what the engines
  feed NumPy kernels, emulating "bf16 storage with fp32 accumulate").

Note on double rounding: ``float64`` input is first rounded to
``float32`` and then to bf16. This can differ from a direct
float64-to-bf16 rounding by one bf16 ulp in rare tie cases; it is
deterministic, round-trip stable (grid values map to themselves), and
the accepted emulation semantics here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BF16_EPS",
    "BF16_MAX",
    "DTYPE_BYTES",
    "PRECISIONS",
    "WIRE_FRACTION",
    "bf16_round",
    "bf16_outbound",
    "from_bf16",
    "to_bf16",
    "wire_fraction",
]

#: Machine epsilon of bfloat16 (7 explicit mantissa bits -> 2**-8 ulp at 1.0).
BF16_EPS = 2.0**-8
#: Largest finite bfloat16 value: (2 - 2**-7) * 2**127.
BF16_MAX = 3.3895313892515355e38

#: Precisions the training stack understands.
PRECISIONS = ("fp32", "bf16")

#: Logical storage bytes per element, by precision label. The emulation
#: substrate computes in float64, but all byte *accounting* (memory
#: model, wire bytes) is in these logical widths, matching the paper's
#: fp32 baseline.
DTYPE_BYTES = {"fp64": 8, "fp32": 4, "bf16": 2}

#: Wire/storage bytes of each precision relative to the fp32 baseline.
#: Collectives and the cost model scale their native payload by this
#: fraction, so a bf16 gradient reduction moves exactly half the bytes
#: of the same reduction at full precision.
WIRE_FRACTION = {"fp32": 1.0, "bf16": 0.5}


def wire_fraction(precision: str) -> float:
    """Payload scale of ``precision`` relative to full precision.

    Raises ``ValueError`` for an unknown precision label.
    """
    try:
        return WIRE_FRACTION[precision]
    except KeyError:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        ) from None


def to_bf16(x: np.ndarray) -> np.ndarray:
    """Encode an array into bf16 storage (``uint16`` bit patterns).

    Rounds to nearest-even. Values beyond :data:`BF16_MAX` overflow to
    infinity (as on real hardware); NaNs are preserved as quiet NaNs
    (the rounding carry can never silently turn a NaN into infinity).
    """
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # Round-to-nearest-even on the truncated 16 low bits: add 0x7FFF
    # plus the parity of the keep-bit, then drop the low half.
    rounding_bias = np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    out = ((bits + rounding_bias) >> np.uint32(16)).astype(np.uint16)
    nan = np.isnan(x32)
    if nan.any():
        # Truncate (keeps sign + exponent) and force a mantissa bit so a
        # NaN whose payload lived entirely in the dropped bits does not
        # decode as infinity.
        out[nan] = (bits[nan] >> np.uint32(16)).astype(np.uint16) | np.uint16(0x0040)
    return out


def from_bf16(bits: np.ndarray) -> np.ndarray:
    """Decode bf16 storage (``uint16``) into ``float32`` (exact)."""
    b = np.asarray(bits, dtype=np.uint16)
    return (b.astype(np.uint32) << np.uint32(16)).view(np.float32)


def bf16_round(x: np.ndarray) -> np.ndarray:
    """Round an array onto the bf16 grid, keeping its floating dtype.

    This is the emulation work-horse: a round-trip through
    :func:`to_bf16` / :func:`from_bf16` whose result is returned in the
    input's own dtype, so downstream NumPy kernels run unchanged while
    every value carries only bf16 information. Idempotent: grid values
    map to themselves bit-exactly.
    """
    x = np.asarray(x)
    dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float32)
    return from_bf16(to_bf16(x)).astype(dtype, copy=False).reshape(x.shape)


def bf16_outbound(g: np.ndarray, scale: float) -> np.ndarray:
    """A gradient as it enters a bf16 collective: loss-scaled, then
    rounded onto the bf16 grid (a fresh array). The one cast point the
    inline engine and the process workers share."""
    return bf16_round(g * scale if scale != 1.0 else g)

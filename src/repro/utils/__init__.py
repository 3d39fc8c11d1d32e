"""Shared utilities: deterministic RNG management and unit formatting."""

from repro.utils.rng import RngPool, spawn_rng
from repro.utils.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    format_bytes,
    format_count,
    format_time,
)

__all__ = [
    "RngPool",
    "spawn_rng",
    "GB",
    "GIB",
    "KB",
    "KIB",
    "MB",
    "MIB",
    "format_bytes",
    "format_count",
    "format_time",
]

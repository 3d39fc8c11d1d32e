"""Shared utilities: deterministic RNG management and unit formatting."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "rng": ("RngPool", "spawn_rng"),
        "units": (
            "GB",
            "GIB",
            "KB",
            "KIB",
            "MB",
            "MIB",
            "format_bytes",
            "format_count",
            "format_time",
        ),
    },
)

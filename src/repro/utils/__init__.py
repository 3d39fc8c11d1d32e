"""Shared utilities: byte unit constants."""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "units": ("GB", "GIB", "KB", "KIB", "MB", "MIB"),
    },
)

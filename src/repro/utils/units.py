"""Byte unit constants: decimal (``KB``...) and binary (``KIB``...)."""

from __future__ import annotations

__all__ = ["KB", "MB", "GB", "KIB", "MIB", "GIB"]

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
KIB = 1024
MIB = 1024**2
GIB = 1024**3


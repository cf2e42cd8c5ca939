"""Byte-size constants and parsing shared across the package."""

from __future__ import annotations

import math
import re

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

PAGE_SIZE = 4096

DEFAULT_EPC_USABLE = 98_041_856  # 93.5 MiB usable out of 128 MiB: 23936 pages

_SUFFIXES = {"": 1, "B": 1, "KIB": KIB, "MIB": MIB, "GIB": GIB}
_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([A-Za-z]*)\s*$")


def parse_size(value: int | float | str) -> int:
    """Turn '64GiB', '93.5MiB', or a plain number into integer bytes."""
    if isinstance(value, bool):
        raise ValueError(f"not a size: {value!r}")
    if isinstance(value, (int, float)):
        if value < 0:
            raise ValueError(f"negative size: {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"not a finite size: {value!r}")
        return int(round(value))
    if not isinstance(value, str):
        raise ValueError(f"not a size: {value!r}")
    m = _SIZE_RE.match(value)
    if not m:
        raise ValueError(f"cannot parse size {value!r}")
    number, suffix = m.group(1), m.group(2).upper()
    if suffix not in _SUFFIXES:
        raise ValueError(f"unknown size suffix in {value!r}")
    return int(round(float(number) * _SUFFIXES[suffix]))


def format_size(nbytes: int) -> str:
    """Compact human form used for run labels: 98041856 -> '93.5MiB'."""
    for unit, factor in (("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if nbytes >= factor:
            value = nbytes / factor
            text = f"{value:.3f}".rstrip("0").rstrip(".")
            return f"{text}{unit}"
    return f"{nbytes}B"

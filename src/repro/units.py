"""Byte and time unit helpers used throughout the McSD reproduction.

The simulator's clock is a ``float`` number of **seconds**; data sizes are
``int`` numbers of **bytes**.  All user-facing configuration goes through
these helpers so that calibration constants in :mod:`repro.config` read the
same way the paper reports them (``GiB(2)`` of memory, ``Gbit(1)`` Ethernet,
and so on).
"""

from __future__ import annotations

__all__ = [
    "KB",
    "MB",
    "GB",
    "KiB",
    "MiB",
    "GiB",
    "Mbit",
    "Gbit",
    "usec",
    "msec",
    "sec",
    "minutes",
    "parse_bytes",
    "fmt_bytes",
    "fmt_time",
]


def KB(n: float) -> int:
    """Decimal kilobytes -> bytes."""
    return int(n * 1_000)


def MB(n: float) -> int:
    """Decimal megabytes -> bytes (the paper's "500M" etc. are decimal)."""
    return int(n * 1_000_000)


def GB(n: float) -> int:
    """Decimal gigabytes -> bytes."""
    return int(n * 1_000_000_000)


def KiB(n: float) -> int:
    """Binary kibibytes -> bytes."""
    return int(n * 1024)


def MiB(n: float) -> int:
    """Binary mebibytes -> bytes."""
    return int(n * 1024**2)


def GiB(n: float) -> int:
    """Binary gibibytes -> bytes (RAM sizes)."""
    return int(n * 1024**3)


def Mbit(n: float) -> float:
    """Megabits/s -> bytes/s."""
    return n * 1_000_000 / 8.0


def Gbit(n: float) -> float:
    """Gigabits/s -> bytes/s (1 GbE ~ 125 MB/s raw)."""
    return n * 1_000_000_000 / 8.0


def usec(n: float) -> float:
    """Microseconds -> seconds."""
    return n * 1e-6


def msec(n: float) -> float:
    """Milliseconds -> seconds."""
    return n * 1e-3


def sec(n: float) -> float:
    """Seconds -> seconds (documentation marker)."""
    return float(n)


def minutes(n: float) -> float:
    """Minutes -> seconds."""
    return n * 60.0


def parse_bytes(text: str) -> int:
    """Parse the paper's size notation: '600M', '1.25G', '4096', '512K'.

    Decimal units, matching the paper's axis labels (1G = 10^9).
    """
    s = str(text).strip().upper()
    if not s:
        raise ValueError("empty size")
    mult = 1.0
    if s.endswith("B"):
        s = s[:-1]
    if s and s[-1] in "KMGT":
        mult = {"K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}[s[-1]]
        s = s[:-1]
    try:
        value = float(s)
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}") from None
    if value < 0:
        raise ValueError(f"negative size {text!r}")
    return int(value * mult)


def fmt_bytes(n: float) -> str:
    """Human-readable byte count (decimal units, like the paper)."""
    n = float(n)
    for unit, div in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= div:
            return f"{n / div:.2f}{unit}"
    return f"{int(n)}B"


def fmt_time(t: float) -> str:
    """Human-readable duration in seconds."""
    if t >= 60.0:
        m, s = divmod(t, 60.0)
        return f"{int(m)}m{s:05.2f}s"
    if t >= 1.0:
        return f"{t:.3f}s"
    if t >= 1e-3:
        return f"{t * 1e3:.3f}ms"
    return f"{t * 1e6:.1f}us"


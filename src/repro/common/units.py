"""Unit helpers for data sizes and time.

All internal APIs in :mod:`repro` use **megabytes** for data sizes and
**seconds** for durations.  These helpers exist so that call sites can state
their units explicitly instead of sprinkling magic ``* 1024`` factors around.
"""

from __future__ import annotations

#: Number of megabytes per gigabyte.
MB_PER_GB: int = 1024


def gb(value: float) -> float:
    """Convert gigabytes to megabytes.

    >>> gb(160)
    163840.0
    """
    return float(value) * MB_PER_GB


def fmt_duration(seconds: float) -> str:
    """Render a duration in seconds as a short human-readable string.

    >>> fmt_duration(75)
    '1m15.0s'
    >>> fmt_duration(3.25)
    '3.2s'
    """
    if seconds < 0:
        return "-" + fmt_duration(-seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        # Round to the displayed precision first so 59.96s never renders
        # as "60.0s" within a minute.
        tenths = round(seconds * 10)
        if tenths < 36000:
            whole_minutes, rem_tenths = divmod(tenths, 600)
            return f"{whole_minutes}m{rem_tenths / 10:.1f}s"
    whole_seconds = round(seconds)
    whole_hours, rem = divmod(whole_seconds, 3600)
    minutes_part, seconds_part = divmod(rem, 60)
    return f"{whole_hours}h{minutes_part}m{seconds_part}s"


def fmt_size_mb(size_mb: float) -> str:
    """Render a size in MB as a short human-readable string.

    >>> fmt_size_mb(163840)
    '160.0GB'
    >>> fmt_size_mb(64)
    '64.0MB'
    """
    if size_mb >= MB_PER_GB:
        return f"{size_mb / MB_PER_GB:.1f}GB"
    if size_mb >= 1:
        return f"{size_mb:.1f}MB"
    return f"{size_mb * 1024:.1f}KB"

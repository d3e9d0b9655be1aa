"""Byte-size and time constants plus a cost-unit helper."""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Seconds in a (30-day) billing month, used by the cost model.
MONTH_SECONDS = 30 * 24 * 3600
DAY_SECONDS = 24 * 3600
HOUR_SECONDS = 3600


def micro_dollars(dollars: float) -> float:
    """Convert dollars to micro-dollars (the unit used in Figure 11b/c)."""
    return dollars * 1e6

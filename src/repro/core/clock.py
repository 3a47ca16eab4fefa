"""Simulated time for the cache-consistency simulator.

All simulator timestamps are plain floats measured in **seconds** since the
simulation epoch (t = 0).  The paper talks about parameters in hours (TTL
values of 0-500 hours), percentages of object age (Alex update thresholds),
and trace durations in days, so this module centralizes the unit
conversions to keep the rest of the code free of magic constants.
"""

from __future__ import annotations

#: One second of simulated time.
SECOND: float = 1.0
#: One minute of simulated time, in seconds.
MINUTE: float = 60.0
#: One hour of simulated time, in seconds.
HOUR: float = 3600.0
#: One day of simulated time, in seconds.
DAY: float = 86400.0
#: One (30-day) month of simulated time, in seconds.  The paper's campus
#: traces cover "a one-month period".
MONTH: float = 30 * DAY


def seconds(n: float) -> float:
    """Return ``n`` seconds expressed in simulation time units."""
    return float(n) * SECOND


def minutes(n: float) -> float:
    """Return ``n`` minutes expressed in simulation time units."""
    return float(n) * MINUTE


def hours(n: float) -> float:
    """Return ``n`` hours expressed in simulation time units.

    TTL sweeps in the paper (Figures 2-8, "TTL value (hours)") use this.
    """
    return float(n) * HOUR


def days(n: float) -> float:
    """Return ``n`` days expressed in simulation time units."""
    return float(n) * DAY


def to_hours(t: float) -> float:
    """Convert a simulation time/interval ``t`` to hours."""
    return t / HOUR


def to_days(t: float) -> float:
    """Convert a simulation time/interval ``t`` to days."""
    return t / DAY


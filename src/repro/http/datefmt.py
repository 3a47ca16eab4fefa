"""RFC 1123 (HTTP-date) formatting and parsing.

HTTP/1.0 headers such as ``Expires``, ``Last-Modified`` and
``If-Modified-Since`` carry timestamps in the RFC 1123 format, e.g.
``Sun, 06 Nov 1994 08:49:37 GMT``.  The simulator works in simulation
seconds, but the trace reader/writer and the HTTP message models round-trip
real header strings, so the conversion lives here.

Simulation time zero maps to an arbitrary but fixed real-world epoch
(:data:`SIM_EPOCH_UNIX`) chosen inside the period the paper studied
(1995).  Using a fixed epoch keeps synthetic traces byte-for-byte
reproducible.
"""

from __future__ import annotations

import calendar
import functools
import math
import time

#: Unix timestamp corresponding to simulation time 0.0.
#: Wed, 01 Mar 1995 00:00:00 GMT — inside the paper's measurement window.
SIM_EPOCH_UNIX: int = 794_016_000

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTH_INDEX = {name: i + 1 for i, name in enumerate(_MONTHS)}
_DAY = 86_400
#: Distinct values each conversion memo keeps: a live round converts
#: about 1.7k distinct whole-second times, most of them many times
#: over (every live time is a whole second, ``wire.ensure_integral``).
_VALUES_CACHED = 4096
#: Calendar days whose facts are kept: a replay's dates fall on a few
#: hundred days, so a memo miss does the calendar work once per day
#: while the time of day is plain arithmetic.
_DAYS_CACHED = 1024
#: ``"00"`` .. ``"59"``: the clock fields, rendered without a format
#: spec per field.
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


def sim_to_unix(t: float) -> int:
    """Map a simulation timestamp to a Unix timestamp (whole seconds).

    Fractional times round *down* on the number line (``math.floor``),
    not toward zero: a pre-epoch ``t`` of ``-0.5`` lands in the second
    that contains it (``-1``), exactly like ``+0.5`` lands in ``0``.
    Truncation (``int(t)``) would collapse ``-0.5`` and ``+0.5`` into
    the same second and break ``parse_http_date(format_http_date(t))``
    round-trips for pre-epoch Last-Modified stamps.
    """
    return SIM_EPOCH_UNIX + math.floor(t)


def unix_to_sim(ts: int | float) -> float:
    """Map a Unix timestamp back to a simulation timestamp."""
    return float(ts) - SIM_EPOCH_UNIX


@functools.lru_cache(maxsize=_DAYS_CACHED)
def _day_text(days: int) -> str:
    """``"Wdy, DD Mon YYYY"`` of the day ``days`` after 01 Jan 1970."""
    st = time.gmtime(days * _DAY)
    weekday = _WEEKDAYS[st.tm_wday]
    month = _MONTHS[st.tm_mon - 1]
    return f"{weekday}, {st.tm_mday:02d} {month} {st.tm_year:04d}"


@functools.lru_cache(maxsize=_VALUES_CACHED)
def format_http_date(t: float) -> str:
    """Format simulation time ``t`` as an RFC 1123 HTTP-date string.

    Memoised by value: a repeated time costs one cache lookup.
    """
    days, secs = divmod(sim_to_unix(t), _DAY)
    hh, secs = divmod(secs, 3600)
    mm, ss = divmod(secs, 60)
    two = _TWO_DIGITS
    return f"{_day_text(days)} {two[hh]}:{two[mm]}:{two[ss]} GMT"


class HTTPDateError(ValueError):
    """Raised when an HTTP-date string cannot be parsed."""


@functools.lru_cache(maxsize=_DAYS_CACHED)
def _calendar_day(year: int, month: int, day: int) -> tuple[int, int, int]:
    """``(month length, days since 01 Jan 1970, weekday index)``.

    For a day past the month's end only the month length is meaningful
    (the other two are 0): ``calendar.timegm`` silently *normalizes*
    impossible days (31 Feb becomes 3 Mar), so a malformed header would
    parse to a wrong timestamp instead of failing, and the caller must
    check the month length first.

    Raises:
        ValueError: for a year the calendar cannot place.  Nothing is
            cached then, so such a date fails the same way every time.
    """
    _, month_days = calendar.monthrange(year, month)
    if day > month_days:
        return month_days, 0, 0
    days = calendar.timegm((year, month, day, 0, 0, 0, 0, 0, 0)) // _DAY
    return month_days, days, calendar.weekday(year, month, day)


@functools.lru_cache(maxsize=_VALUES_CACHED)
def parse_http_date(value: str) -> float:
    """Parse an RFC 1123 HTTP-date string into simulation time.

    Memoised by value, like :func:`format_http_date`; a rejected value
    is not kept, so it fails the same way every time.

    Only the RFC 1123 fixed-length format is accepted (the format this
    library emits).  The obsolete RFC 850 and asctime formats that HTTP/1.0
    servers tolerated are intentionally not supported; synthetic traces
    never contain them.

    Raises:
        HTTPDateError: if ``value`` is not a well-formed RFC 1123 date.
    """
    parts = value.split()
    if len(parts) != 6 or parts[5] != "GMT":
        raise HTTPDateError(f"not an RFC 1123 HTTP-date: {value!r}")
    weekday, day_s, month_s, year_s, clock, _zone = parts
    weekday_name = weekday.rstrip(",")
    if weekday_name not in _WEEKDAYS or not weekday.endswith(","):
        raise HTTPDateError(f"bad weekday in HTTP-date: {value!r}")
    if month_s not in _MONTH_INDEX:
        raise HTTPDateError(f"bad month in HTTP-date: {value!r}")
    try:
        day = int(day_s)
        year = int(year_s)
        hh_s, mm_s, ss_s = clock.split(":")
        hh, mm, ss = int(hh_s), int(mm_s), int(ss_s)
    except ValueError as exc:
        raise HTTPDateError(f"bad numeric field in HTTP-date: {value!r}") from exc
    if not (1 <= day <= 31 and 0 <= hh < 24 and 0 <= mm < 60 and 0 <= ss < 60):
        raise HTTPDateError(f"field out of range in HTTP-date: {value!r}")
    month = _MONTH_INDEX[month_s]
    try:
        month_days, days, weekday_index = _calendar_day(year, month, day)
    except (ValueError, OverflowError) as exc:
        raise HTTPDateError(f"invalid calendar date: {value!r}") from exc
    if day > month_days:
        raise HTTPDateError(
            f"impossible calendar day in HTTP-date: {value!r} "
            f"({month_s} {year} has {month_days} days)"
        )
    # RFC 1123 dates are self-describing: the weekday token must match
    # the date.  Accepting a mismatch would parse a header that cannot
    # round-trip byte-identically through format_http_date.
    actual_weekday = _WEEKDAYS[weekday_index]
    if weekday_name != actual_weekday:
        raise HTTPDateError(
            f"weekday does not match date in HTTP-date: {value!r} "
            f"({day:02d} {month_s} {year} is a {actual_weekday})"
        )
    return unix_to_sim(days * _DAY + hh * 3600 + mm * 60 + ss)

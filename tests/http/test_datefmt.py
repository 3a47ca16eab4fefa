"""RFC 1123 date formatting/parsing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.http.datefmt import (
    SIM_EPOCH_UNIX,
    HTTPDateError,
    format_http_date,
    parse_http_date,
    sim_to_unix,
    unix_to_sim,
)

#: The rejected inputs, hoisted so ``test_properties`` can parse each
#: one with its calendar day cached and uncached.
MALFORMED = [
    "",
    "not a date",
    "Wed, 01 Mar 1995 00:00:00",          # missing zone
    "Wed, 01 Mar 1995 00:00:00 PST",      # wrong zone
    "Wed 01 Mar 1995 00:00:00 GMT",       # missing comma
    "Xyz, 01 Mar 1995 00:00:00 GMT",      # bad weekday
    "Wed, 01 Xyz 1995 00:00:00 GMT",      # bad month
    "Wed, 41 Mar 1995 00:00:00 GMT",      # day out of range
    "Wed, 01 Mar 1995 25:00:00 GMT",      # hour out of range
    "Wed, 01 Mar 1995 00:61:00 GMT",      # minute out of range
    "Wed, aa Mar 1995 00:00:00 GMT",      # non-numeric day
]
IMPOSSIBLE_DAYS = [
    "Tue, 31 Feb 1995 00:00:00 GMT",   # February has 28 days
    "Wed, 29 Feb 1995 00:00:00 GMT",   # 1995 is not a leap year
    "Fri, 31 Apr 1995 00:00:00 GMT",   # April has 30 days
    "Thu, 31 Jun 1995 00:00:00 GMT",
    "Sat, 31 Sep 1995 00:00:00 GMT",
    "Tue, 31 Nov 1995 00:00:00 GMT",
]
OUT_OF_CALENDAR_YEAR = "Mon, 01 Jan 99999 00:00:00 GMT"
#: 06 Nov 1994 was a Sunday.
MISMATCHED_WEEKDAY = "Mon, 06 Nov 1994 08:49:37 GMT"
#: 01 Mar 1995 (the sim epoch) was a Wednesday.
WRONG_EPOCH_WEEKDAYS = ["Mon", "Tue", "Thu", "Fri", "Sat", "Sun"]


class TestEpochMapping:
    def test_epoch_is_fixed(self):
        assert sim_to_unix(0.0) == SIM_EPOCH_UNIX

    def test_round_trip_unix(self):
        assert unix_to_sim(sim_to_unix(12345.0)) == 12345.0

    def test_fractional_seconds_truncate(self):
        assert sim_to_unix(1.9) == SIM_EPOCH_UNIX + 1


class TestPreEpochRounding:
    """Regression: sim_to_unix must floor, not truncate toward zero."""

    def test_negative_fractional_floors_down(self):
        # int(-0.5) == 0 put pre-epoch fractional times in the *wrong*
        # second; floor(-0.5) == -1 keeps them in the second containing
        # them, symmetric with +0.5 -> 0.
        assert sim_to_unix(-0.5) == SIM_EPOCH_UNIX - 1
        assert sim_to_unix(-1.0) == SIM_EPOCH_UNIX - 1
        assert sim_to_unix(-1.1) == SIM_EPOCH_UNIX - 2

    def test_positive_fractional_still_floors(self):
        assert sim_to_unix(1.9) == SIM_EPOCH_UNIX + 1

    def test_pre_epoch_round_trip_is_floor(self):
        # A Last-Modified stamped before sim time 0 (object created
        # before the trace window) must land on floor(t) after a header
        # round trip, not floor(t) + 1.
        for t in (-0.5, -1.5, -86400.25):
            assert parse_http_date(format_http_date(t)) == float(math.floor(t))

    def test_format_negative_half_second(self):
        # With int() truncation this rendered as the epoch itself.
        assert format_http_date(-0.5) == "Tue, 28 Feb 1995 23:59:59 GMT"


class TestFormat:
    def test_epoch_renders_1995(self):
        assert format_http_date(0.0) == "Wed, 01 Mar 1995 00:00:00 GMT"

    def test_one_day_later(self):
        assert format_http_date(86400.0) == "Thu, 02 Mar 1995 00:00:00 GMT"

    def test_negative_times_render_before_epoch(self):
        assert "Feb 1995" in format_http_date(-86400.0)

    def test_always_gmt_suffix(self):
        assert format_http_date(123456.0).endswith(" GMT")


class TestParse:
    def test_round_trip_epoch(self):
        assert parse_http_date("Wed, 01 Mar 1995 00:00:00 GMT") == 0.0

    def test_parse_arbitrary(self):
        t = parse_http_date("Sun, 06 Nov 1994 08:49:37 GMT")
        assert format_http_date(t) == "Sun, 06 Nov 1994 08:49:37 GMT"

    def test_whitespace_tolerated(self):
        assert parse_http_date("  Wed, 01 Mar 1995 00:00:00 GMT ") == 0.0

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_rejects_malformed(self, bad):
        with pytest.raises(HTTPDateError):
            parse_http_date(bad)


class TestImpossibleCalendarDates:
    """Regression: timegm silently normalizes 31 Feb to 3 Mar."""

    @pytest.mark.parametrize("bad", IMPOSSIBLE_DAYS)
    def test_rejects_impossible_day(self, bad):
        with pytest.raises(HTTPDateError):
            parse_http_date(bad)

    def test_leap_day_accepted_in_leap_year(self):
        t = parse_http_date("Thu, 29 Feb 1996 12:00:00 GMT")
        assert format_http_date(t) == "Thu, 29 Feb 1996 12:00:00 GMT"

    def test_out_of_calendar_year_rejected(self):
        with pytest.raises(HTTPDateError):
            parse_http_date(OUT_OF_CALENDAR_YEAR)


class TestWeekdayConsistency:
    """Regression: the weekday token must match the date it precedes."""

    def test_rejects_mismatched_weekday(self):
        # 06 Nov 1994 was a Sunday; "Mon" must not parse silently (it
        # would never round-trip byte-identically through
        # format_http_date).
        with pytest.raises(HTTPDateError):
            parse_http_date(MISMATCHED_WEEKDAY)

    @pytest.mark.parametrize("wrong", WRONG_EPOCH_WEEKDAYS)
    def test_rejects_every_wrong_weekday(self, wrong):
        with pytest.raises(HTTPDateError):
            parse_http_date(f"{wrong}, 01 Mar 1995 00:00:00 GMT")

    def test_accepts_matching_weekday(self):
        assert parse_http_date("Wed, 01 Mar 1995 00:00:00 GMT") == 0.0


@given(st.integers(min_value=-10 * 365 * 86400, max_value=10 * 365 * 86400))
def test_format_parse_round_trip(t):
    """Whole-second times survive the format/parse round trip exactly."""
    assert parse_http_date(format_http_date(float(t))) == float(t)

"""Time units."""

import pytest

from repro.core.clock import (
    DAY,
    HOUR,
    MINUTE,
    MONTH,
    days,
    hours,
    minutes,
    seconds,
    to_days,
    to_hours,
)


class TestUnits:
    def test_constants_consistent(self):
        assert MINUTE == 60 * 1.0
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR
        assert MONTH == 30 * DAY

    def test_helpers(self):
        assert seconds(5) == 5.0
        assert minutes(2) == 120.0
        assert hours(2) == 7200.0
        assert days(1.5) == 1.5 * DAY

    def test_inverse_helpers(self):
        assert to_hours(hours(125)) == 125.0
        assert to_days(days(56)) == 56.0

    def test_paper_ttl_range(self):
        # Figures sweep TTL 0..500 hours; make the unit algebra explicit.
        assert to_days(hours(500)) == pytest.approx(20.833, abs=0.001)


"""Each HTTP-date a live replay uses is converted once.

``format_http_date`` and ``parse_http_date`` are memoised by value, and
every live time is a whole second, so a replay should convert each
distinct value once and answer every repeat from the memo.  The
conversion code consults the per-day caches (``_day_text``,
``_calendar_day``) once per call, so their call counts are the number
of conversions actually done: a code path that converts a date without
the memo shows up as more conversions than memo misses.
"""

import pytest

from repro.core.server import OriginServer
from repro.http import datefmt
from repro.live import live_vs_sim
from tests.live.test_differential import _FACTORIES, _REQUESTS, _histories

_CACHES = (
    datefmt.format_http_date,
    datefmt.parse_http_date,
    datefmt._day_text,
    datefmt._calendar_day,
)


def _calls(cached) -> int:
    info = cached.cache_info()
    return info.hits + info.misses


def _instants() -> set[float]:
    """Every whole-second time the workload can put in a header: the
    request times, each object's creation and modification times, an
    ``Expires`` stamped at a request, and the run's end."""
    instants = {t for t, _ in _REQUESTS} | {120.0}
    for history in _histories():
        instants.add(history.obj.created)
        instants.update(history.schedule.times)
        if history.obj.expires_after is not None:
            instants.update(t + history.obj.expires_after for t, _ in _REQUESTS)
    return instants


@pytest.mark.parametrize("name", ["alex", "poll", "expires", "invalidation"])
def test_a_replay_converts_each_date_value_once(name):
    for cached in _CACHES:
        cached.cache_clear()
    _, _, report = live_vs_sim(
        OriginServer(_histories()), _FACTORIES[name], _REQUESTS,
        end_time=120.0, connections=2, keepalive=True,
    )
    assert report.ok
    formats = datefmt.format_http_date.cache_info()
    parses = datefmt.parse_http_date.cache_info()
    # Every conversion went through the memo...
    assert _calls(datefmt._day_text) == formats.misses
    assert _calls(datefmt._calendar_day) == parses.misses
    # ...which converted no more values than the workload holds...
    assert formats.misses <= len(_instants())
    assert parses.misses <= len(_instants())
    # ...and answered the repeats.
    assert formats.hits > formats.misses
    assert parses.hits > 0

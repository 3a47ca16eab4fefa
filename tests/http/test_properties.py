"""Hypothesis round-trip properties for the repro.http substrate.

Two invariant families back the live wire layer (``repro.live``):

* **HTTP-date identity** — ``parse_http_date(format_http_date(t)) == t``
  for every whole-second simulation time, *including negative ones*
  (pre-epoch Last-Modified stamps for objects created before the trace
  window).  Fractional times floor onto the second containing them.
  The codec keeps per-day calendar facts in a cache; a rendering must
  match ``time.gmtime``'s fields, and a parse must not depend on
  whether its day is cached.
* **Serialization/size agreement** — ``len(msg.serialize())`` equals
  ``msg.wire_size()`` for requests and responses, so the 43-byte cost
  model's grounding and the live servers' actual socket writes can
  never drift apart.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http import datefmt
from repro.http.datefmt import (
    SIM_EPOCH_UNIX,
    HTTPDateError,
    format_http_date,
    parse_http_date,
    sim_to_unix,
)
from repro.http.headers import Headers
from repro.http.messages import (
    Request,
    Response,
    make_conditional_get,
    make_ok,
    parse_request,
    parse_response,
)
from tests.http.test_datefmt import (
    IMPOSSIBLE_DAYS,
    MALFORMED,
    MISMATCHED_WEEKDAY,
    OUT_OF_CALENDAR_YEAR,
    WRONG_EPOCH_WEEKDAYS,
)

# calendar.monthrange / calendar.weekday (used by the parse-side
# validation) are defined for years 1..9999; sim times outside that
# window cannot round-trip by construction.  These bounds map to
# 01 Jan 0001 .. 31 Dec 9999 in unix seconds, shifted to sim time.
_SIM_MIN = -62_135_596_800 - SIM_EPOCH_UNIX
_SIM_MAX = 253_402_300_799 - SIM_EPOCH_UNIX

_whole_seconds = st.integers(min_value=_SIM_MIN, max_value=_SIM_MAX)


# -- HTTP-date identity -------------------------------------------------------


@given(_whole_seconds)
def test_http_date_round_trip_identity(t):
    """Whole-second sim times — negatives included — survive exactly."""
    assert parse_http_date(format_http_date(float(t))) == float(t)


@given(st.integers(min_value=_SIM_MIN, max_value=-1))
def test_http_date_round_trip_negative_times(t):
    """The pre-epoch half of the range, pinned explicitly."""
    assert parse_http_date(format_http_date(float(t))) == float(t)


@given(
    st.floats(
        min_value=float(_SIM_MIN),
        max_value=float(_SIM_MAX),
        allow_nan=False,
        allow_infinity=False,
    )
)
def test_http_date_round_trip_floors_fractional(t):
    """Fractional times land on the whole second containing them."""
    assert parse_http_date(format_http_date(t)) == float(math.floor(t))


@given(_whole_seconds)
def test_sim_to_unix_inverts_on_whole_seconds(t):
    assert sim_to_unix(float(t)) == SIM_EPOCH_UNIX + t


@given(_whole_seconds)
def test_formatted_date_is_fixed_length_rfc1123(t):
    """Every emitted date is the 29-char fixed-length RFC 1123 form."""
    text = format_http_date(float(t))
    parts = text.split()
    assert len(parts) == 6 and parts[5] == "GMT"
    # Fixed-length except the year, which the range can push to 4 digits
    # at most (years 1..9999 render %04d).
    assert len(text) == 29


_WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_http_date_matches_gmtime(t):
    """The per-day text plus divmod clock is what ``time.gmtime`` says,
    field for field, and parses back to ``t``."""
    fields = time.gmtime(SIM_EPOCH_UNIX + t)
    assert format_http_date(float(t)) == (
        f"{_WEEKDAY_NAMES[fields.tm_wday]}, {fields.tm_mday:02d} "
        f"{_MONTH_NAMES[fields.tm_mon - 1]} {fields.tm_year:04d} "
        f"{fields.tm_hour:02d}:{fields.tm_min:02d}:{fields.tm_sec:02d} GMT"
    )
    assert parse_http_date(format_http_date(float(t))) == float(t)


def _parsed(value):
    """What parsing ``value`` gives: its time, or its error message."""
    try:
        return parse_http_date(value)
    except HTTPDateError as exc:
        return str(exc)


@pytest.mark.parametrize("value", [
    *MALFORMED,
    *IMPOSSIBLE_DAYS,
    OUT_OF_CALENDAR_YEAR,
    MISMATCHED_WEEKDAY,
    *(f"{wrong}, 01 Mar 1995 00:00:00 GMT" for wrong in WRONG_EPOCH_WEEKDAYS),
    "Wed, 01 Mar 1995 00:00:00 GMT",
    "Thu, 29 Feb 1996 12:00:00 GMT",
])
def test_a_parse_does_not_depend_on_the_day_cache(value):
    """Every rejected input of ``test_datefmt`` (and two accepted ones)
    parses the same with its calendar day uncached and cached: same
    time, or same :class:`HTTPDateError` message."""
    day_cache = datefmt._calendar_day
    day_cache.cache_clear()
    datefmt.parse_http_date.cache_clear()
    cold = _parsed(value)
    cached = day_cache.cache_info().currsize
    # Forget the value, or the memo above the day cache answers alone.
    datefmt.parse_http_date.cache_clear()
    warm = _parsed(value)
    assert warm == cold
    # The second parse read the day the first one cached (an
    # uncalendared year is never cached, and fails alike both times).
    assert day_cache.cache_info().hits == cached


# -- message serialization/size agreement -------------------------------------

_paths = st.text(
    alphabet=st.sampled_from(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "-._~/"
    ),
    min_size=1,
    max_size=40,
).map(lambda s: "/" + s.lstrip("/"))

_header_names = st.text(
    alphabet=st.sampled_from(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-"
    ),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip("-") == s)

_header_values = st.text(
    alphabet=st.sampled_from(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
        "-._~/=,;"
    ),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip() == s)

_header_maps = st.dictionaries(_header_names, _header_values, max_size=5)


def _build_headers(mapping):
    headers = Headers()
    for name, value in mapping.items():
        headers.set(name, value)
    return headers


@given(_paths, _header_maps)
def test_request_serialize_length_equals_wire_size(path, header_map):
    request = Request("GET", path, headers=_build_headers(header_map))
    assert len(request.serialize()) == request.wire_size()


@given(_paths, _whole_seconds)
def test_conditional_get_serialize_length_equals_wire_size(path, t):
    request = make_conditional_get(path, float(t))
    assert len(request.serialize()) == request.wire_size()


@given(
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), _whole_seconds),
    _header_maps,
)
def test_response_serialize_length_equals_wire_size(size, lm, header_map):
    response = make_ok(
        size, last_modified=float(lm) if lm is not None else None
    )
    for name, value in header_map.items():
        response.headers.set(name, value)
    assert len(response.serialize()) == response.wire_size()


@given(_header_maps)
def test_not_modified_serialize_length_equals_wire_size(header_map):
    response = Response(304, headers=_build_headers(header_map))
    assert len(response.serialize()) == response.wire_size()


@settings(max_examples=50)
@given(_paths, st.one_of(st.none(), _whole_seconds))
def test_request_parse_round_trip(path, since):
    if since is None:
        request = Request("GET", path)
    else:
        request = make_conditional_get(path, float(since))
    parsed = parse_request(request.serialize())
    assert parsed.method == request.method
    assert parsed.path == request.path
    assert parsed.headers == request.headers


@settings(max_examples=50)
@given(
    st.integers(min_value=0, max_value=2_000),
    st.one_of(st.none(), _whole_seconds),
)
def test_response_parse_round_trip(size, lm):
    response = make_ok(
        size, last_modified=float(lm) if lm is not None else None
    )
    parsed = parse_response(response.serialize())
    assert parsed.status == response.status
    assert parsed.body_size == response.body_size
    assert parsed.headers == response.headers

"""The live leg's heads are rendered straight from their fields; these
properties pin each renderer to the bytes the message model
(:class:`~repro.http.messages.Request` / ``Response`` + ``Headers``)
serializes for the same fields, header order included.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cache import CacheEntry
from repro.core.objects import WebObject
from repro.core.server import FetchResult
from repro.http.headers import CONTENT_TYPE, EXPIRES, IF_MODIFIED_SINCE
from repro.http.messages import Request, Response, make_ok
from repro.live.driver import _request_head
from repro.live.origin import _not_modified_head, _ok_head
from repro.live.proxy import _cached_head, _upstream_head
from repro.live.wire import (
    DATE,
    PRAGMA,
    SEQ_HEADER,
    TRACE_HEADER,
    X_CACHE,
    error_response,
    text_reply,
)

_TIMES = st.integers(min_value=-10**6, max_value=10**9).map(float)
_SIZES = st.integers(min_value=0, max_value=10**6)
_PATHS = st.sampled_from(["/a", "/fas/obj-17.html", "/x/y.gif"])
_TYPES = st.sampled_from(["html", "image", "other", "text"])
_IDS = st.integers(min_value=0, max_value=10**6).map(lambda n: f"r{n}")


@given(path=_PATHS, t=_TIMES, seq=_IDS, traced=st.booleans())
def test_driver_request_head(path, t, seq, traced):
    request = Request("GET", path)
    request.headers.set_date(DATE, t)
    request.headers.set(SEQ_HEADER, seq)
    if traced:
        request.headers.set(TRACE_HEADER, seq)
    assert _request_head(path, t, seq, traced) == request.serialize()


@given(
    path=_PATHS, t=_TIMES, since=st.none() | _TIMES, k=_SIZES,
    trace=st.none() | _IDS,
)
def test_proxy_upstream_head(path, t, since, k, trace):
    request = Request("GET", path)
    request.headers.set_date(DATE, t)
    if since is not None:
        request.headers.set_date(IF_MODIFIED_SINCE, since)
    request.headers.set(SEQ_HEADER, f"{path}@{k}")
    if trace is not None:
        request.headers.set(TRACE_HEADER, trace)
    assert (
        _upstream_head(path, t, since, f"{path}@{k}", trace)
        == request.serialize()
    )


@given(
    size=_SIZES, file_type=_TYPES, last_modified=_TIMES, t=_TIMES,
    expires=st.none() | _TIMES,
    verdict=st.sampled_from(["HIT", "REVALIDATED"]),
)
def test_proxy_cached_head(size, file_type, last_modified, t, expires, verdict):
    entry = CacheEntry.from_fetch(
        "/a", file_type, FetchResult(0, last_modified, size, expires), t
    )
    response = make_ok(size, last_modified=last_modified)
    response.headers.set_date(DATE, t)
    response.headers.set(CONTENT_TYPE, file_type)
    if expires is not None:
        response.headers.set_date(EXPIRES, expires)
    response.headers.set(X_CACHE, verdict)
    assert _cached_head(entry, t, verdict) == response.serialize_head()


@given(
    size=_SIZES, file_type=_TYPES, last_modified=_TIMES, t=_TIMES,
    expires=st.none() | _TIMES, cacheable=st.booleans(),
)
def test_origin_ok_head(size, file_type, last_modified, t, expires, cacheable):
    obj = WebObject(
        "/a", size=size, file_type=file_type, cacheable=cacheable
    )
    response = make_ok(size, last_modified=last_modified)
    response.headers.set_date(DATE, t)
    response.headers.set(CONTENT_TYPE, file_type)
    if expires is not None:
        response.headers.set_date(EXPIRES, expires)
    if not cacheable:
        response.headers.set(PRAGMA, "no-cache")
    result = FetchResult(0, last_modified, size, expires)
    assert _ok_head(obj, t, result) == response.serialize_head()


@given(t=_TIMES, expires=st.none() | _TIMES)
def test_origin_not_modified_head(t, expires):
    response = Response(304)
    response.headers.set_date(DATE, t)
    if expires is not None:
        response.headers.set_date(EXPIRES, expires)
    assert _not_modified_head(t, expires) == response.serialize()


@given(
    body=st.text(alphabet=st.characters(max_codepoint=255)),
    content_type=st.none() | st.sampled_from(["text", "json"]),
    status=st.sampled_from([200, 400, 404, 500]),
)
def test_text_replies(body, content_type, status):
    response = Response(status, body_size=len(body))
    response.headers.set("Content-Length", str(len(body)))
    if content_type is not None:
        response.headers.set(CONTENT_TYPE, content_type)
    assert text_reply(body, content_type, status) == response.serialize(body)
    if content_type == "text":
        assert error_response(status, body) == text_reply(
            body + "\n", status=status
        )

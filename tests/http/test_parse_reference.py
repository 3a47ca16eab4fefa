"""The one-pass head parsers against a literal line-by-line reference
(hypothesis).

:func:`reference_parse_request` / :func:`reference_parse_response` are
the parsers ``repro.http.messages`` used to have: normalize every line
end, split the head into lines, and insert each field through
:meth:`Headers.set`.  The properties require the one-pass parsers to
return an equal message — status or request line, header values,
first-insertion casing and order, ``body_size`` — or to raise the same
:class:`HTTPParseError` message, over generated heads with mixed-case
and repeated names, surrounding whitespace, bare LFs and stray CRs,
empty and colon-less lines, and bodies of their own.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.http.headers import Headers
from repro.http.messages import (
    HTTPParseError,
    Request,
    Response,
    parse_request,
    parse_response,
)


def reference_parse_request(text: str) -> Request:
    """A request, parsed line by line."""
    normalized = text.replace("\r\n", "\n")
    head, _, _body = normalized.partition("\n\n")
    lines = head.split("\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HTTPParseError(f"bad request line: {lines[0]!r}")
    method, path, _version = parts
    if not path.startswith("/"):
        raise HTTPParseError(f"bad request path: {path!r}")
    request = Request(method, path)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HTTPParseError(f"bad header on line {lineno}: {line!r}")
        request.headers.set(name.strip(), value.strip())
    return request


def reference_parse_response(text: str) -> Response:
    """A response, parsed line by line."""
    normalized = text.replace("\r\n", "\n")
    head, sep, body = normalized.partition("\n\n")
    if not sep:
        raise HTTPParseError("response lacks a blank-line terminator")
    lines = head.split("\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HTTPParseError(f"bad status line: {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HTTPParseError(f"bad status code: {lines[0]!r}") from exc
    try:
        response = Response(status, body_size=len(body))
    except ValueError as exc:
        raise HTTPParseError(str(exc)) from exc
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        name, header_sep, value = line.partition(":")
        if not header_sep or not name.strip():
            raise HTTPParseError(f"bad header on line {lineno}: {line!r}")
        response.headers.set(name.strip(), value.strip())
    return response


def _outcome(parse, text):
    """Everything a parse yields, casing and order included, or its
    error message."""
    try:
        message = parse(text)
    except HTTPParseError as exc:
        return ("error", str(exc))
    headers: Headers = message.headers
    if isinstance(message, Request):
        start = (message.method, message.path)
    else:
        start = (message.status, message.body_size)
    return ("ok", type(message).__name__, start, list(headers))


_NAMES = st.sampled_from([
    "Date", "date", "DATE", "Content-Length", "content-length",
    "X-Cache", "x-cache", "Last-Modified", "Host", "A",
])
_VALUES = st.sampled_from([
    "", "5", "3", "HIT", "Thu, 02 Mar 1995 00:00:00 GMT", "a:b", "x y",
])
_PADS = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\xa0"])
_ENDS = st.sampled_from(["\r\n", "\r\n", "\n", "\r"])


@st.composite
def _lines(draw) -> str:
    """One head line after the start line, without its line end."""
    kind = draw(st.sampled_from(
        ["field", "field", "field", "empty", "colonless", "nameless"]
    ))
    if kind == "empty":
        return ""
    if kind == "colonless":
        return draw(st.sampled_from(["garbage", " ", "Date Thu"]))
    pad = draw(_PADS)
    name = "" if kind == "nameless" else draw(_NAMES)
    return f"{pad}{name}{draw(_PADS)}:{draw(_PADS)}{draw(_VALUES)}{draw(_PADS)}"


@st.composite
def _heads(draw, starts) -> str:
    """A start line, head lines, maybe a blank line, maybe a body."""
    parts = [draw(starts)]
    for line in draw(st.lists(_lines(), max_size=6)):
        parts += [draw(_ENDS), line]
    if draw(st.booleans()):
        parts += [draw(_ENDS), draw(_ENDS)]
        parts.append(draw(st.text(alphabet="x\r\n:", max_size=12)))
    return "".join(parts)


_REQUEST_LINES = st.sampled_from([
    "GET /a HTTP/1.0", "GET /fas/x.html HTTP/1.0", "HEAD /b HTTP/1.1",
    "GET /x", "GET x HTTP/1.0", "GET /x FTP/1.0", "", "GET  /x HTTP/1.0",
])
_STATUS_LINES = st.sampled_from([
    "HTTP/1.0 200 OK", "HTTP/1.0 304 Not Modified", "HTTP/1.0 500",
    "HTTP/1.0 abc", "HTP/1.0 200 OK", "HTTP/1.0", "",
])
#: Anything at all built from the characters that matter to framing.
_ANY = st.text(alphabet="\r\n :aA/HTP1.0GET23x", max_size=40)


class TestOnePassMatchesLineByLine:
    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(_heads(_REQUEST_LINES), _ANY))
    @example(text="GET /a HTTP/1.0\r\nGET /a HTTP/1.0\r\n\r\n")
    @example(text="GET /a HTTP/1.0\r\nA: 1\r\na: 2\r\n\r\n")
    @example(text="GET /a HTTP/1.0\r\r\nA: 1\n\r\nB: 2\r\n\r\n")
    def test_requests(self, text):
        assert _outcome(parse_request, text) == _outcome(
            reference_parse_request, text
        )

    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(_heads(_STATUS_LINES), _ANY))
    @example(text="HTTP/1.0 200 OK\r\nContent-Length: 3\r\n"
                  "Content-Length: 5\r\n\r\nabcdeXY")
    @example(text="HTTP/1.0 304 Not Modified\r\n\r\n\r\n")
    @example(text="HTTP/1.0 200 OK\r\nA: b\r\r\n\r\nx\r\ny\r")
    @example(text="HTTP/1.0 200 OK\nbad\n\n")
    def test_responses(self, text):
        assert _outcome(parse_response, text) == _outcome(
            reference_parse_response, text
        )

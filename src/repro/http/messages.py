"""Concrete HTTP/1.0 message models behind the simulator's cost accounting.

The paper's cost model is deliberately coarse: "each message averages 43
bytes and each file averages several thousand bytes".  The simulator
therefore charges a flat per-message byte cost (see
:mod:`repro.core.costs`).  This module provides the concrete message
objects that cost model abstracts: plain GETs, conditional GETs
(If-Modified-Since), 200/304 responses, and the out-of-band invalidation
notice used by the invalidation protocol.

These objects are used by the trace tooling and the examples to render
realistic exchanges, and by tests to sanity-check that the 43-byte flat
cost is the right order of magnitude for real HTTP/1.0 control messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.http.headers import (
    CONTENT_LENGTH,
    IF_MODIFIED_SINCE,
    LAST_MODIFIED,
    Headers,
)

#: Status line + reason phrases used by HTTP/1.0 servers of the era.
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


@dataclass
class Request:
    """An HTTP/1.0 request.

    A conditional GET is an ordinary GET carrying ``If-Modified-Since`` —
    the paper's combined "send this file if it has changed since a specific
    date" message that the optimized simulator relies on.
    """

    method: str
    path: str
    headers: Headers = field(default_factory=Headers)

    @property
    def is_conditional(self) -> bool:
        """True when this request carries ``If-Modified-Since``."""
        return IF_MODIFIED_SINCE in self.headers

    def request_line(self) -> str:
        """The HTTP/1.0 request line, without the trailing CRLF."""
        return f"{self.method} {self.path} HTTP/1.0"

    def wire_size(self) -> int:
        """Bytes on the wire: request line + headers + blank line."""
        return len(self.request_line()) + 2 + self.headers.wire_size() + 2

    def serialize(self) -> str:
        """Render the full request text."""
        return _serialize(self.request_line(), self.headers)


@dataclass
class Response:
    """An HTTP/1.0 response; ``body_size`` stands in for the entity body."""

    status: int
    headers: Headers = field(default_factory=Headers)
    body_size: int = 0

    def __post_init__(self) -> None:
        if self.body_size < 0:
            raise ValueError(f"negative body_size: {self.body_size}")
        if self.status == 304 and self.body_size:
            raise ValueError("304 Not Modified must not carry a body")

    def status_line(self) -> str:
        """The HTTP/1.0 status line, without the trailing CRLF."""
        return status_line(self.status)

    def header_size(self) -> int:
        """Bytes of status line + headers + blank line (excluding body)."""
        return len(self.status_line()) + 2 + self.headers.wire_size() + 2

    def wire_size(self) -> int:
        """Total bytes on the wire including the entity body."""
        return self.header_size() + self.body_size

    def serialize(self, body: Optional[str] = None) -> str:
        """Render the full response text, entity body included.

        The model carries only ``body_size``, not content; by default the
        body is rendered as that many filler bytes (the live origin
        serves real content this way — the consistency protocols are
        metadata-driven and never look at bodies).  Control endpoints
        pass an explicit ``body`` instead.

        Raises:
            ValueError: when an explicit ``body`` disagrees with
                ``body_size``.
        """
        if body is None:
            body = "x" * self.body_size
        elif len(body) != self.body_size:
            raise ValueError(
                f"body length {len(body)} != body_size {self.body_size}"
            )
        return self.serialize_head() + body

    def serialize_head(self) -> str:
        """Render the status line and headers, blank line included:
        everything :meth:`serialize` sends before the body."""
        return _serialize(self.status_line(), self.headers)


def status_line(status: int) -> str:
    """The HTTP/1.0 status line of ``status``, without the trailing
    CRLF: what a head rendered straight from its fields starts with."""
    return f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}"


def _serialize(start: str, headers: Headers) -> str:
    """A start line and its headers, blank line included, in one join."""
    return "\r\n".join([start, *map(": ".join, headers), "", ""])


@dataclass
class InvalidationNotice:
    """The server→cache callback message of the invalidation protocol.

    HTTP/1.0 has no such message; the paper's invalidation protocol assumes
    server modifications à la AFS callbacks.  We model it as a one-line
    datagram naming the object, which lands near the paper's 43-byte
    average control-message size.
    """

    path: str

    def wire_size(self) -> int:
        """Bytes on the wire for the notice."""
        return len(self.serialize())

    def serialize(self) -> str:
        """Render the notice text."""
        return f"INVALIDATE {self.path} CACHE/1.0\r\n\r\n"


class HTTPParseError(ValueError):
    """Raised when a serialized HTTP message cannot be parsed."""


def _split(text: str) -> tuple[list[str], Optional[int]]:
    """A serialized message's head lines, and its body's length.

    Lines end in CRLF or a bare LF (real 1995 clients produced both);
    the head ends at the first empty line.  The body's length is taken
    after its line ends are normalized too; it is ``None`` when no
    empty line ends the head.
    """
    head, sep, body = text.replace("\r\n", "\n").partition("\n\n")
    return head.split("\n"), len(body) if sep else None


def _fields(
    lines: list[str],
) -> tuple[dict[str, tuple[str, str]], tuple[str, ...]]:
    """The header lines after the start line, in one pass, as a
    :class:`Headers` table, and the lower-cased names whose repeats
    carry different values.

    A repeated name keeps its first casing and takes its last value,
    as :meth:`Headers.set` does; empty lines are skipped.

    Raises:
        HTTPParseError: for a line with no ``:`` or no name.
    """
    table: dict[str, tuple[str, str]] = {}
    clashes: tuple[str, ...] = ()
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        name = name.strip()
        if sep and name:
            key = name.lower()
            if key in table:
                first, last = table[key]
                value = value.strip()
                if value != last:
                    clashes += (key,)
                table[key] = (first, value)
            else:
                table[key] = (name, value.strip())
        elif line:
            lineno = lines.index(line, 1) + 1
            raise HTTPParseError(f"bad header on line {lineno}: {line!r}")
    return table, clashes


def parse_request(text: str) -> Request:
    """Parse a serialized HTTP/1.0 request back into a :class:`Request`.

    Accepts exactly what :meth:`Request.serialize` emits (request line,
    ``Name: value`` headers, blank-line terminator), with either CRLF or
    bare-LF line endings — real 1995 clients produced both.

    Raises:
        HTTPParseError: for malformed request lines or header fields.
    """
    lines, _ = _split(text)
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HTTPParseError(f"bad request line: {lines[0]!r}")
    method, path, _version = parts
    if not path.startswith("/"):
        raise HTTPParseError(f"bad request path: {path!r}")
    table, _ = _fields(lines)
    return Request(method, path, Headers.from_table(table))


def _status(lines: list[str], body_size: Optional[int]) -> int:
    """The status code of a head split by :func:`_split`."""
    if body_size is None:
        raise HTTPParseError("response lacks a blank-line terminator")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HTTPParseError(f"bad status line: {lines[0]!r}")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise HTTPParseError(f"bad status code: {lines[0]!r}") from exc


def parse_response(text: str) -> Response:
    """Parse a serialized HTTP/1.0 response back into a :class:`Response`.

    Accepts what :meth:`Response.serialize` emits (status line,
    ``Name: value`` headers, blank line, entity body), with either CRLF
    or bare-LF line endings.  The body's *length* becomes ``body_size``;
    content is discarded — the models are metadata-only.

    Raises:
        HTTPParseError: for malformed status lines or header fields.
    """
    lines, body_size = _split(text)
    status = _status(lines, body_size)
    assert body_size is not None
    try:
        response = Response(status, body_size=body_size)
    except ValueError as exc:  # e.g. a 304 carrying a body
        raise HTTPParseError(str(exc)) from exc
    table, _ = _fields(lines)
    response.headers = Headers.from_table(table)
    return response


def parse_response_head(text: str) -> tuple[int, Headers, tuple[str, ...]]:
    """A response head's status and headers, parsed as
    :func:`parse_response` parses them, whatever follows the head.

    Also returns the lower-cased names of fields repeated with
    different values: a reader that frames the body by
    ``Content-Length`` must refuse a head that gives two.

    Raises:
        HTTPParseError: for malformed status lines or header fields.
    """
    lines, body_size = _split(text)
    status = _status(lines, body_size)
    table, clashes = _fields(lines)
    return status, Headers.from_table(table), clashes


def make_get(path: str) -> Request:
    """Build a plain (unconditional) GET request."""
    return Request("GET", path)


def make_conditional_get(path: str, since: float) -> Request:
    """Build a GET carrying ``If-Modified-Since: <since>``."""
    req = Request("GET", path)
    req.headers.set_date(IF_MODIFIED_SINCE, since)
    return req


def make_ok(body_size: int, last_modified: Optional[float] = None) -> Response:
    """Build a 200 response of ``body_size`` bytes."""
    resp = Response(200, body_size=body_size)
    resp.headers.set(CONTENT_LENGTH, str(body_size))
    if last_modified is not None:
        resp.headers.set_date(LAST_MODIFIED, last_modified)
    return resp


def make_not_modified() -> Response:
    """Build a 304 Not Modified response."""
    return Response(304)

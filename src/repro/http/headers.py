"""HTTP/1.0 header modelling for the consistency protocols.

The three consistency mechanisms the paper studies map onto three HTTP/1.0
header fields:

* ``Expires`` — carries the server-assigned time-to-live (the TTL
  protocol and the first rule of the CERN httpd policy).
* ``Last-Modified`` — the timestamp the Alex protocol uses as the object's
  age reference, and the second rule of the CERN policy.
* ``If-Modified-Since`` — the conditional-retrieval request header used by
  the *optimized* simulator ("send this file if it has changed since a
  specific date").

This module provides a small case-insensitive header container plus typed
accessors for those fields.  It exists so that the simulator's abstract
"43-byte control message" can be backed by a concrete, serializable HTTP
message when traces are written to disk.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Optional

from repro.http.datefmt import HTTPDateError, format_http_date, parse_http_date

EXPIRES = "Expires"
LAST_MODIFIED = "Last-Modified"
IF_MODIFIED_SINCE = "If-Modified-Since"
CONTENT_LENGTH = "Content-Length"
CONTENT_TYPE = "Content-Type"


class Headers:
    """A case-insensitive, order-preserving HTTP header collection.

    Header field names are case-insensitive per RFC 1945; the original
    casing of the first insertion is preserved for serialization.
    """

    def __init__(self, items: Optional[Mapping[str, str]] = None) -> None:
        self._fields: dict[str, tuple[str, str]] = {}
        if items:
            for name, value in items.items():
                self.set(name, value)

    @classmethod
    def from_table(cls, fields: dict[str, tuple[str, str]]) -> "Headers":
        """Wrap a table already keyed by lower-cased name, each entry
        ``(first-inserted casing, value)`` — what a parser builds in
        one pass — without re-inserting its fields."""
        headers = cls.__new__(cls)
        headers._fields = fields
        return headers

    def set(self, name: str, value: str) -> None:
        """Set header ``name`` to ``value``, replacing any existing value."""
        key = name.lower()
        existing = self._fields.get(key)
        canonical = existing[0] if existing else name
        self._fields[key] = (canonical, str(value))

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the value of header ``name`` or ``default``."""
        entry = self._fields.get(name.lower())
        return entry[1] if entry else default

    def remove(self, name: str) -> None:
        """Delete header ``name`` if present."""
        self._fields.pop(name.lower(), None)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._fields

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._fields.values())

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        # Field names compare case-insensitively; original casing is a
        # serialization detail, not part of the header's identity.
        if not isinstance(other, Headers):
            return NotImplemented
        return {k: v for k, (_, v) in self._fields.items()} == {
            k: v for k, (_, v) in other._fields.items()
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v}" for n, v in self)
        return f"Headers({{{inner}}})"

    # -- typed accessors for the consistency-relevant fields ---------------

    def set_date(self, name: str, t: float) -> None:
        """Set header ``name`` to simulation time ``t`` as an HTTP-date."""
        self.set(name, format_http_date(t))

    def get_date(self, name: str) -> Optional[float]:
        """Parse header ``name`` as an HTTP-date into simulation time.

        Returns ``None`` when the header is absent.

        Raises:
            HTTPDateError: when the header is present but malformed.
        """
        raw = self.get(name)
        if raw is None:
            return None
        return parse_http_date(raw)

    @property
    def expires(self) -> Optional[float]:
        """The ``Expires`` timestamp, in simulation time, if present."""
        return self.get_date(EXPIRES)

    @property
    def last_modified(self) -> Optional[float]:
        """The ``Last-Modified`` timestamp, in simulation time, if present."""
        return self.get_date(LAST_MODIFIED)

    @property
    def if_modified_since(self) -> Optional[float]:
        """The ``If-Modified-Since`` timestamp, in simulation time."""
        return self.get_date(IF_MODIFIED_SINCE)

    @property
    def content_length(self) -> Optional[int]:
        """The ``Content-Length`` value as an int, if present and valid."""
        raw = self.get(CONTENT_LENGTH)
        if raw is None:
            return None
        try:
            n = int(raw)
        except ValueError as exc:
            raise HTTPDateError(f"bad Content-Length: {raw!r}") from exc
        if n < 0:
            raise HTTPDateError(f"negative Content-Length: {raw!r}")
        return n

    def wire_size(self) -> int:
        """On-the-wire size of these headers in bytes (``Name: value\\r\\n``)."""
        return sum(len(name) + 2 + len(value) + 2 for name, value in self)

"""The origin (primary) server model.

The Web differs from a distributed file system in that "each item on the
web has a single master site from which changes can be made" (Section
2.0).  The :class:`OriginServer` is that master site: it owns every
object's modification schedule and answers the three operations the
protocols need —

* a plain **GET** (full retrieval),
* a **conditional GET** carrying If-Modified-Since, and
* the **invalidation feed**: the time-ordered stream of modification
  events that the invalidation protocol turns into callback messages.

The server is a pure queryable model; all cost/operation accounting is
done by the simulator so the same server instance can back multiple
caches (the hierarchy experiments).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.obs import registry as obs_metrics


@dataclass(frozen=True)
class FetchResult:
    """What a retrieval (or a validation that found a change) returns.

    Attributes:
        version: the origin's content version at fetch time.
        last_modified: the origin's Last-Modified timestamp at fetch time.
        size: body size in bytes.
        expires: absolute Expires timestamp the server attached, if any.
    """

    version: int
    last_modified: float
    size: int
    expires: Optional[float] = None


@dataclass(frozen=True)
class NotModified:
    """A 304 Not Modified reply.

    No body travels, but response metadata does: a server that stamps
    ``Expires`` headers re-stamps one on the 304, so an Expires-driven
    cache gets a *fresh* lifetime from every successful revalidation
    instead of re-validating forever against the first, long-lapsed
    Expires it ever saw.

    Attributes:
        expires: the refreshed absolute Expires timestamp, or ``None``
            when the object carries no a-priori lifetime.
    """

    expires: Optional[float] = None


class UnknownObjectError(KeyError):
    """Raised when a request names an object the server does not hold."""


class OriginServer:
    """An origin server holding a fixed population of objects.

    Args:
        histories: the object population with modification schedules.

    Raises:
        ValueError: on duplicate object ids.
    """

    def __init__(self, histories: Iterable[ObjectHistory]) -> None:
        self._histories: dict[str, ObjectHistory] = {}
        for history in histories:
            oid = history.object_id
            if oid in self._histories:
                raise ValueError(f"duplicate object id: {oid!r}")
            self._histories[oid] = history
        self._invalidation_feed: Optional[tuple[tuple[float, str], ...]] = None
        self._feed_times: Optional[tuple[float, ...]] = None

    # -- population introspection ------------------------------------------

    def __len__(self) -> int:
        return len(self._histories)

    def __contains__(self, object_id: object) -> bool:
        return object_id in self._histories

    @property
    def object_ids(self) -> Sequence[str]:
        """All object identifiers, in insertion order."""
        return list(self._histories)

    def histories(self) -> Mapping[str, ObjectHistory]:
        """The full id → history mapping (read-only view by convention)."""
        return self._histories

    def history(self, object_id: str) -> ObjectHistory:
        """Return the history for ``object_id``.

        Raises:
            UnknownObjectError: if the server does not hold the object.
        """
        try:
            return self._histories[object_id]
        except KeyError:
            raise UnknownObjectError(object_id) from None

    def object(self, object_id: str) -> WebObject:
        """Return the :class:`WebObject` for ``object_id``."""
        return self.history(object_id).obj

    def schedule(self, object_id: str) -> ModificationSchedule:
        """Return the modification schedule for ``object_id``."""
        return self.history(object_id).schedule

    def total_changes(self, start: float, end: float) -> int:
        """Total modifications across all objects with start < t <= end."""
        return sum(
            h.schedule.changes_in(start, end) for h in self._histories.values()
        )

    # -- the operations protocols exercise ----------------------------------

    def version_at(self, object_id: str, t: float) -> int:
        """Content version the origin holds for ``object_id`` at time ``t``."""
        return self.history(object_id).schedule.version_at(t)

    def get(self, object_id: str, t: float) -> FetchResult:
        """A plain GET: return the current version's metadata."""
        obs_metrics.emit("server.gets")
        history = self.history(object_id)
        obj = history.obj
        expires = None
        if obj.expires_after is not None:
            expires = t + obj.expires_after
        return FetchResult(
            version=history.schedule.version_at(t),
            last_modified=history.schedule.last_modified_at(t),
            size=obj.size,
            expires=expires,
        )

    def if_modified_since(
        self, object_id: str, t: float, since: float
    ) -> "FetchResult | NotModified":
        """A conditional GET.

        Implements the paper's combined query: "send this file if it has
        changed since a specific date".

        Returns:
            A :class:`NotModified` reply (carrying a refreshed Expires
            timestamp when the object declares a lifetime) when the
            object has not been modified after ``since``, otherwise the
            new version's :class:`FetchResult`.
        """
        obs_metrics.emit("server.ims_queries")
        history = self.history(object_id)
        if history.schedule.last_modified_at(t) <= since:
            obj = history.obj
            expires = None
            if obj.expires_after is not None:
                expires = t + obj.expires_after
            return NotModified(expires=expires)
        return self.get(object_id, t)

    # -- invalidation support ------------------------------------------------

    def invalidation_feed(self) -> tuple[tuple[float, str], ...]:
        """All modification events as a time-ordered ``(time, id)`` stream.

        This is what the invalidation protocol's callback machinery
        consumes: "each time an item changes the server notifies caches
        that their copies are no longer valid".  The feed is computed once
        and cached; servers are immutable after construction.
        """
        if self._invalidation_feed is None:
            events = [
                (t, oid)
                for oid, history in self._histories.items()
                for t in history.schedule.times
            ]
            events.sort()
            self._invalidation_feed = tuple(events)
            self._feed_times = tuple(t for t, _ in events)
        return self._invalidation_feed

    def feed_position(self, t: float) -> int:
        """Index of the first feed event strictly after ``t`` — where a
        run that starts (or preloads) at ``t`` begins delivering.

        >>> from repro.core.objects import (
        ...     ModificationSchedule, ObjectHistory, WebObject)
        >>> server = OriginServer([ObjectHistory(
        ...     WebObject("/a", size=10, created=-1.0),
        ...     ModificationSchedule(-1.0, [1.0, 2.0, 3.0]))])
        >>> server.feed_position(1.0)  # the event at 1.0 is not after 1.0
        1
        >>> server.invalidation_feed()[server.feed_position(1.0):]
        ((2.0, '/a'), (3.0, '/a'))
        """
        self.invalidation_feed()
        assert self._feed_times is not None  # populated alongside the feed
        return bisect_right(self._feed_times, t)

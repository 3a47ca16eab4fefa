"""The request transition: one I/O-free step, written once.

Which requests become hits, If-Modified-Since validations or body
transfers, and what each costs, is decided and accounted here and
nowhere else.  The single-cache simulator, every node of the cache tree
and the live proxy are adapters over :class:`RequestStep`; the only other
implementations are the two deliberately independent ones
(``repro.verify.spec.SpecModel`` and ``repro.fastpath.kernels``), which
must never import this module.

The step never performs an exchange.  A request is two plain calls with
the caller's own I/O in between, the reply in the shape
:class:`~repro.core.server.OriginServer` already produces::

    entry, fresh = step.begin(object_id, t)
    if entry is None:        # miss, or base-mode expiry: a plain GET
        entry = step.fetched(object_id, t, file_type, result, cacheable)
    elif fresh:              # serve the cached copy
        step.hit(object_id, t)
    else:                    # If-Modified-Since entry.last_modified
        entry = step.validated(entry, t, reply)

Invalidation delivery works the same way: :meth:`RequestStep.deliver`
and :meth:`RequestStep.fault` return True when the eager variant wants
the new copy pushed, and the caller hands that GET's result to
:meth:`RequestStep.prefetched`.  What stays with the caller differs for
real: who performs the exchange (and counts ``server_gets`` /
``server_ims_queries``), ground-truth staleness, and the proxy's reply
rendering and journal staging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.cache import Cache, CacheEntry
from repro.core.costs import MessageCosts
from repro.core.metrics import (
    FULL_RETRIEVAL,
    INVALIDATION,
    PREFETCH,
    VALIDATION_200,
    VALIDATION_304,
    BandwidthLedger,
    ConsistencyCounters,
)
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.server import FetchResult, NotModified
from repro.faults.plan import ATTEMPT_LOST, CRASH, DELIVER, DROP, FaultAction

#: Every event kind an :data:`EventObserver` can receive.  The
#: ``repro.verify`` oracle replays exactly this alphabet event-for-event.
#: The ``fault_*`` kinds fire only when a :class:`repro.faults.FaultPlan`
#: is installed: an attempt lost in the network, a notice permanently
#: abandoned (retries exhausted or server down), a delivery that
#: succeeded on a retry, and a cache crash (empty object id).
EVENT_KINDS: tuple[str, ...] = (
    "hit",
    "stale_hit",
    "miss",
    "validation_304",
    "validation_200",
    "invalidation",
    "prefetch",
    "dynamic_fetch",
    "fault_invalidation_lost",
    "fault_invalidation_dropped",
    "fault_invalidation_recovered",
    "fault_cache_crash",
)

#: Callback signature for per-event tracing: ``observer(kind, time, id)``.
#: Kinds are the members of :data:`EVENT_KINDS`.
EventObserver = Callable[[str, float, str], None]


class SimulatorMode(enum.Enum):
    """Which generation of the paper's simulator to model."""

    #: Expired entries are refetched unconditionally (Figures 2-3).
    BASE = "base"
    #: Expired entries are revalidated with If-Modified-Since (Figures 4-8).
    OPTIMIZED = "optimized"


def discard(kind: str, t: float, object_id: str) -> None:
    """The event sink of a step nobody observes."""


@dataclass(slots=True)
class RequestStep:
    """The consistency state machine of one cache.

    ``counters`` and ``bandwidth`` are updated in place; ``on_event``
    receives ``(kind, time, object_id)`` with kinds from
    :data:`EVENT_KINDS` (:func:`discard` when nobody listens).
    ``charge_per_modification`` is the Section 4.1 policy: True charges a
    notice for every modification of a resident entry, False only when
    the callback flips a valid entry to invalid.
    """

    cache: Cache
    protocol: ConsistencyProtocol
    mode: SimulatorMode
    costs: MessageCosts
    charge_per_modification: bool
    counters: ConsistencyCounters
    bandwidth: BandwidthLedger
    on_event: EventObserver

    def store(
        self, object_id: str, file_type: str, result: FetchResult, t: float
    ) -> CacheEntry:
        """Store the copy ``result`` describes and stamp its expiry."""
        entry = CacheEntry.from_fetch(object_id, file_type, result, t)
        self.cache.store(entry)
        self.protocol.on_stored(entry, t)
        return entry

    # -- invalidation delivery -------------------------------------------------

    def deliver(self, mod_time: float, object_id: str) -> bool:
        """Deliver one line of the fault-free feed: a notice sent and
        received at ``mod_time``.

        Returns:
            True when the caller must GET the object at ``mod_time`` and
            hand the result to :meth:`prefetched`.
        """
        entry = self.cache.peek(object_id)
        if entry is None:
            return False
        if entry.valid or self.charge_per_modification:
            self._notice_sent()
        return self._notice_arrived(object_id, mod_time, None, 0)

    def fault(self, action: FaultAction) -> bool:
        """Replay one compiled fault action.

        Charging follows the real message flow: every attempt that
        leaves the server (lost ones included) costs one notice and
        counts toward ``server_invalidations_sent``; only deliveries
        that arrive count toward ``invalidations_received``.  A null
        plan replays byte-identically to :meth:`deliver` over the feed.

        Returns:
            True when the caller must GET the object at ``action.time``
            and hand the result to :meth:`prefetched`.
        """
        kind = action.kind
        if kind == CRASH:
            self.cache.clear()
            self.on_event("fault_cache_crash", action.time, "")
            return False
        object_id = action.object_id
        entry = self.cache.peek(object_id)
        if entry is None:
            return False
        if kind == DELIVER:
            return self._notice_arrived(
                object_id, action.time, action.mod_time, action.attempt
            )
        if kind == DROP:
            # Permanently abandoned (retries exhausted or server down)
            # while the cache still believes the copy valid: this is the
            # moment unbounded staleness begins.
            if entry.valid:
                self.on_event(
                    "fault_invalidation_dropped", action.time, object_id
                )
        elif entry.valid or self.charge_per_modification:
            # ATTEMPT_SENT / ATTEMPT_LOST: the server sends a notice when
            # the entry is still valid from its point of view (or on
            # every modification).  Lost attempts cost the same bytes;
            # they just never arrive.
            self._notice_sent()
            if kind == ATTEMPT_LOST:
                self.on_event(
                    "fault_invalidation_lost", action.time, object_id
                )
        return False

    def _notice_sent(self) -> None:
        self.counters.server_invalidations_sent += 1
        control, body = self.costs.invalidation_notice()
        self.bandwidth.charge(INVALIDATION, control, body)

    def _notice_arrived(
        self,
        object_id: str,
        t: float,
        modified_at: Optional[float],
        attempt: int,
    ) -> bool:
        # Always through Cache.invalidate, so a delayed notice that a
        # refetch already superseded changes nothing.
        went_invalid = self.cache.invalidate(
            object_id, modified_at=modified_at
        )
        if went_invalid or self.charge_per_modification:
            self.counters.invalidations_received += 1
            if attempt > 0:
                self.on_event("fault_invalidation_recovered", t, object_id)
            self.on_event("invalidation", t, object_id)
        # Pre-optimization invalidation pushes the new copy with the
        # notice, off any client's critical path.
        return bool(getattr(self.protocol, "eager", False))

    def prefetched(
        self, object_id: str, t: float, file_type: str, result: FetchResult
    ) -> None:
        """Settle an eager push.  Not a cache miss: no request is waiting."""
        control, body = self.costs.full_retrieval(result.size)
        self.bandwidth.charge(PREFETCH, control, body)
        self.counters.prefetches += 1
        self.store(object_id, file_type, result, t)
        self.on_event("prefetch", t, object_id)

    # -- the request -----------------------------------------------------------

    def begin(
        self, object_id: str, t: float
    ) -> tuple[Optional[CacheEntry], bool]:
        """Count the request and decide what it needs.

        Returns:
            ``(None, False)`` when a plain GET is needed — a miss, or a
            base-mode expiry, refetched even when nothing changed;
            ``(entry, True)`` for a fresh entry to serve; ``(entry,
            False)`` for an expired one to revalidate.
        """
        self.counters.requests += 1
        entry = self.cache.lookup(object_id)
        if entry is None:
            return None, False
        if self.protocol.is_fresh(entry, t):
            return entry, True
        if self.mode is SimulatorMode.BASE:
            return None, False
        self.counters.validations += 1
        return entry, False

    def hit(self, object_id: str, t: float, stale: bool = False) -> None:
        """Serve a fresh entry.  ``stale`` is the caller's ground truth,
        when it has one; it only selects the event kind."""
        self.counters.hits += 1
        self.on_event("stale_hit" if stale else "hit", t, object_id)

    def fetched(
        self,
        object_id: str,
        t: float,
        file_type: str,
        result: FetchResult,
        cacheable: bool,
    ) -> CacheEntry:
        """Settle a plain GET: a full retrieval, stored unless the reply
        is uncacheable (dynamic content).  Returns the copy to serve."""
        control, body = self.costs.full_retrieval(result.size)
        self.bandwidth.charge(FULL_RETRIEVAL, control, body)
        self.counters.full_retrievals += 1
        self.counters.misses += 1
        if not cacheable:
            self.on_event("dynamic_fetch", t, object_id)
            return CacheEntry.from_fetch(object_id, file_type, result, t)
        entry = self.store(object_id, file_type, result, t)
        self.on_event("miss", t, object_id)
        return entry

    def validated(
        self,
        entry: CacheEntry,
        t: float,
        reply: Union[FetchResult, NotModified],
    ) -> CacheEntry:
        """Settle an If-Modified-Since exchange; returns the entry to serve.

        "Cache misses are recorded only when a file actually needs to be
        transferred to the cache": a 304 is a hit the origin just
        confirmed current, a 200 a miss that replaces the entry.
        """
        if isinstance(reply, NotModified):
            control, body = self.costs.validation_not_modified()
            self.bandwidth.charge(VALIDATION_304, control, body)
            self.counters.validations_not_modified += 1
            entry.validated_at = t
            entry.valid = True
            # The 304 re-stamps the Expires header: without this an
            # Expires-driven entry would revalidate on every request
            # forever once its first Expires lapsed.
            entry.server_expires = reply.expires
            self.protocol.on_stored(entry, t)
            self.protocol.on_validation_result(entry, t, was_modified=False)
            self.counters.hits += 1
            self.on_event("validation_304", t, entry.object_id)
            return entry
        control, body = self.costs.validation_modified(reply.size)
        self.bandwidth.charge(VALIDATION_200, control, body)
        self.counters.misses += 1
        entry = self.store(entry.object_id, entry.file_type, reply, t)
        self.protocol.on_validation_result(entry, t, was_modified=True)
        self.on_event("validation_200", t, entry.object_id)
        return entry

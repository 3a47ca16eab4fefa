"""The single-cache trace-driven simulator.

This is the paper's measurement instrument: one proxy cache in front of
one origin server, driven by a time-ordered request stream, with the
origin's modification schedule running underneath.  Two modes reproduce
the paper's two simulator generations:

* :attr:`SimulatorMode.BASE` — Worrell's behaviour with the hierarchy
  flattened: when a time-based protocol's entry expires, "the next
  request for the object will cause the object to be requested from its
  original source" — an *unconditional* full retrieval, even if the
  content never changed (Figures 2-3).
* :attr:`SimulatorMode.OPTIMIZED` — the authors' conditional-retrieval
  optimization: expiry merely marks the entry; the next request issues an
  If-Modified-Since query and the body moves only when it truly changed.
  "Cache misses are recorded only when a file actually needs to be
  transferred to the cache" (Figures 4-8).

The invalidation protocol behaves identically in both modes because
Worrell had already applied the analogous optimization to it: callbacks
mark entries invalid without refetching.

Event interleaving: before serving a request at time *t*, every origin
modification with timestamp <= *t* is delivered to caches registered for
callbacks (the invalidation protocol).

This module is the driver only.  Every decision and every byte of
accounting is :class:`repro.core.step.RequestStep`'s, which the cache
hierarchy and the live proxy account through as well; what is written
here is what only the simulator can do — perform the exchange against
the in-memory origin, and read ground-truth staleness off the schedule.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.cache import Cache
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace
from repro.core.metrics import BandwidthLedger, ConsistencyCounters
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult
from repro.core.server import FetchResult, OriginServer
from repro.core.step import (
    EVENT_KINDS,
    EventObserver,
    RequestStep,
    SimulatorMode,
    discard,
)
from repro.faults.plan import FaultAction, FaultPlan

# The alphabet, the observer type and the mode are the step's; this
# module stays their public import path.
__all__ = [
    "EVENT_KINDS", "EventObserver", "Simulation", "SimulatorMode", "simulate",
]


class Simulation:
    """One simulation run: a cache, a protocol, and a request stream.

    Args:
        server: the origin server (population + modification schedules).
        protocol: the consistency protocol governing the cache.
        mode: base or optimized simulator behaviour.
        costs: byte cost model (defaults to the paper's 43-byte messages).
        cache: an existing cache to drive; a fresh unbounded one when None.
        preload: when True (the paper's configuration), load a valid copy
            of every cacheable object before the run starts.
        start_time: simulation time at which the run begins; preloaded
            entries are stamped as validated at this instant.
        observer: optional per-event callback (see :data:`EventObserver`)
            for tracing and custom statistics.
        charge_per_modification: the Section 4.1 charging policy.  When
            True (the paper's reading — "The invalidation protocol sends
            an invalidation message every time that a file changes"), a
            notice is charged for every modification of a resident entry,
            even one already marked invalid.  When False, only when the
            callback actually flips a valid entry to invalid — the
            accounting of a server that tracks per-cache validity, which
            is what the hierarchy's holder registration does.
        faults: an optional :class:`repro.faults.FaultPlan`.  When set,
            invalidation delivery runs off the plan's compiled schedule
            (loss, delay, downtime, retries) instead of the perfect
            feed, and cache-crash actions apply to any protocol; when
            None (the default) behaviour is exactly the historical
            fault-free path.  A null plan (all rates zero) replays
            byte-identically to ``faults=None``.
    """

    def __init__(
        self,
        server: OriginServer,
        protocol: ConsistencyProtocol,
        mode: SimulatorMode = SimulatorMode.OPTIMIZED,
        *,
        costs: MessageCosts = DEFAULT_COSTS,
        cache: Optional[Cache] = None,
        preload: bool = True,
        start_time: float = 0.0,
        observer: Optional["EventObserver"] = None,
        charge_per_modification: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.server = server
        self.protocol = protocol
        self.mode = mode
        self.costs = costs
        self.cache = cache if cache is not None else Cache()
        self.counters = ConsistencyCounters()
        self.bandwidth = BandwidthLedger()
        self.charge_per_modification = bool(charge_per_modification)
        # With tracing/metrics off the tee returns ``observer`` unchanged
        # (None included, hence ``discard``).
        self._core = RequestStep(
            self.cache,
            protocol,
            mode,
            costs,
            self.charge_per_modification,
            self.counters,
            self.bandwidth,
            obs_trace.instrumented_observer(observer) or discard,
        )
        self.start_time = float(start_time)
        self._now = float(start_time)
        self.faults = faults
        self._feed: tuple[tuple[float, str], ...] = ()
        self._feed_idx = 0
        self._fault_actions: tuple[FaultAction, ...] = ()
        self._fault_idx = 0
        if faults is not None:
            # The injection seam: delivery (and crashes) run off the
            # compiled schedule; the fault-free feed is bypassed.
            feed = (
                server.invalidation_feed()
                if protocol.wants_invalidations
                else ()
            )
            self._fault_actions = faults.compile(
                feed, start_time=self.start_time
            )
        elif protocol.wants_invalidations:
            self._feed = server.invalidation_feed()
            # Skip modifications that predate the run; preloaded entries
            # already reflect them.
            self._feed_idx = server.feed_position(self.start_time)
        self._delivers = bool(self._fault_actions or self._feed)
        if preload:
            self.cache.preload_from(server, at=self.start_time)
            for entry in self.cache:
                protocol.on_stored(entry, self.start_time)

    # -- internals -------------------------------------------------------------

    def _deliver_until(self, t: float) -> None:
        """Deliver every invalidation (or compiled fault action) with a
        timestamp <= ``t``, pushing the new copy when the step asks."""
        core = self._core
        if self.faults is not None:
            actions = self._fault_actions
            idx = self._fault_idx
            n = len(actions)
            while idx < n and actions[idx].time <= t:
                action = actions[idx]
                idx += 1
                if core.fault(action):
                    self._prefetch(action.object_id, action.time)
            self._fault_idx = idx
            return
        feed = self._feed
        idx = self._feed_idx
        n = len(feed)
        while idx < n and feed[idx][0] <= t:
            mod_time, oid = feed[idx]
            idx += 1
            if core.deliver(mod_time, oid):
                self._prefetch(oid, mod_time)
        self._feed_idx = idx

    def _prefetch(self, object_id: str, t: float) -> None:
        result = self.server.get(object_id, t)
        self.counters.server_gets += 1
        file_type = self.server.object(object_id).file_type
        self._core.prefetched(object_id, t, file_type, result)

    # -- public API --------------------------------------------------------------

    def step(self, t: float, object_id: str) -> None:
        """Serve one client request for ``object_id`` at time ``t``.

        Requests must be presented in non-decreasing time order.

        Raises:
            ValueError: when ``t`` precedes the previous request.
        """
        if t < self._now:
            raise ValueError(
                f"request at {t!r} precedes current time {self._now!r}; "
                "request streams must be time-ordered"
            )
        self._now = t
        if self._delivers:
            self._deliver_until(t)
        core = self._core
        entry, fresh = core.begin(object_id, t)
        if entry is None:
            result = self.server.get(object_id, t)
            self.counters.server_gets += 1
            obs_metrics.observe("sim.transfer_bytes", float(result.size))
            # Dynamic content is regenerated at the origin, never stored.
            obj = self.server.object(object_id)
            core.fetched(object_id, t, obj.file_type, result, obj.cacheable)
        elif fresh:
            schedule = self.server.schedule(object_id)
            stale = entry.version < schedule.version_at(t)
            if stale:
                self.counters.stale_hits += 1
                # How long has this entry been stale?  It went stale at
                # the first modification after the Last-Modified it holds.
                became_stale = schedule.next_change_after(entry.last_modified)
                if became_stale is not None:
                    self.counters.stale_age_sum += t - became_stale
                    obs_metrics.observe(
                        "sim.stale_age_seconds", t - became_stale
                    )
            core.hit(object_id, t, stale)
        else:
            self.counters.server_ims_queries += 1
            reply = self.server.if_modified_since(
                object_id, t, entry.last_modified
            )
            if isinstance(reply, FetchResult):
                obs_metrics.observe("sim.transfer_bytes", float(reply.size))
            core.validated(entry, t, reply)

    def finish(self, end_time: Optional[float] = None) -> SimulationResult:
        """Flush trailing invalidations and return the run's result.

        Args:
            end_time: when provided, invalidation callbacks for
                modifications up to this time are still delivered (and
                charged) even though no further requests arrive — the
                server keeps notifying caches whether or not clients are
                interested.
        """
        if end_time is not None:
            if end_time < self._now:
                raise ValueError(
                    f"end_time {end_time!r} precedes last request {self._now!r}"
                )
            self._now = end_time
            if self._delivers:
                self._deliver_until(end_time)
        result = SimulationResult(
            protocol_name=self.protocol.name,
            mode=self.mode.value,
            counters=self.counters,
            bandwidth=self.bandwidth,
            duration=self._now - self.start_time,
        )
        result.counters.check_invariants()
        return result

    def run(
        self,
        requests: Iterable[tuple[float, str]],
        end_time: Optional[float] = None,
    ) -> SimulationResult:
        """Drive the full request stream and return the result."""
        step = self.step
        for t, object_id in requests:
            step(t, object_id)
        return self.finish(end_time)


def simulate(
    server: OriginServer,
    protocol: ConsistencyProtocol,
    requests: Iterable[tuple[float, str]],
    mode: SimulatorMode = SimulatorMode.OPTIMIZED,
    *,
    costs: MessageCosts = DEFAULT_COSTS,
    cache: Optional[Cache] = None,
    preload: bool = True,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
    charge_per_modification: bool = True,
    faults: Optional[FaultPlan] = None,
) -> SimulationResult:
    """Run one complete simulation and return its result.

    This is the one-call entry point used by the experiments:

    >>> from repro.core.protocols import AlexProtocol
    >>> from repro.core.objects import ObjectHistory, WebObject
    >>> from repro.core.server import FetchResult, OriginServer
    >>> server = OriginServer(
    ...     [ObjectHistory(WebObject("/a", size=1000, created=-100.0))])
    >>> result = simulate(
    ...     server, AlexProtocol.from_percent(10), [(1.0, "/a"), (2.0, "/a")])
    >>> result.counters.requests
    2
    """
    sim = Simulation(
        server,
        protocol,
        mode,
        costs=costs,
        cache=cache,
        preload=preload,
        start_time=start_time,
        charge_per_modification=charge_per_modification,
        faults=faults,
    )
    return sim.run(requests, end_time=end_time)

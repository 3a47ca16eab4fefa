"""The batched simulation kernel: one flat loop over compiled arrays.

This module is the fast path's inner loop.  It replays exactly the
reference :class:`repro.core.simulator.Simulation` semantics — the same
branch structure, the same arithmetic *expressions* in the same
evaluation order (so float results are bit-identical), the same charge
and counter increments, and the same observer event stream — but over
the parallel arrays of :mod:`repro.fastpath.arrays` instead of the
object graph, with every hot name bound to a local.

Freshness decisions are batch predicates over the state arrays,
dispatched on a compiled integer protocol kind instead of a virtual
``is_fresh`` call; each formula below is a transliteration of the
corresponding ``repro.core.protocols`` method (lint rule RPR008 diffs
them structurally).  Every not-fresh request — cold miss, base-mode
refetch, 304, 200 — charges its own ledger cells and then falls through
one store tail that re-stamps the entry, so a protocol has one
freshness branch, one stamp site and one refresh-window site
(docs/FASTPATH.md, checklist step 2).

The invalidation feed is pre-merged: a single cursor over the compiled
``(feed_times, feed_obj)`` arrays advances whenever the next request
time passes the next feed time, replacing the per-request feed peeks of
the reference loop.

Anything this kernel does not model (fault plans, adaptive protocols,
eager prefetch pushes, bounded caches) is refused upstream by
:func:`repro.fastpath.dispatch.unsupported_reason` and routed to the
reference engine — the kernel never approximates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Optional

from repro.core.costs import MessageCosts
from repro.core.metrics import (
    FULL_RETRIEVAL,
    INVALIDATION,
    VALIDATION_200,
    VALIDATION_304,
    BandwidthLedger,
    ConsistencyCounters,
)
from repro.core.results import SimulationResult
from repro.core.simulator import EventObserver
from repro.fastpath.arrays import CacheState, CompiledServer
from repro.obs.names import DEFAULT_BINS, HISTOGRAM_BINS
from repro.obs.registry import MetricsRegistry, _accumulate

#: Compiled protocol kinds (see ``dispatch.compile_protocol``).
KIND_TTL = 0
KIND_EXPIRES = 1
KIND_ALEX = 2
KIND_POLL = 3
KIND_INVALIDATION = 4
KIND_LEASED = 5
KIND_CERN = 6

_INFINITY = float("inf")


def _bins(name: str) -> tuple[float, ...]:
    return HISTOGRAM_BINS.get(name, DEFAULT_BINS)


class MetricsBatch:
    """Per-run metric deltas, accumulated flat and flushed once.

    The reference loop publishes ``cache.*`` / ``server.*`` / ``sim.*``
    metrics from inside the hot path; the kernel instead tallies the
    same increments and observations into plain locals during the fused
    loop and lands them here.  :meth:`flush` applies the whole run as a
    single :meth:`~repro.obs.registry.MetricsRegistry.merge` payload —
    counters as whole-run totals (n unit increments sum to exactly
    ``float(n)``), histograms as ``(bounds, bucket counts, Shewchuk
    partials, count)``, the exact shape
    :meth:`~repro.obs.registry.MetricsRegistry.delta` produces — so the
    merged registry is byte-identical to one the reference engine filled
    observation by observation (the docs/FASTPATH.md equivalence rule,
    enforced by ``contract.diff_metrics``).

    Zero counters and empty histograms are never recorded: lazily
    created metric keys must match the reference's dump exactly.
    """

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Any] = {}

    def count(self, name: str, n: int) -> None:
        """Record a whole-run counter total (skipped when zero)."""
        if n:
            self.counters[name] = float(n)

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...],
        bucket_counts: list[int],
        partials: list[float],
        count: int,
    ) -> None:
        """Record a whole-run histogram delta (skipped when empty)."""
        if count:
            self.histograms[name] = (list(bounds), bucket_counts,
                                     partials, count)

    def flush(self, registry: MetricsRegistry) -> None:
        """Apply the batched deltas through the exact merge path."""
        registry.merge(
            {
                "counters": self.counters,
                "gauges": {},
                "histograms": self.histograms,
            }
        )


def run_kernel(
    compiled: CompiledServer,
    state: CacheState,
    req_times: list[float],
    req_objs: list[int],
    *,
    kind: int,
    p0: float = 0.0,
    p1: float = 0.0,
    p2: float = 0.0,
    has_p2: bool = False,
    base_mode: bool,
    costs: MessageCosts,
    charge_per_modification: bool,
    preload: bool,
    start_time: float,
    end_time: Optional[float],
    protocol_name: str,
    mode_value: str,
    observer: Optional[EventObserver] = None,
    batch: Optional[MetricsBatch] = None,
) -> SimulationResult:
    """Drive the full request stream through the array interpreter.

    Parameter meanings per kind: TTL/Expires — ``p0`` is the (default)
    TTL; Alex — ``p0`` is the threshold fraction; leased — ``p0`` is the
    lease; CERN — ``p0``/``p1``/``p2`` are lm_fraction / default_ttl /
    max_ttl (``has_p2`` = a max_ttl clamp is configured).

    When ``batch`` is given, the loop additionally tallies every metric
    the reference engine would have published (``cache.stores``,
    ``server.gets``, ``sim.transfer_bytes``, the ``sim.event.*`` family,
    ...) into flat locals, landing the totals in the batch for a single
    post-run flush.

    Raises:
        ValueError: when ``end_time`` precedes the last request (the
            reference's message, byte for byte).
        AssertionError: if the counter invariants fail (same terminal
            check the reference ``finish`` runs).
    """
    br = bisect_right
    ids = compiled.ids
    sizes = compiled.sizes
    cacheable = compiled.cacheable
    obj_created = compiled.created
    expires_after = compiled.expires_after
    has_expires = compiled.has_expires
    mod_times = compiled.mod_times
    mod_lo = compiled.mod_lo
    mod_count = compiled.mod_count

    resident = state.resident
    valid = state.valid
    version = state.version
    validated_at = state.validated_at
    last_modified = state.last_modified
    has_sx = state.has_server_expires
    sx = state.server_expires
    expires_at = state.expires_at

    is_cern = kind == KIND_CERN
    wants_feed = kind == KIND_INVALIDATION or kind == KIND_LEASED

    feed_times: list[float] = compiled.feed_times if wants_feed else []
    feed_obj = compiled.feed_obj
    feed_len = len(feed_times)
    # Modifications that predate the run are skipped: preloaded entries
    # already reflect them (the reference's start-time fast-forward).
    feed_idx = br(feed_times, start_time, 0, feed_len)
    next_feed = feed_times[feed_idx] if feed_idx < feed_len else _INFINITY

    control_message, _ = costs.invalidation_notice()
    full_control, _ = costs.full_retrieval(0)
    per_modification = charge_per_modification
    notify = observer

    requests = 0
    hits = 0
    misses = 0
    stale_hits = 0
    stale_age_sum = 0.0
    validations = 0
    validations_not_modified = 0
    full_retrievals = 0
    invalidations_received = 0
    server_gets = 0
    server_ims_queries = 0
    server_invalidations_sent = 0

    ctl_full = 0
    body_full = 0
    ex_full = 0
    ctl_304 = 0
    ex_304 = 0
    ctl_200 = 0
    body_200 = 0
    ex_200 = 0
    ctl_inv = 0
    ex_inv = 0

    # -- batched metric accumulation (leg of docs/FASTPATH.md's
    # metrics-equivalence rule): tally what the reference engine would
    # have published, flush once post-run via MetricsBatch.merge.
    collect = batch is not None
    bl = bisect_left
    acc = _accumulate
    n_dynamic = 0
    n_store_miss = 0
    n_went_invalid = 0
    n_preloaded = resident.count(True) if collect else 0
    tb_bounds = _bins("sim.transfer_bytes")
    tb_counts = [0] * (len(tb_bounds) + 1)
    tb_partials: list[float] = []
    tb_n = 0
    sa_bounds = _bins("sim.stale_age_seconds")
    sa_counts = [0] * (len(sa_bounds) + 1)
    sa_partials: list[float] = []
    sa_n = 0
    rw_bounds = _bins("protocol.refresh_window_seconds")
    rw_counts = [0] * (len(rw_bounds) + 1)
    rw_partials: list[float] = []
    rw_n = 0
    # Only TTL/Expires/Alex observe a refresh window in on_stored.
    rw_kind = collect and (
        kind == KIND_TTL or kind == KIND_EXPIRES or kind == KIND_ALEX
    )
    if preload and (is_cern or rw_kind):
        # Preload calls protocol.on_stored(entry, start_time) for every
        # entry: CERN stamps the store-time expiry (_derive_expiry with
        # now = start_time), TTL/Expires/Alex observe a refresh window.
        st = float(start_time)
        for i in range(len(ids)):
            if not resident[i]:
                continue
            # repro-fastpath: cern-stamp
            if is_cern:
                if has_sx[i]:
                    expires_at[i] = sx[i]
                else:
                    age = start_time - last_modified[i]
                    ttl = p0 * age if age > 0 else p1
                    if has_p2:
                        ttl = min(ttl, p2)
                    expires_at[i] = start_time + ttl
            if rw_kind:
                if kind == KIND_TTL:
                    rw_val = p0
                elif kind == KIND_EXPIRES:
                    rw_val = sx[i] - st if has_sx[i] else (st + p0) - st
                else:
                    rw_val = p0 * max(st - last_modified[i], 0.0)
                rw_counts[bl(rw_bounds, rw_val)] += 1
                acc(rw_partials, rw_val)
                rw_n += 1

    now = float(start_time)
    for t, i in zip(req_times, req_objs):
        now = t
        # -- deliver pending invalidation callbacks -----------------------
        while next_feed <= t:
            mi = feed_obj[feed_idx]
            mod_time = next_feed
            feed_idx += 1
            next_feed = (
                feed_times[feed_idx] if feed_idx < feed_len else _INFINITY
            )
            if not resident[mi]:
                continue
            if valid[mi]:
                valid[mi] = False
                went_invalid = True
                n_went_invalid += 1
            else:
                went_invalid = False
            if went_invalid or per_modification:
                invalidations_received += 1
                server_invalidations_sent += 1
                ctl_inv += control_message
                ex_inv += 1
                if notify is not None:
                    notify("invalidation", mod_time, ids[mi])
        requests += 1

        if not cacheable[i]:
            # Dynamic content: full fetch on every request, never stored.
            ctl_full += full_control
            body_full += sizes[i]
            ex_full += 1
            full_retrievals += 1
            server_gets += 1
            misses += 1
            n_dynamic += 1
            if collect:
                tb_val = float(sizes[i])
                tb_counts[bl(tb_bounds, tb_val)] += 1
                acc(tb_partials, tb_val)
                tb_n += 1
            if notify is not None:
                notify("dynamic_fetch", t, ids[i])
            continue

        if resident[i]:
            # -- freshness: the compiled protocol predicate ---------------
            # repro-fastpath-begin: freshness
            # RPR008 structurally diffs each branch below against the
            # corresponding protocol's is_fresh (docs/FASTPATH.md contract).
            if kind == KIND_TTL:
                fresh = (t - validated_at[i]) < p0
            elif kind == KIND_ALEX:
                age = validated_at[i] - last_modified[i]
                if age <= 0.0:
                    fresh = False
                else:
                    fresh = (t - validated_at[i]) < p0 * age
            elif kind == KIND_EXPIRES:
                if has_sx[i]:
                    fresh = t < sx[i]
                else:
                    fresh = (t - validated_at[i]) < p0
            elif kind == KIND_INVALIDATION:
                fresh = valid[i]
            elif kind == KIND_LEASED:
                fresh = valid[i] and t - validated_at[i] < p0
            elif kind == KIND_CERN:
                fresh = t < expires_at[i]
            else:  # KIND_POLL
                fresh = False
            # repro-fastpath-end: freshness

            if fresh:
                hits += 1
                v = version[i]
                nm = mod_count[i]
                # version_at(t) <= mod_count, so an entry at the final
                # version can never test stale: skip the bisect entirely.
                if v < nm:
                    lo = mod_lo[i]
                    hi = lo + nm
                    if v < br(mod_times, t, lo, hi) - lo:
                        stale_hits += 1
                        # became_stale = next_change_after(last_modified):
                        # the entry's Last-Modified is exactly mod_times
                        # [lo + v - 1] (or created), so the first strictly
                        # later change is mod_times[lo + v] — in range
                        # because v < version_at(t) <= nm.
                        age_stale = t - mod_times[lo + v]
                        stale_age_sum += age_stale
                        if collect:
                            sa_counts[bl(sa_bounds, age_stale)] += 1
                            acc(sa_partials, age_stale)
                            sa_n += 1
                        if notify is not None:
                            notify("stale_hit", t, ids[i])
                    elif notify is not None:
                        notify("hit", t, ids[i])
                elif notify is not None:
                    notify("hit", t, ids[i])
                continue
            # Base simulator: unconditional refetch, even when unchanged.
            refetch = base_mode
        else:
            refetch = True  # cold miss

        # -- not fresh: one server exchange, then the one store tail ------
        lo = mod_lo[i]
        vt = br(mod_times, t, lo, lo + mod_count[i]) - lo
        lm = obj_created[i] if vt == 0 else mod_times[lo + vt - 1]

        if refetch:
            ctl_full += full_control
            body_full += sizes[i]
            ex_full += 1
            full_retrievals += 1
            server_gets += 1
            misses += 1
            n_store_miss += 1
            body_moved = True
            event = "miss"
        else:
            # Optimized simulator: conditional retrieval.
            validations += 1
            server_ims_queries += 1
            if lm <= last_modified[i]:
                # 304 Not Modified: revalidate in place; the stamp and the
                # refresh window below see the entry's own Last-Modified.
                ctl_304 += full_control
                ex_304 += 1
                validations_not_modified += 1
                hits += 1
                lm = last_modified[i]
                body_moved = False
                event = "validation_304"
            else:
                # 200: body moves; store the new version.
                ctl_200 += full_control
                body_200 += sizes[i]
                ex_200 += 1
                misses += 1
                body_moved = True
                event = "validation_200"

        if body_moved:
            version[i] = vt
            last_modified[i] = lm
            if collect:
                tb_val = float(sizes[i])
                tb_counts[bl(tb_bounds, tb_val)] += 1
                acc(tb_partials, tb_val)
                tb_n += 1
        resident[i] = True
        valid[i] = True
        validated_at[i] = t
        if has_expires[i]:
            has_sx[i] = True
            sx[i] = t + expires_after[i]
        else:
            has_sx[i] = False
        # repro-fastpath: cern-stamp
        if is_cern:
            if has_sx[i]:
                expires_at[i] = sx[i]
            else:
                age = t - lm
                ttl = p0 * age if age > 0 else p1
                if has_p2:
                    ttl = min(ttl, p2)
                expires_at[i] = t + ttl
        if rw_kind:
            # on_stored runs on every store and on a 304 alike.
            if kind == KIND_TTL:
                rw_val = p0
            elif kind == KIND_EXPIRES:
                rw_val = sx[i] - t if has_sx[i] else (t + p0) - t
            else:
                rw_val = p0 * max(t - lm, 0.0)
            rw_counts[bl(rw_bounds, rw_val)] += 1
            acc(rw_partials, rw_val)
            rw_n += 1
        if notify is not None:
            notify(event, t, ids[i])

    # -- finish: trailing feed, duration, invariants ----------------------
    if end_time is not None:
        if end_time < now:
            raise ValueError(
                f"end_time {end_time!r} precedes last request {now!r}"
            )
        now = end_time
        while next_feed <= end_time:
            mi = feed_obj[feed_idx]
            mod_time = next_feed
            feed_idx += 1
            next_feed = (
                feed_times[feed_idx] if feed_idx < feed_len else _INFINITY
            )
            if not resident[mi]:
                continue
            if valid[mi]:
                valid[mi] = False
                went_invalid = True
                n_went_invalid += 1
            else:
                went_invalid = False
            if went_invalid or per_modification:
                invalidations_received += 1
                server_invalidations_sent += 1
                ctl_inv += control_message
                ex_inv += 1
                if notify is not None:
                    notify("invalidation", mod_time, ids[mi])

    if batch is not None:
        # Whole-run totals, mirroring every reference-loop publication
        # (preload included); zero counts are skipped so the registry's
        # lazily-created keys match the reference dump exactly.
        batch.count("cache.stores", n_preloaded + n_store_miss + ex_200)
        batch.count("cache.invalidated", n_went_invalid)
        batch.count("server.gets", n_preloaded + full_retrievals + ex_200)
        batch.count("server.ims_queries", server_ims_queries)
        batch.count(
            "sim.event.hit", (hits - validations_not_modified) - stale_hits
        )
        batch.count("sim.event.stale_hit", stale_hits)
        batch.count("sim.event.miss", n_store_miss)
        batch.count("sim.event.validation_304", validations_not_modified)
        batch.count("sim.event.validation_200", ex_200)
        batch.count("sim.event.invalidation", invalidations_received)
        batch.count("sim.event.dynamic_fetch", n_dynamic)
        batch.histogram(
            "sim.transfer_bytes", tb_bounds, tb_counts, tb_partials, tb_n
        )
        batch.histogram(
            "sim.stale_age_seconds", sa_bounds, sa_counts, sa_partials, sa_n
        )
        batch.histogram(
            "protocol.refresh_window_seconds",
            rw_bounds,
            rw_counts,
            rw_partials,
            rw_n,
        )

    counters = ConsistencyCounters(
        requests=requests,
        hits=hits,
        misses=misses,
        stale_hits=stale_hits,
        stale_age_sum=stale_age_sum,
        validations=validations,
        validations_not_modified=validations_not_modified,
        full_retrievals=full_retrievals,
        invalidations_received=invalidations_received,
        prefetches=0,
        server_gets=server_gets,
        server_ims_queries=server_ims_queries,
        server_invalidations_sent=server_invalidations_sent,
    )
    bandwidth = BandwidthLedger()
    bandwidth.control_bytes[FULL_RETRIEVAL] = ctl_full
    bandwidth.body_bytes[FULL_RETRIEVAL] = body_full
    bandwidth.exchanges[FULL_RETRIEVAL] = ex_full
    bandwidth.control_bytes[VALIDATION_304] = ctl_304
    bandwidth.exchanges[VALIDATION_304] = ex_304
    bandwidth.control_bytes[VALIDATION_200] = ctl_200
    bandwidth.body_bytes[VALIDATION_200] = body_200
    bandwidth.exchanges[VALIDATION_200] = ex_200
    bandwidth.control_bytes[INVALIDATION] = ctl_inv
    bandwidth.exchanges[INVALIDATION] = ex_inv
    result = SimulationResult(
        protocol_name=protocol_name,
        mode=mode_value,
        counters=counters,
        bandwidth=bandwidth,
        duration=now - float(start_time),
    )
    result.counters.check_invariants()
    return result

"""The batched simulation kernel: one flat loop over compiled arrays.

This module is the fast path's inner loop.  It replays exactly the
reference :class:`repro.core.simulator.Simulation` semantics — the same
branch structure, the same arithmetic *expressions* in the same
evaluation order (so float results are bit-identical), the same charge
and counter increments, and the same observer event stream — but over
the parallel arrays of :mod:`repro.fastpath.arrays` instead of the
object graph, with every hot name bound to a local.

The freshness rule is not written here.  :func:`run_kernel`'s body is a
template with *holes* — calls to the :func:`is_fresh` and
:func:`on_stored` stubs below — and :mod:`repro.fastpath.specialise`
fills them, once per protocol class, with that class's own ``is_fresh``
/ ``on_stored`` lowered onto the state arrays: the arithmetic a
specialised kernel evaluates is the protocol's own expression tree.
Every not-fresh request — cold miss, base-mode refetch, 304, 200 —
charges its own ledger cells and then falls through one store tail that
re-stamps the entry, so ``on_stored`` has one hole per place an entry is
stored: the preload prologue, the store tail and the eager push.
Calling ``run_kernel(..., kind=k)`` runs ``k``, the specialised kernel
``dispatch.compile_protocol`` returned.

Delivery is pre-merged: one *action cursor* advances whenever the next
request time passes the next action time, replacing the per-request
feed peeks of the reference loop.  The cursor walks either a fault
plan's compiled schedule (:class:`repro.faults.plan.ActionColumns`,
keyed by object index) or the fault-free ``(feed_times, feed_obj)``
arrays, whose every line is a notice sent *and* delivered at its
modification time.  Crashes, lost and dropped attempts, guarded
deliveries and the eager push are interpreted in that one loop; the
trailing ``end_time`` flush is not a second copy of it but the last
line of the request stream — a request for no object that stops once
everything due has been delivered.

Anything this kernel does not model (a protocol method outside the
specialiser's closed subset, bounded caches) is refused upstream by
:func:`repro.fastpath.dispatch.unsupported_reason` and routed to the
reference engine — the kernel never approximates.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Optional, Sequence, TypeVar, cast

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
from repro.core.results import SimulationResult
from repro.core.simulator import EventObserver
from repro.fastpath.arrays import NO_OBJECT, CacheState, CompiledServer
from repro.faults.plan import (
    ATTEMPT_LOST,
    CRASH,
    DELIVER,
    DROP,
    ActionColumns,
)
from repro.obs.names import DEFAULT_BINS, HISTOGRAM_BINS
from repro.obs.registry import MetricsRegistry, _accumulate

#: A kernel specialised for one protocol class: :func:`run_kernel` with
#: its holes filled, called with ``run_kernel``'s own arguments.
Kernel = Callable[..., SimulationResult]
_K = TypeVar("_K", bound=Kernel)

#: The one histogram a lowered ``on_stored`` may observe; the template
#: tallies it in its ``rw_*`` locals.
REFRESH_WINDOW = "protocol.refresh_window_seconds"

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


def _runs_kind(template: _K) -> _K:
    """Make ``run_kernel(..., kind=k, ...)`` run ``k`` — this template,
    specialised for one protocol class — on the same arguments."""

    @functools.wraps(template)
    def run_kernel(*args: Any, kind: Kernel, **options: Any) -> SimulationResult:
        return kind(*args, kind=kind, **options)

    return cast(_K, run_kernel)


def is_fresh(i: int, now: float) -> bool:
    """Hole: the protocol's ``is_fresh`` for entry ``i`` at ``now``."""
    raise NotImplementedError("a hole of run_kernel, never called")


def on_stored(i: int, now: float) -> None:
    """Hole: the protocol's ``on_stored`` for entry ``i`` at ``now``."""
    raise NotImplementedError("a hole of run_kernel, never called")


#: Constant holes, bound per specialised kernel to facts about its
#: protocol class: the ``wants_invalidations`` declaration, whether
#: ``is_fresh`` reads what ``on_stored`` stamps, whether ``on_stored``
#: observes a metric.
wants_invalidations = stamps = observes = False


@_runs_kind
def run_kernel(
    compiled: CompiledServer,
    state: CacheState,
    req_times: list[float],
    req_objs: list[int],
    *,
    kind: Kernel,
    p0: Optional[float] = 0.0,
    p1: Optional[float] = 0.0,
    p2: Optional[float] = 0.0,
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
    schedule: Optional[ActionColumns[int]] = None,
    eager: bool = False,
) -> SimulationResult:
    """Drive the full request stream through the array interpreter.

    This body is a template, ordinary Python but never run as it stands:
    the calls to :func:`is_fresh` / :func:`on_stored` are holes that
    :mod:`repro.fastpath.specialise` replaces, once per protocol class,
    by that class's own methods lowered onto the state arrays (first
    argument the entry's index, second the method's ``now``; each hole
    is one line).  Lowered code reads the state arrays by their
    :class:`~repro.fastpath.arrays.CacheState` names, tallies an observed
    refresh window in the ``rw_*`` locals, and keeps its own locals in
    names of the form ``_x_N``.

    ``kind`` and ``p0`` / ``p1`` / ``p2`` are what
    :func:`repro.fastpath.dispatch.compile_protocol` returned: the
    kernel specialised for the protocol's class — which is what a call
    runs — and the values of the instance attributes its methods read
    (None travels as None; ``has_p2`` belongs to the call shape
    ``bench/`` pins and carries nothing).  ``eager`` selects the
    invalidation family's pre-optimization push.

    ``schedule`` is a fault plan's compiled action schedule, keyed by
    object index and resolved against this ``start_time``
    (:func:`repro.fastpath.arrays.compile_schedule`); when None,
    delivery runs off the server's own feed.

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
    has_server_expires = state.has_server_expires
    server_expires = state.server_expires
    expires_at = state.expires_at

    # -- the run's extent ---------------------------------------------------
    # The stream is time-ordered (encode_requests), so the last request
    # is the latest; nothing scheduled after the horizon is delivered.
    st = float(start_time)
    last = req_times[-1] if req_times else st
    if end_time is None:
        horizon = last
    elif end_time < last:
        raise ValueError(
            f"end_time {end_time!r} precedes last request {last!r}"
        )
    else:
        horizon = end_time

    # -- the action cursor --------------------------------------------------
    faulty = schedule is not None
    act_kinds: Sequence[str] = ()
    act_mods: Sequence[float] = ()
    act_attempts: Sequence[int] = ()
    act_times: Sequence[float] = ()
    act_keys: Sequence[int] = ()
    slot = 0
    if schedule is not None:
        # Compiled against ``start_time`` already.
        act_times, act_keys = schedule.times, schedule.keys
        act_kinds, act_mods = schedule.kinds, schedule.mod_times
        act_attempts = schedule.attempts
    elif wants_invalidations:
        act_times, act_keys = compiled.feed_times, compiled.feed_obj
        # Modifications that predate the run are skipped: preloaded
        # entries already reflect them (the reference's start-time
        # fast-forward).
        slot = br(act_times, start_time)
    act_count = br(act_times, horizon)
    pending = act_times[slot] if slot < act_count else _INFINITY

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
    prefetches = 0
    server_gets = 0
    server_ims_queries = 0

    ctl_full = 0
    body_full = 0
    ex_full = 0
    ctl_304 = 0
    ex_304 = 0
    ctl_200 = 0
    body_200 = 0
    ex_200 = 0
    ex_inv = 0
    body_pre = 0

    # -- batched metric accumulation (leg of docs/FASTPATH.md's
    # metrics-equivalence rule): tally what the reference engine would
    # have published, flush once post-run via MetricsBatch.merge.
    collect = batch is not None
    bl = bisect_left
    acc = _accumulate
    n_dynamic = 0
    n_store_miss = 0
    n_went_invalid = 0
    n_lost = 0
    n_dropped = 0
    n_recovered = 0
    n_crashes = 0
    n_crash_drops = 0
    n_preloaded = resident.count(True) if collect else 0
    tb_bounds = _bins("sim.transfer_bytes")
    tb_counts = [0] * (len(tb_bounds) + 1)
    tb_partials: list[float] = []
    tb_n = 0
    sa_bounds = _bins("sim.stale_age_seconds")
    sa_counts = [0] * (len(sa_bounds) + 1)
    sa_partials: list[float] = []
    sa_n = 0
    rw_bounds = _bins(REFRESH_WINDOW)
    rw_counts = [0] * (len(rw_bounds) + 1)
    rw_partials: list[float] = []
    rw_n = 0
    # on_stored runs only where the run can observe it: through the stamp
    # is_fresh reads, or through the metric it publishes.
    restamp = stamps or (collect and observes)
    if preload and restamp:
        # Preload calls protocol.on_stored(entry, start_time) for every
        # entry it loads.
        for i in range(len(ids)):
            if resident[i]:
                on_stored(i, st)

    # The trailing flush is the last line of the stream: a request for
    # no object at the end of time, which stops once everything due
    # (``act_count`` stops at the horizon) has been delivered.
    for t, i in zip(req_times + [_INFINITY], req_objs + [NO_OBJECT]):
        if pending <= t:
            # -- deliver every action that is due -------------------------
            # RequestStep.fault / .deliver, kind for kind.
            while slot < act_count:
                at = act_times[slot]
                if at > t:
                    break
                row = slot
                slot += 1
                mi = act_keys[row]
                if faulty:
                    act = act_kinds[row]
                    if act == CRASH:
                        wiped = resident.count(True)
                        if wiped:
                            resident[:] = [False] * len(resident)
                            n_crash_drops += wiped
                        n_crashes += 1
                        if notify is not None:
                            notify("fault_cache_crash", at, "")
                        continue
                    if not resident[mi]:
                        continue
                    if act == DROP:
                        # Abandoned while the cache still believes the
                        # copy valid: unbounded staleness begins here.
                        if valid[mi]:
                            n_dropped += 1
                            if notify is not None:
                                notify("fault_invalidation_dropped", at,
                                       ids[mi])
                        continue
                    if act != DELIVER:
                        # ATTEMPT_SENT / ATTEMPT_LOST: a notice leaves
                        # the server, charged like a feed line's; a lost
                        # one costs the same bytes and never arrives.
                        if valid[mi] or per_modification:
                            ex_inv += 1
                            if act == ATTEMPT_LOST:
                                n_lost += 1
                                if notify is not None:
                                    notify("fault_invalidation_lost", at,
                                           ids[mi])
                        continue
                    # DELIVER, behind the generation guard: a refetch
                    # since the modification already reflects it
                    # (Cache.invalidate's ``modified_at``).
                    flips = valid[mi] and last_modified[mi] < act_mods[row]
                    retried = act_attempts[row] > 0
                elif not resident[mi]:
                    continue
                else:
                    # A feed line: sent — charged while the server
                    # believes the copy valid, or on every modification
                    # (§4.1) — and delivered, both now.
                    flips = valid[mi]
                    if flips or per_modification:
                        ex_inv += 1
                    retried = False
                # -- the notice arrives -----------------------------------
                if flips:
                    valid[mi] = False
                    n_went_invalid += 1
                if flips or per_modification:
                    invalidations_received += 1
                    if retried:
                        n_recovered += 1
                        if notify is not None:
                            notify("fault_invalidation_recovered", at,
                                   ids[mi])
                    if notify is not None:
                        notify("invalidation", at, ids[mi])
                if eager:
                    # Pre-optimization invalidation: the new copy rides
                    # with the notice — a GET at the action time, stored
                    # the way the store tail below stores.  Not a miss:
                    # no request is waiting.
                    lo = mod_lo[mi]
                    vt = br(mod_times, at, lo, lo + mod_count[mi]) - lo
                    version[mi] = vt
                    last_modified[mi] = (
                        obj_created[mi] if vt == 0 else mod_times[lo + vt - 1]
                    )
                    valid[mi] = True
                    validated_at[mi] = at
                    if has_expires[mi]:
                        has_server_expires[mi] = True
                        server_expires[mi] = at + expires_after[mi]
                    else:
                        has_server_expires[mi] = False
                    if restamp:
                        on_stored(mi, at)
                    prefetches += 1
                    body_pre += sizes[mi]
                    if notify is not None:
                        notify("prefetch", at, ids[mi])
            pending = act_times[slot] if slot < act_count else _INFINITY
            if i == NO_OBJECT:
                break
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
            fresh = is_fresh(i, t)
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
                # 304 Not Modified: revalidate in place; on_stored below
                # sees the entry's own Last-Modified.
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
            has_server_expires[i] = True
            server_expires[i] = t + expires_after[i]
        else:
            has_server_expires[i] = False
        # on_stored runs on every store and on a 304 alike.
        if restamp:
            on_stored(i, t)
        if notify is not None:
            notify(event, t, ids[i])

    if batch is not None:
        # Whole-run totals, mirroring every reference-loop publication
        # (preload included); zero counts are skipped so the registry's
        # lazily-created keys match the reference dump exactly.
        batch.count(
            "cache.stores", n_preloaded + n_store_miss + ex_200 + prefetches
        )
        batch.count("cache.invalidated", n_went_invalid)
        batch.count("cache.crash_drops", n_crash_drops)
        batch.count(
            "server.gets", n_preloaded + full_retrievals + ex_200 + prefetches
        )
        batch.count("server.ims_queries", server_ims_queries)
        batch.count(
            "sim.event.hit", (hits - validations_not_modified) - stale_hits
        )
        batch.count("sim.event.stale_hit", stale_hits)
        batch.count("sim.event.miss", n_store_miss)
        batch.count("sim.event.validation_304", validations_not_modified)
        batch.count("sim.event.validation_200", ex_200)
        batch.count("sim.event.invalidation", invalidations_received)
        batch.count("sim.event.prefetch", prefetches)
        batch.count("sim.event.dynamic_fetch", n_dynamic)
        batch.count("sim.event.fault_invalidation_lost", n_lost)
        batch.count("sim.event.fault_invalidation_dropped", n_dropped)
        batch.count("sim.event.fault_invalidation_recovered", n_recovered)
        batch.count("sim.event.fault_cache_crash", n_crashes)
        batch.histogram(
            "sim.transfer_bytes", tb_bounds, tb_counts, tb_partials, tb_n
        )
        batch.histogram(
            "sim.stale_age_seconds", sa_bounds, sa_counts, sa_partials, sa_n
        )
        batch.histogram(
            REFRESH_WINDOW,
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
        prefetches=prefetches,
        server_gets=server_gets + prefetches,
        server_ims_queries=server_ims_queries,
        server_invalidations_sent=ex_inv,
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
    bandwidth.control_bytes[INVALIDATION] = ex_inv * control_message
    bandwidth.exchanges[INVALIDATION] = ex_inv
    bandwidth.control_bytes[PREFETCH] = prefetches * full_control
    bandwidth.body_bytes[PREFETCH] = body_pre
    bandwidth.exchanges[PREFETCH] = prefetches
    result = SimulationResult(
        protocol_name=protocol_name,
        mode=mode_value,
        counters=counters,
        bandwidth=bandwidth,
        duration=horizon - st,
    )
    result.counters.check_invariants()
    return result

"""The batched simulation kernel: one flat loop over compiled arrays.

This module is the fast path's inner loop.  It replays exactly the
reference :class:`repro.core.simulator.Simulation` semantics — the same
branch structure, the same arithmetic *expressions* in the same
evaluation order (so float results are bit-identical), the same
charges and counters, and the same observer event stream — but over
the parallel arrays of :mod:`repro.fastpath.arrays` instead of the
object graph, with every hot name bound to a local.

The freshness rule is not written here.  :func:`run_kernel`'s body is a
template with *holes* — calls to the :func:`is_fresh`,
:func:`on_stored` and :func:`on_validation_result` stubs below — and
:mod:`repro.fastpath.specialise` fills them, once per protocol class,
with that class's own methods lowered onto the state arrays: the
arithmetic a specialised kernel evaluates is the protocol's own
expression tree, a ``dict`` attribute keyed by file type included (a
per-run table, bound by the :func:`bind` hole).  Every not-fresh
request — cold miss, base-mode refetch, 304, 200 — counts itself in
its own tally and then falls through one store tail that re-stamps the
entry, so ``on_stored`` has one hole per place an entry is stored: the
preload prologue, the store tail and the eager push; the tail's 304 /
200 then reach ``on_validation_result``.  Calling ``run_kernel(...,
kind=k)`` runs ``k``'s variant for this call, ``k`` being the
specialised kernel ``dispatch.compile_protocol`` returned.

The constant holes (``stamps``, ``tunes``, ``caches``, ...) are written
into each kernel as literals, so what a ``False`` one guards is not
compiled at all: a caller-supplied ``Cache`` — its replacement order,
capacity, evictions and crashes, written back into it after the run —
costs nothing in a kernel that keeps none.  Four of them are facts of
the run, not of the class: whether an observer is attached, whether
anything is delivered, whether the run skips its hit runs and whether
it steps its objects in lockstep.  The call decides them, from its own
``observer``, ``schedule`` and stream and the active metrics registry:
an unobserved run that delivers nothing runs a variant with no event
calls and no action cursor.

The loop keeps one tally per independent quantity — fresh and stale
hits, stored misses, dynamic fetches, 304s, 200s, prefetches, notices
sent and received, the bytes of each body that moves — and the 13
counters and 15 ledger cells are built from them once, after it.  Under
an active metrics registry the run then publishes what the reference
engine publishes as it goes: whole-run counters, and the samples of its
three histograms, kept in request order.

Such a run that also keeps no cache, tunes nothing, publishes no metrics,
reads a stream whose origin changes rarely and has a class whose
``is_fresh`` is proved monotone in ``now`` *skips*: it takes the stream
by object (:func:`repro.fastpath.arrays.stream_view`), counts every
preloaded copy's run of fresh hits at once and jumps over each later
one, found by bisecting for the :func:`fresh_until` candidate.  Such a
run over a stream whose origin changes often, with its requests spread
evenly enough over its objects, of a class whose methods vectorise,
*steps*: it takes the stream by step
(:func:`repro.fastpath.arrays.step_view`), one request of every object
still requested at once, and runs the loop's body on all of them with
numpy — the lowered methods if-converted (the :func:`is_fresh_each` and
:func:`on_stored_each` holes), the store tail as masked writes — its
tallies folded once, after the loop, from what each step wrote by row.  So does
one that delivers: before each step, each lane takes what reached its
object since its previous request — feed lines counted from the
origin's versions, the eager push's included, or a fault schedule's
flips, from each row's guard, its §4.1 charges counted once per stream
and schedule (:func:`repro.fastpath.arrays.lane_actions`) — and one that keeps an
LRU cache with nothing delivered, whose residency is the stream's own
(:func:`repro.fastpath.arrays.lru_residency`).

What the origin holds at a request's time — the object's version and
its Last-Modified — is read by request position from two columns built
once per stream (:func:`repro.fastpath.arrays.stream_columns`): a fresh
hit is stale iff the entry's version is below the column's, and a
not-fresh request is answered from the columns.  The request loop never
searches a modification schedule; only a walking eager push, which
happens at an action time, does.

A walking run pre-merges delivery: one *action cursor* advances
whenever the next request time passes the next action time.  It walks a
fault plan's compiled schedule (:class:`repro.faults.plan.ActionColumns`,
keyed by object index) or the fault-free ``(feed_times, feed_obj)``
arrays, whose every line is a notice sent *and* delivered at its
modification time.  Crashes, lost and dropped attempts, guarded
deliveries and the eager push are interpreted in that one loop; the
trailing ``end_time`` flush is the last line of the request stream — a
request for no object that stops once everything due has been
delivered — or, stepping, one more step of every lane.

Anything this kernel does not model (a protocol method outside the
specialiser's closed subset, a pre-seeded cache, an LFU / SIZE / custom
replacement policy) is refused upstream with the reason
:func:`repro.fastpath.dispatch.unsupported_reason` gives — the kernel
never approximates.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any, Callable, Iterator, Optional, Sequence, TypeVar, cast

import numpy as np

from repro.core.cache import Cache
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
from repro.fastpath.arrays import (
    NO_OBJECT,
    CacheState,
    CompiledServer,
    LaneState,
    busiest,
    by_object,
    lane_actions,
    lane_state,
    lru_residency,
    preload_view,
    step_view,
    stream_columns,
    stream_view,
    write_back,
)
from repro.faults.plan import (
    ATTEMPT_LOST,
    CRASH,
    DELIVER,
    DROP,
    ActionColumns,
)
from repro.obs import registry as obs_metrics

#: :func:`run_kernel` with its holes filled, the run facts included,
#: called with ``run_kernel``'s own arguments.
Variant = Callable[..., SimulationResult]
_V = TypeVar("_V", bound=Variant)
#: A kernel specialised for one protocol class and cache variant: called
#: with a run's facts — is it observed, does it have a fault schedule,
#: may it skip its hit runs, may it step its objects in lockstep — it
#: returns the variant compiled for them.
Kernel = Callable[[bool, bool, bool, bool], Variant]

#: The one histogram a lowered ``on_stored`` may observe; the template
#: keeps its samples in ``rw_values``.
REFRESH_WINDOW = "protocol.refresh_window_seconds"

_INFINITY = float("inf")

#: Stepping pays where the stream holds at least this many requests per
#: step, a step being one request of every object still requested: below
#: it numpy's fixed cost per step outweighs the requests it interprets at
#: once (docs/FASTPATH.md, "Stepping objects in lockstep").
STEP_BREAK_EVEN = 200


def _runs_kind(template: _V) -> _V:
    """Make ``run_kernel(..., kind=k, ...)`` run ``k``'s variant for this
    call — this template, specialised for one protocol class and the
    call's own ``observer``, ``schedule`` and stream, and whether a
    metrics registry is active — on the same arguments."""

    @functools.wraps(template)
    def run_kernel(*args: Any, kind: Kernel, **options: Any) -> SimulationResult:
        compiled, _, req_times, req_objs = args[:4]
        # Skipping pays where runs of fresh hits are long.  Where the origin
        # changes once per ten requests or more they are short, and walking
        # every request is as fast as skipping (docs/FASTPATH.md, "Skipping
        # hit runs"); stepping every object at once is faster there when
        # each step covers STEP_BREAK_EVEN requests or more ("Stepping
        # objects in lockstep").
        sparse = 10 * len(compiled.mod_times) <= len(req_times)
        lean = obs_metrics.active() is None
        scheduled = options.get("schedule") is not None
        # The eager push steps on the feed ("The eager push by lane"), and
        # walks under a fault plan.
        variant = kind(options.get("observer") is not None, scheduled,
                       sparse and lean,
                       not sparse and lean and not (scheduled and options.get("eager"))
                       and STEP_BREAK_EVEN * busiest(
                           compiled, req_times, req_objs) <= len(req_times))
        return variant(*args, kind=kind, **options)

    return cast(_V, run_kernel)


def is_fresh(i: int, now: float) -> bool:
    """Hole: the protocol's ``is_fresh`` for entry ``i`` at ``now``."""
    raise NotImplementedError("a hole of run_kernel, never called")


def on_stored(i: int, now: float) -> None:
    """Hole: the protocol's ``on_stored`` for entry ``i`` at ``now``."""
    raise NotImplementedError("a hole of run_kernel, never called")


def on_validation_result(i: int, now: float, was_modified: bool) -> None:
    """Hole: the protocol's ``on_validation_result`` for entry ``i``."""
    raise NotImplementedError("a hole of run_kernel, never called")


def fresh_until(i: int, now: float) -> float:
    """Hole: where entry ``i``, fresh at ``now``, may first stop being
    fresh — ``R`` for ``now < R``, ``E + R`` for ``now - E < R`` — a
    candidate the walk bisects for and then fixes up with ``is_fresh``."""
    raise NotImplementedError("a hole of run_kernel, never called")


def is_fresh_each(state: LaneState, lanes: slice, now: Any) -> Any:
    """Hole: the protocol's ``is_fresh`` for every lane of ``lanes`` at
    once, ``now`` holding each lane's time: its value per lane."""
    raise NotImplementedError("a hole of run_kernel, never called")


def fresh_until_each(state: LaneState, lanes: slice, now: Any) -> Any:
    """Hole: :func:`fresh_until` for every lane of ``lanes`` at once."""
    raise NotImplementedError("a hole of run_kernel, never called")


def on_stored_each(state: LaneState, lanes: slice, now: Any, where: Any) -> None:
    """Hole: the protocol's ``on_stored`` for the lanes of ``lanes`` that
    ``where`` selects, ``now`` holding each lane's time."""
    raise NotImplementedError("a hole of run_kernel, never called")


def bind(params: Sequence[Any]) -> None:
    """Hole: ``params`` unpacked into the names the lowered methods read."""
    raise NotImplementedError("a hole of run_kernel, never called")


#: Constant holes, written into each specialised kernel as literals (so
#: the code an ``if False:`` guards is never compiled).  Facts about the
#: protocol class: the ``wants_invalidations`` declaration, whether
#: ``is_fresh`` reads what ``on_stored`` stamps, whether ``on_stored``
#: observes a metric, whether ``on_validation_result`` does anything,
#: whether ``is_fresh`` and its candidate boundary hold for many lanes at
#: once.  Facts about the cache: whether the run keeps a caller's ``Cache``,
#: and whether its lookups reorder it (LRU).  Facts about the run:
#: whether an observer is attached, whether anything is delivered (a
#: fault schedule, or a class that takes invalidations), whether it
#: skips its hit runs — a lean run, none of those nor a cache, tuning or
#: an active metrics registry, over a stream that changes rarely, of a
#: class whose ``is_fresh`` is proved monotone — and whether it steps its
#: objects in lockstep: a lean run, delivering or not, keeping an LRU cache
#: only where nothing is delivered, over a stream that changes often and
#: needs few steps, of a class whose methods vectorise.
wants_invalidations = stamps = observes = tunes = vectorises = False
caches = touches = observed = delivers = skips = steps = False


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
    params: Sequence[Any] = (),
    base_mode: bool,
    costs: MessageCosts,
    charge_per_modification: bool,
    preload: bool,
    start_time: float,
    end_time: Optional[float],
    protocol_name: str,
    mode_value: str,
    observer: Optional[EventObserver] = None,
    schedule: Optional[ActionColumns[int]] = None,
    eager: bool = False,
    cache: Optional[Cache] = None,
) -> SimulationResult:
    """Drive the full request stream through the array interpreter.

    This body is a template, ordinary Python but never run as it stands:
    the calls to :func:`is_fresh` / :func:`on_stored` /
    :func:`on_validation_result` are holes that
    :mod:`repro.fastpath.specialise` replaces, once per protocol class,
    by that class's own methods lowered onto the state arrays (first
    argument the entry's index, then the method's own; each hole is one
    line).  Lowered code reads the state arrays by their
    :class:`~repro.fastpath.arrays.CacheState` names, a per-type table
    ``tN`` at ``file_type[i]``, appends an observed refresh window to
    ``rw_values``, and keeps its own locals in names of the form
    ``_x_N``.

    ``kind`` and ``p0`` / ``p1`` / ``p2`` are what
    :func:`repro.fastpath.dispatch.compile_protocol` returned: the
    kernel specialised for the protocol's class — whose variant for
    this call's ``observer`` and ``schedule`` is what the call runs —
    and the values of the instance attributes its methods read
    (None travels as None; ``has_p2`` belongs to the call shape
    ``bench/`` pins and carries nothing).  ``params`` carries the rest:
    further attributes (``p3`` ...), then the per-run tables ``t0`` ...
    standing for ``dict`` attributes keyed by file type.  ``eager``
    selects the invalidation family's pre-optimization push.

    ``cache`` is the caller's empty ``Cache`` for a kernel specialised to
    keep one: the run stores, looks up, evicts and crashes the way
    ``Cache`` does (its capacity and its LRU / FIFO order) and leaves in
    it what the reference run would
    (:func:`repro.fastpath.arrays.write_back`).

    ``schedule`` is a fault plan's compiled action schedule, keyed by
    object index and resolved against this ``start_time``
    (:func:`repro.fastpath.arrays.compile_schedule`); when None,
    delivery runs off the server's own feed.

    Under an active metrics registry the run publishes, once it is
    over, every metric the reference engine publishes as it goes
    (``cache.stores``, ``server.gets``, ``sim.transfer_bytes``, the
    ``sim.event.*`` family, ...): each counter's whole-run total, added
    once, and each histogram's samples in request order.

    Raises:
        ValueError: when ``end_time`` precedes the last request (the
            reference's message, byte for byte).
        AssertionError: if the counter invariants fail (same terminal
            check the reference ``finish`` runs).
    """
    br = bisect_right
    bl = bisect_left
    ids = compiled.ids
    sizes = compiled.sizes
    cacheable = compiled.cacheable
    obj_created = compiled.created
    expires_after = compiled.expires_after
    has_expires = compiled.has_expires
    mod_times = compiled.mod_times
    mod_lo = compiled.mod_lo
    mod_count = compiled.mod_count
    file_type = compiled.file_type
    # By request position: the origin's version and Last-Modified at t.
    req_versions, req_stamps = stream_columns(compiled, req_times, req_objs)
    bind(params)

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

    control_message, _ = costs.invalidation_notice()
    full_control, _ = costs.full_retrieval(0)
    per_modification = charge_per_modification
    if observed:
        assert observer is not None
        notify = observer

    # One tally per independent quantity; the counters and the ledger
    # cells are built from them after the loop.
    fresh_hits = 0  # is_fresh said yes: the stale ones included
    stale_hits = 0
    stale_age_sum = 0.0
    stored_misses = 0  # cold misses and base-mode refetches
    dynamic = 0
    ex_304 = 0
    ex_200 = 0
    prefetches = 0
    ex_inv = 0  # notices sent
    invalidations_received = 0
    body_full = 0  # the bodies of stored misses and dynamic fetches
    body_200 = 0
    body_pre = 0
    went_invalid = lost = dropped = recovered = crashes = crash_drops = 0

    # What the reference engine publishes as it goes (docs/FASTPATH.md's
    # metrics-equivalence rule) is published after the run: the counters
    # from the tallies, the histograms from these samples.
    collect = obs_metrics.active() is not None
    preloaded = resident.count(True) if collect else 0
    tb_values: list[float] = []
    sa_values: list[float] = []
    rw_values: list[float] = []

    if caches:
        # -- a caller's Cache -----------------------------------------------
        # Cache.store / .lookup / .clear over resident indices.  ``order``
        # is the cache's own order — its front is evicted next —
        # re-inserted by every store and, under LRU (``touches``), by
        # every lookup (a stepping run reads it off the stream);
        # ``fetched_at`` dates each entry's last store.
        assert cache is not None
        capacity_bytes = cache.capacity_bytes or _INFINITY
        fetched_at = [st] * len(ids)
        if not steps:
            order: OrderedDict[int, None] = OrderedDict()
            used_bytes = 0
            evictions = 0
            if preload:
                # Cache.preload_from: every cacheable object stored in server
                # order, each evicting from the front until it fits — an LRU
                # cache's residency with no request, under FIFO alike.
                _, order, evictions = lru_residency(compiled, [], [],
                                                    capacity_bytes, True)
                resident[:] = [False] * len(ids)
                for i in order:
                    resident[i] = True
                    used_bytes += sizes[i]
                    expires_at[i] = None
            evict = order.popitem
            touch = order.move_to_end

    # on_stored runs only where the run can observe it: through the stamp
    # is_fresh reads, the metric it publishes, or the caller's Cache.
    restamp = stamps or caches or (collect and observes)
    if preload and restamp:
        # Preload calls protocol.on_stored(entry, start_time) for every
        # entry it loads.
        for i in range(len(ids)):
            if resident[i]:
                on_stored(i, st)

    if steps:
        # -- every object at once, one request each per step --------------
        # Nothing a run of this kind does to one object touches another —
        # a feed line or a fault action concerns one object too, and a
        # crash wipes each alike — so the loop takes the stream by step
        # (arrays.step_view): step k is the k-th request of every object
        # with more than k, one lane each, and runs the per-request loop
        # below on all of them at once: the lowered methods if-converted,
        # each branch a mask.  It only writes state and what each step
        # decided, by row; the tallies are folded from the rows after it.
        view = step_view(compiled, req_times, req_objs,
                         (req_versions, req_stamps))
        dynamic += view.dynamic
        body_full += view.dynamic_bytes
        by_lane = lane_state(compiled, req_times, req_objs, view.lanes, state,
                             st, preload, delivers)
        lane_expires = view.has_expires
        expiring = bool(lane_expires.any())
        widths = view.widths
        versions = view.versions
        # Per row: a fresh hit, whether a 304 would answer it, a copy held,
        # its version and (delivering) whether a delivery flipped it.
        was_hit = np.zeros(len(view.times), dtype=bool)
        same = np.zeros_like(was_hit)
        was_held = np.zeros(len(view.times) + delivers * len(view.lanes),
                            dtype=bool)
        kept = np.zeros(len(was_held), dtype=view.row_mod_lo.dtype)
        if delivers:
            # Each lane takes what reached it since its previous request
            # before the step; the trailing flush is one more step, of
            # every lane at the horizon, with rows of its own.
            rows = len(view.times)
            widths = widths + [len(view.lanes)]
            flipped = np.zeros_like(was_held)
        if delivers and schedule is not None:
            # Each row's actions since its lane's previous one, cut at a
            # crash between (arrays.lane_actions).  Under §4.1 charging a
            # resident copy is sent and delivered each, whatever its state:
            # the charges are counted once, else folded from each row.
            acts = lane_actions(compiled, req_times, req_objs, view, schedule, horizon)
            live_at = np.zeros_like(was_held)
            if per_modification:
                ex_inv += acts.sent[0] + preload * acts.sent[1]
                invalidations_received += (acts.delivered[0]
                                           + preload * acts.delivered[1])
            else:
                cursor, cut = acts.starts, acts.stops
        elif wants_invalidations:
            # A lane's feed lines since its previous request are the
            # origin's versions since its previous row (arrays.step_view's
            # gaps), or before its first since ``seen``, initial_state's —
            # not since the kept copy's, which a hit on an invalidated copy
            # leaves older.  The flush's are counted up to the horizon.
            seen = by_lane.version
            flush = np.bincount(view.mod_lanes[view.mod_times <= horizon],
                                minlength=len(view.lanes))
            versions = np.concatenate((versions, flush))
            gap = view.gaps.astype(np.int64)
            gap[rows:] += flush
            first = view.widths[0] if rows else 0
            gap[:first] -= seen[:first]
            gap[rows + first:] -= seen[first:]
            news = gap > 0
        if caches:
            # -- an LRU cache: which lanes hold a copy before each request is
            # the stream's (arrays.lru_residency); one that does not is a
            # cold miss, whose store writes every field.
            held_at, order, evictions = lru_residency(
                compiled, req_times, req_objs, capacity_bytes, preload)
            held_at = held_at[view.positions]
            fetched = np.full(len(view.lanes), st)
        hi = 0
        # Python's float +, - and * never trap; numpy's must not warn.
        with np.errstate(all="ignore"):
            for m in widths:
                lo, hi = hi, hi + m
                lanes = slice(0, m)
                now_version = versions[lo:hi]
                held = by_lane.resident[lanes]
                if caches:
                    held = held_at[lo:hi]
                if delivers and schedule is not None:
                    # -- the schedule since each lane's previous request --
                    # A valid copy (so a resident one: a crash's request
                    # stores it again) is flipped by a delivery past the
                    # generation guard.  A crash in the gap wipes the copy
                    # after its actions.
                    live = by_lane.valid[lanes]
                    flips = live & (acts.guard[lo:hi] >= by_lane.version[lanes])
                    live_at[lo:hi] = live
                    if acts.wiped is not None:
                        np.copyto(held, False, where=acts.wiped[lo:hi])
                elif wants_invalidations:
                    # -- the feed since each lane's previous request ------
                    # A resident lane's lines, sent and delivered: the
                    # first flips a valid copy.
                    flips = by_lane.valid[lanes] & news[lo:hi]
                    if eager and flips.any():
                        # -- the eager push: a resident copy is valid again
                        # after each, so every line is sent, received and
                        # pushed, and the last push's store is the lane's.
                        pushed, flips = flips, np.zeros_like(flips)
                        at = view.mod_times[np.where(
                            pushed, view.mod_lo[lanes] + now_version - 1, 0)]
                        np.copyto(by_lane.version[lanes], now_version, where=pushed)
                        np.copyto(by_lane.last_modified[lanes], at, where=pushed)
                        np.copyto(by_lane.validated_at[lanes], at, where=pushed)
                        if expiring:
                            np.copyto(by_lane.server_expires[lanes],
                                      at + view.expires_after[lanes],
                                      where=pushed & lane_expires[lanes])
                        if restamp:
                            on_stored_each(by_lane, lanes, at, pushed)
                was_held[lo:hi] = held
                kept[lo:hi] = by_lane.version[lanes]
                if delivers:
                    np.copyto(by_lane.valid[lanes], False, where=flips)
                    flipped[lo:hi] = flips
                    if lo == rows:
                        break
                now = view.times[lo:hi]
                hit = is_fresh_each(by_lane, lanes, now)
                hit = np.logical_and(held, hit)
                was_hit[lo:hi] = hit
                if np.count_nonzero(hit) == m:
                    continue
                # -- not fresh: the store tail, lane by lane ------------------
                # A cold miss or a 200 moves a body; a 304 keeps the copy.
                todo = ~hit
                if base_mode:
                    moved = todo
                else:
                    unchanged = np.less_equal(view.stamps[lo:hi],
                                              by_lane.last_modified[lanes],
                                              out=same[lo:hi])
                    moved = ~(hit | (held & unchanged))
                np.copyto(by_lane.version[lanes], now_version, where=moved)
                np.copyto(by_lane.last_modified[lanes], view.stamps[lo:hi],
                          where=moved)
                if caches:
                    # on_stored stamps every path (or the run walks): no
                    # None is left for expires_at.
                    np.copyto(fetched[lanes], now, where=moved)
                by_lane.resident[lanes] = True
                if delivers:
                    np.copyto(by_lane.valid[lanes], True, where=todo)
                np.copyto(by_lane.validated_at[lanes], now, where=todo)
                if expiring:
                    np.copyto(by_lane.has_server_expires[lanes],
                              lane_expires[lanes], where=todo)
                    np.copyto(by_lane.server_expires[lanes],
                              now + view.expires_after[lanes],
                              where=todo & lane_expires[lanes])
                if restamp:
                    on_stored_each(by_lane, lanes, now, todo)
        # -- the fold: every tally from the rows the steps wrote ------------
        n = len(was_hit)
        hit, held, version_at = was_hit, was_held[:n], kept[:n]
        fresh_hits = np.count_nonzero(hit)
        stale = hit & (version_at < view.versions)
        stale_hits = np.count_nonzero(stale)
        if stale_hits:
            # became_stale, as the per-request loop finds it, by request
            # position: added up as the skipping walk adds them.
            ages = array("d", [0.0]) * len(req_times)
            at = np.flatnonzero(stale)
            np.frombuffer(ages)[view.positions[at]] = view.times[at] - (
                view.mod_times[view.row_mod_lo[at] + version_at[at]])
        # A fresh hit holds its copy: the held rows but the hits asked.  (A
        # product sums a scattered mask's sizes faster than a gather does.)
        missed = ~hit if base_mode else ~held
        asked = (held ^ hit) & ~missed
        changed = asked & ~same
        stored_misses = np.count_nonzero(missed)
        body_full += (view.row_sizes[:n] * missed).sum()
        ex_200 = np.count_nonzero(changed)
        ex_304 = np.count_nonzero(asked) - ex_200
        body_200 = (view.row_sizes[:n] * changed).sum()
        if delivers and schedule is not None and not per_modification:
            # A lane is charged its gap's sends while valid, up to the
            # flipping delivery (one search over the flipped rows), and
            # receives the flip.
            stop = np.where(live_at, cut, cursor)
            stop[flipped] = np.searchsorted(
                acts.reach, view.row_mod_lo[flipped] + kept[flipped] + 1)
            ex_inv += (acts.charged[stop] - acts.charged[cursor]).sum()
            invalidations_received += np.count_nonzero(flipped)
        elif wants_invalidations and schedule is None:
            # Each line to a resident lane under §4.1 charging, or pushed;
            # else one per flip.
            sent = (gap[was_held].sum() if per_modification or eager
                    else np.count_nonzero(flipped))
            ex_inv += sent
            invalidations_received += sent
            if eager:
                prefetches += sent
                body_pre += (gap * view.row_sizes)[was_held].sum()
        # numpy counts in its own integers; the results hold Python's.
        fresh_hits, stale_hits, stored_misses = (
            int(fresh_hits), int(stale_hits), int(stored_misses))
        ex_304, ex_200 = int(ex_304), int(ex_200)
        body_full, body_200 = int(body_full), int(body_200)
        ex_inv, invalidations_received = int(ex_inv), int(invalidations_received)
        prefetches, body_pre = int(prefetches), int(body_pre)
        if caches:
            # What write_back reads, by object again.
            for name in CacheState.__slots__:
                setattr(state, name, by_object(view.lanes, getattr(by_lane, name)))
            fetched_at = by_object(view.lanes, fetched)
    if not steps:
        # -- the action cursor ------------------------------------------------
        if delivers:
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
        # zip stops at the shortest: the columns carry one more row.
        stream = zip(req_times, req_objs, req_versions, req_stamps)
        if delivers:
            # The trailing flush is the last line of the stream: a request
            # for no object at the end of time, which stops once everything
            # due (``act_count`` stops at the horizon) has been delivered.
            # The columns' last row is its sentinel.
            stream = zip(req_times + [_INFINITY], req_objs + [NO_OBJECT],
                         req_versions, req_stamps)
        if skips:
            # -- object by object, decision to decision -----------------------
            # Nothing a run of this kind does to one object touches another,
            # so the loop takes the same rows by object (arrays.stream_view);
            # object ``i``'s rows end at ``ends[i]``.  A fresh hit counts the
            # whole run of hits it opens, and the loop jumps past it to the
            # next row is_fresh rejects.
            ends, r_times, r_objs, r_versions, r_stamps, positions = view = (
                stream_view(compiled, req_times, req_objs, (req_versions, req_stamps)))
            # Stale ages by request position, zero elsewhere: added up at the
            # end from 0.0 in request order, as the per-request loop adds them
            # (x + 0.0 == x; np.cumsum folds left to right, where builtin
            # sum() compensates on 3.12 and np.sum pairs).
            ages = array("d", [0.0]) * len(r_times)
            # The first row left to decide of object ``i`` or a later one:
            # the loop starts at ``later[0]``, goes on at ``later[i + 1]``
            # past object ``i``'s rows, and jumps to ``later[i]`` from before.
            later = [0, *ends]
            if vectorises and preload:
                # -- every preloaded copy's run of fresh hits, at once ---------
                # One search over every object's rows finds each copy's
                # candidate end; it stands where is_fresh holds at the row
                # before it (a fresh row from it on is the loop's next hit),
                # and any other object's first row is the loop's.
                pre = preload_view(compiled, req_times, req_objs, view, state)
                by_lane = pre.state
                if stamps:
                    by_lane.expires_at = np.array(expires_at)[pre.lanes]
                every = slice(None)
                with np.errstate(all="ignore"):
                    now = pre.times[pre.starts]
                    fresh = is_fresh_each(by_lane, every, now)
                    if np.any(fresh):
                        until = fresh_until_each(by_lane, every, now)
                        j = np.minimum(np.maximum(np.searchsorted(
                            pre.keys, pre.offsets + until), pre.starts), pre.ends)
                        now = pre.times[np.maximum(j - 1, pre.starts)]
                        before = is_fresh_each(by_lane, every, now)
                        first = np.where(before, j, pre.starts)
                        fresh_hits += int((first - pre.starts).sum())
                        # Versions only grow along a lane: its stale hits follow.
                        stale = np.maximum(first - pre.changed, 0)
                        if stale.any():
                            stale_hits += int(stale.sum())
                            rows = np.repeat(pre.changed - np.cumsum(stale) + stale,
                                             stale) + np.arange(stale.sum())
                            np.frombuffer(ages)[pre.positions[rows]] = (
                                pre.times[rows] - np.repeat(pre.since, stale))
                        decide = pre.decided.copy()
                        decide[pre.lanes] = np.where(first < pre.ends, first,
                                                     len(r_times))
                        later = np.minimum.accumulate(decide[::-1])[::-1].tolist()
            # The cursors are the loop's position: a jump moves all four, and
            # where the loop needs the current row ``k``, it is last - left().
            cursors: list[Iterator[Any]] = [
                iter(column) for column in (r_times, r_objs, r_versions, r_stamps)]
            jt, jo, jv, js = [getattr(cursor, "__setstate__") for cursor in cursors]
            left = getattr(cursors[1], "__length_hint__")
            last = len(r_times) - 1
            for jump in (jt, jo, jv, js):
                jump(later[0])
            stream = zip(*cursors)
        for t, i, vt, lm in stream:
            if delivers and pending <= t:
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
                                crash_drops += wiped
                            if caches:
                                # Cache.clear: no evictions counted.
                                order.clear()
                                used_bytes = 0
                            crashes += 1
                            if observed:
                                notify("fault_cache_crash", at, "")
                            continue
                        if not resident[mi]:
                            continue
                        if act == DROP:
                            # Abandoned while the cache still believes the
                            # copy valid: unbounded staleness begins here.
                            if valid[mi]:
                                dropped += 1
                                if observed:
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
                                    lost += 1
                                    if observed:
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
                        went_invalid += 1
                    if flips or per_modification:
                        invalidations_received += 1
                        if retried:
                            recovered += 1
                            if observed:
                                notify("fault_invalidation_recovered", at,
                                       ids[mi])
                        if observed:
                            notify("invalidation", at, ids[mi])
                    if eager:
                        # Pre-optimization invalidation: the new copy rides
                        # with the notice — a GET at the action time, stored
                        # the way the store tail below stores.  Not a miss:
                        # no request is waiting.  The one schedule search
                        # left: it is at the action time, not a request's.
                        lo = mod_lo[mi]
                        va = br(mod_times, at, lo, lo + mod_count[mi]) - lo
                        version[mi] = va
                        last_modified[mi] = (
                            obj_created[mi] if va == 0 else mod_times[lo + va - 1]
                        )
                        valid[mi] = True
                        validated_at[mi] = at
                        if has_expires[mi]:
                            has_server_expires[mi] = True
                            server_expires[mi] = at + expires_after[mi]
                        else:
                            has_server_expires[mi] = False
                        if caches:
                            # Cache.store of a resident copy of the same size:
                            # to the back of the order, nothing evicted.
                            touch(mi)
                            fetched_at[mi] = at
                            expires_at[mi] = None
                        if restamp:
                            on_stored(mi, at)
                        prefetches += 1
                        body_pre += sizes[mi]
                        if observed:
                            notify("prefetch", at, ids[mi])
                pending = act_times[slot] if slot < act_count else _INFINITY
                if i == NO_OBJECT:
                    break

            if resident[i]:
                if touches:
                    # Cache.lookup under LRU: the entry moves to the back.
                    touch(i)
                fresh = is_fresh(i, t)
                if fresh:
                    if skips:
                        # -- the run of fresh hits this row opens -------------
                        # Up to the next row is_fresh rejects: bisect for the
                        # candidate boundary, unless the next row is past it,
                        # then move back while is_fresh rejects the row before
                        # it (float rounding, equal times); a fresh row after
                        # it is the loop's next hit.  A counted run is jumped.
                        k = last - left()
                        j = later[i]
                        if j <= k:
                            until = fresh_until(i, t)
                            j = k + 1
                            end = ends[i]
                            if j < end and r_times[j] < until:
                                j = bl(r_times, until, j + 1, end)
                                while j - 1 > k:
                                    u = r_times[j - 1]
                                    fresh = is_fresh(i, u)
                                    if fresh:
                                        break
                                    j = bl(r_times, u, k + 1, j)
                            fresh_hits += j - k
                            v = version[i]
                            if v < r_versions[j - 1]:
                                # Versions never decrease along an object's rows:
                                # its stale hits are a suffix of the run, each aged
                                # from the same change.
                                s = k if v < vt else bl(r_versions, v + 1, k, j)
                                stale_hits += j - s
                                since = mod_times[mod_lo[i] + v]
                                for row in range(s, j):
                                    ages[positions[row]] = r_times[row] - since
                            if j == end:
                                j = later[i + 1]
                        if j - k > 1:
                            jt(j)
                            jo(j)
                            jv(j)
                            js(j)
                        continue
                    fresh_hits += 1
                    v = version[i]
                    # Stale iff the copy is older than the origin's version
                    # at t: the reference's ``v < version_at(t)``.
                    if v < vt:
                        stale_hits += 1
                        # became_stale = next_change_after(last_modified): the
                        # entry's Last-Modified is exactly mod_times[lo + v - 1]
                        # (or created), so the first strictly later change is
                        # mod_times[lo + v] — in range because v < vt.
                        age_stale = t - mod_times[mod_lo[i] + v]
                        stale_age_sum += age_stale
                        if collect:
                            sa_values.append(age_stale)
                        if observed:
                            notify("stale_hit", t, ids[i])
                    elif observed:
                        notify("hit", t, ids[i])
                    continue
                # Base simulator: unconditional refetch, even when unchanged.
                refetch = base_mode
            elif not cacheable[i]:
                # Dynamic content: full fetch on every request, never stored
                # (so never resident).
                n = 1
                if skips:
                    # Each of the object's requests is one: all counted here.
                    n = ends[i] - (last - left())
                    for jump in (jt, jo, jv, js):
                        jump(later[i + 1])
                dynamic += n
                body_full += n * sizes[i]
                if collect:
                    # One request: a run that skips publishes nothing.
                    tb_values.append(float(sizes[i]))
                if observed:
                    notify("dynamic_fetch", t, ids[i])
                continue
            else:
                refetch = True  # cold miss

            # -- not fresh: one server exchange, then the one store tail ------
            # The origin answers with version ``vt``, Last-Modified ``lm``.
            if refetch:
                stored_misses += 1
                body_full += sizes[i]
                body_moved = True
                event = "miss"
            elif lm <= last_modified[i]:
                # Optimized simulator: conditional retrieval.  304 Not
                # Modified: revalidate in place; on_stored below sees the
                # entry's own Last-Modified.
                ex_304 += 1
                lm = last_modified[i]
                body_moved = False
                event = "validation_304"
            else:
                # 200: body moves; store the new version.
                ex_200 += 1
                body_200 += sizes[i]
                body_moved = True
                event = "validation_200"

            if body_moved:
                version[i] = vt
                last_modified[i] = lm
                if collect:
                    tb_values.append(float(sizes[i]))
                if caches:
                    # Cache.store: the new copy goes to the back of the order;
                    # one not resident before evicts from the front until it
                    # fits (it fits alone, so the front is never itself).
                    if resident[i]:
                        touch(i)
                    else:
                        if sizes[i] > capacity_bytes:
                            raise ValueError(
                                f"entry {ids[i]!r} ({sizes[i]} B) exceeds cache "
                                f"capacity ({capacity_bytes} B)"
                            )
                        order[i] = None
                        used_bytes += sizes[i]
                        while used_bytes > capacity_bytes:
                            victim = evict(False)[0]
                            resident[victim] = False
                            used_bytes -= sizes[victim]
                            evictions += 1
                    fetched_at[i] = t
                    expires_at[i] = None
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
            if tunes and not refetch:
                # RequestStep.validated: the 304 / 200 reaches the protocol.
                on_validation_result(i, t, body_moved)
            if observed:
                notify(event, t, ids[i])

    if (skips or steps) and stale_hits:
        # Only the ages written: each is >= 0 and the sum starts at +0.0,
        # so a dropped + 0.0 changes nothing.
        aged = np.frombuffer(ages)
        aged = aged[aged != 0.0]
        if len(aged):
            stale_age_sum = float(np.cumsum(aged)[-1])
    full_retrievals = stored_misses + dynamic
    validations = ex_304 + ex_200
    if caches:
        assert cache is not None
        write_back(cache, compiled, state, order, fetched_at, evictions)
    if collect:
        # Each total added once (n unit increments sum to exactly float(n)),
        # preload included; a zero publishes nothing, so the registry
        # creates the keys the reference run creates and no others.
        for name, n in (
            ("cache.stores", preloaded + stored_misses + ex_200 + prefetches),
            ("cache.invalidated", went_invalid),
            ("cache.crash_drops", crash_drops),
            ("server.gets", preloaded + full_retrievals + ex_200 + prefetches),
            ("server.ims_queries", validations),
            ("sim.event.hit", fresh_hits - stale_hits),
            ("sim.event.stale_hit", stale_hits),
            ("sim.event.miss", stored_misses),
            ("sim.event.validation_304", ex_304),
            ("sim.event.validation_200", ex_200),
            ("sim.event.invalidation", invalidations_received),
            ("sim.event.prefetch", prefetches),
            ("sim.event.dynamic_fetch", dynamic),
            ("sim.event.fault_invalidation_lost", lost),
            ("sim.event.fault_invalidation_dropped", dropped),
            ("sim.event.fault_invalidation_recovered", recovered),
            ("sim.event.fault_cache_crash", crashes),
        ):
            if n:
                obs_metrics.emit(name, float(n))
        if caches and evictions:
            obs_metrics.emit("cache.evictions", float(evictions))
        for name, values in (("sim.transfer_bytes", tb_values),
                             ("sim.stale_age_seconds", sa_values),
                             (REFRESH_WINDOW, rw_values)):
            for value in values:
                obs_metrics.observe(name, value)

    # Each request took exactly one of the paths above: check_invariants'
    # ``hits + misses == requests`` checks that it landed in one bucket.
    counters = ConsistencyCounters(
        requests=len(req_times),
        hits=fresh_hits + ex_304,
        misses=full_retrievals + ex_200,
        stale_hits=stale_hits,
        stale_age_sum=stale_age_sum,
        validations=validations,
        validations_not_modified=ex_304,
        full_retrievals=full_retrievals,
        invalidations_received=invalidations_received,
        prefetches=prefetches,
        server_gets=full_retrievals + prefetches,
        server_ims_queries=validations,
        server_invalidations_sent=ex_inv,
    )
    bandwidth = BandwidthLedger()
    for category, exchanges, control, body in (
        (FULL_RETRIEVAL, full_retrievals, full_control, body_full),
        (VALIDATION_304, ex_304, full_control, 0),
        (VALIDATION_200, ex_200, full_control, body_200),
        (INVALIDATION, ex_inv, control_message, 0),
        (PREFETCH, prefetches, full_control, body_pre),
    ):
        bandwidth.control_bytes[category] = exchanges * control
        bandwidth.body_bytes[category] = body
        bandwidth.exchanges[category] = exchanges
    result = SimulationResult(
        protocol_name=protocol_name,
        mode=mode_value,
        counters=counters,
        bandwidth=bandwidth,
        duration=horizon - st,
    )
    result.counters.check_invariants()
    return result

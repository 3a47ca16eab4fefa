"""Array compilation: origin servers and request streams as flat arrays.

The reference simulator walks a graph of Python objects per request —
``Cache`` → ``CacheEntry``, ``OriginServer`` → ``ObjectHistory`` →
``ModificationSchedule`` — paying an attribute lookup or a method call
for every hop.  The fast path compiles that graph *once* per server
into parallel arrays indexed by a dense object index:

* population arrays (:class:`CompiledServer`) — sizes, cacheability,
  creation times, Expires lifetimes, and every modification schedule
  flattened into one sorted ``mod_times`` array with per-object
  ``[mod_lo, mod_lo + mod_count)`` slices;
* the request stream as columns (:func:`encode_requests`,
  :func:`stream_columns`) — time and object index, and the two answers
  the schedule gives about them: the origin's version of the object at
  the request time and that version's Last-Modified.  Those depend on
  the workload alone, never on the protocol or the cache, so they are
  looked up (one bounded :func:`bisect.bisect_right` each) once per
  stream rather than once per request of every run;
* cache-state arrays (:class:`CacheState`) — the mutable per-entry
  fields the protocols consult (``validated_at``, ``last_modified``,
  ``valid``, generation, Expires stamps), replacing ``CacheEntry``;
* the invalidation feed as a pair of parallel arrays, merged with the
  request stream by one cursor instead of per-request tuple peeks.

Compilation is cached per server instance (weak-keyed, so a dropped
server frees its arrays): a 21-point sweep over one workload compiles
once and reuses the arrays for every grid point.  The other products a
grid point does not change are memoised next to it, one slot each per
server and dying with it: a fault plan's action schedule
(:func:`compile_schedule` — the columns of the last ``(plan,
start_time)`` resolved against that server's feed, keyed by object
index), the last encoded request stream with its version and
Last-Modified columns (:func:`encode_requests`) and what runs derive
from it, each built by the first run that asks (:func:`_per_stream`) —
its requests per object and one stable sort of its objects
(:func:`_order`), which every view by object is cut from: the rows by
object a skipping run reads (:func:`stream_view`, :func:`preload_view`),
the rows by step a lockstep run reads (:func:`step_view`, with a fault
schedule by lane, :func:`lane_actions`) — and the preloaded state
template (:func:`initial_state`, which hands each run its own copy).

Equivalence note (docs/FASTPATH.md): the compiled feed is the server's
own :meth:`~repro.core.server.OriginServer.invalidation_feed` mapped to
object indices — same tuple, same ``(time, id)`` sort — and request
encoding replays the reference simulator's own validation, raising the
identical ``ValueError`` for out-of-order streams and
:class:`~repro.core.server.UnknownObjectError` for unknown ids (the
fast path raises before any event is observed; the reference raises
mid-stream — see the contract's error-parity clause).  A memo hit is by
construction a list that already passed that validation, which is why a
server's histories and a request list must not be edited in place
between runs that share them.
"""

from __future__ import annotations

import functools
import weakref
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from repro.core.cache import Cache, CacheEntry
from repro.core.server import OriginServer, UnknownObjectError
from repro.faults.plan import (ATTEMPT_LOST, ATTEMPT_SENT, CRASH, DELIVER,
                               KINDS, ActionColumns, FaultPlan)
from repro.obs import registry as obs_metrics


@dataclass(frozen=True, eq=False)
class CompiledServer:
    """One origin server flattened into parallel arrays.

    All lists are indexed by the dense object index assigned in the
    server's insertion order (the order :meth:`Cache.preload_from`
    walks), so preload-time behaviour needs no id lookups at all.
    Compared and hashed by identity: it keys the per-server memos below.
    """

    ids: list[str]
    index: dict[str, int]
    sizes: list[int]
    cacheable: list[bool]
    created: list[float]
    #: Expires lifetime per object; meaningful only where ``has_expires``.
    expires_after: list[float]
    has_expires: list[bool]
    #: Every modification schedule, flattened; object ``i`` owns the
    #: ascending slice ``mod_times[mod_lo[i] : mod_lo[i] + mod_count[i]]``.
    mod_times: list[float]
    mod_lo: list[int]
    mod_count: list[int]
    #: The invalidation feed (modification events time-ordered with the
    #: reference's ``(time, id)`` tie-break), as parallel arrays.
    feed_times: list[float]
    feed_obj: list[int]
    #: Per object, the index of its file type in ``file_types`` (types in
    #: order of first appearance): what keys a protocol's per-type tables.
    file_type: list[int]
    file_types: list[str]

    @functools.cached_property
    def feed_places(self) -> tuple["np.ndarray[Any, Any]", ...]:
        """As numpy arrays: the feed's objects, each line's place in
        ``mod_times`` (the feed stably sorted by object), ``mod_lo``."""
        feed_obj = np.array(self.feed_obj, dtype=np.int64)
        places = np.empty_like(feed_obj)
        places[_by_object(feed_obj, len(self.ids))] = np.arange(len(feed_obj))
        return feed_obj, places, np.array(self.mod_lo, dtype=np.int64)


_COMPILED: "weakref.WeakKeyDictionary[OriginServer, CompiledServer]" = (
    weakref.WeakKeyDictionary()
)


def compile_server(server: OriginServer) -> CompiledServer:
    """Compile (or fetch the cached compilation of) ``server``.

    Contract: a server's histories — and a request list handed to
    :func:`encode_requests` — are not edited in place between runs that
    share them; everything memoised here is keyed by object identity.
    """
    compiled = _COMPILED.get(server)
    if compiled is None:
        compiled = _compile(server)
        _COMPILED[server] = compiled
    return compiled


def _compile(server: OriginServer) -> CompiledServer:
    ids: list[str] = []
    index: dict[str, int] = {}
    sizes: list[int] = []
    cacheable: list[bool] = []
    created: list[float] = []
    expires_after: list[float] = []
    has_expires: list[bool] = []
    mod_times: list[float] = []
    mod_lo: list[int] = []
    mod_count: list[int] = []
    file_type: list[int] = []
    type_index: dict[str, int] = {}
    for oid, history in server.histories().items():
        obj = history.obj
        index[oid] = len(ids)
        ids.append(oid)
        file_type.append(type_index.setdefault(obj.file_type, len(type_index)))
        sizes.append(obj.size)
        cacheable.append(obj.cacheable)
        created.append(history.schedule.created)
        if obj.expires_after is not None:
            expires_after.append(obj.expires_after)
            has_expires.append(True)
        else:
            expires_after.append(0.0)
            has_expires.append(False)
        times = history.schedule.times
        mod_lo.append(len(mod_times))
        mod_count.append(len(times))
        mod_times.extend(times)
    feed_times: list[float] = []
    feed_obj: list[int] = []
    for t, oid in server.invalidation_feed():
        feed_times.append(t)
        feed_obj.append(index[oid])
    return CompiledServer(
        ids=ids,
        index=index,
        sizes=sizes,
        cacheable=cacheable,
        created=created,
        expires_after=expires_after,
        has_expires=has_expires,
        mod_times=mod_times,
        mod_lo=mod_lo,
        mod_count=mod_count,
        feed_times=feed_times,
        feed_obj=feed_obj,
        file_type=file_type,
        file_types=list(type_index),
    )


#: What a crash slot holds in the ``keys`` column of an index-keyed
#: schedule: crashes concern no object.
NO_OBJECT = -1

_ScheduleKey = tuple[tuple[Any, ...], float, bool]

_SCHEDULES: (
    "weakref.WeakKeyDictionary[OriginServer, "
    "tuple[_ScheduleKey, ActionColumns[int]]]"
) = weakref.WeakKeyDictionary()


def compile_schedule(
    server: OriginServer,
    plan: FaultPlan,
    start_time: float,
    wants_feed: bool,
) -> ActionColumns[int]:
    """``plan``'s action schedule against ``server``'s feed, by index.

    Keyed by what it depends on (:attr:`FaultPlan.schedule_key`: at loss
    rate 0 not a plan's retries or backoff).  Only the last schedule per
    server is kept — the runs of one plan over one workload are
    consecutive in every sweep — so the memo holds one schedule's columns
    per server.  Protocols without callbacks (``wants_feed`` False) get the
    schedule of an empty feed: the plan's crashes.
    """
    key = (plan.schedule_key, start_time, wants_feed)
    memo = _SCHEDULES.get(server)
    if memo is not None and memo[0] == key:
        return memo[1]
    feed_times: list[float] = []
    feed_obj: list[int] = []
    if wants_feed:
        compiled = compile_server(server)
        feed_times, feed_obj = compiled.feed_times, compiled.feed_obj
    schedule = plan.columns(feed_times, feed_obj, NO_OBJECT, start_time)
    _SCHEDULES[server] = (key, schedule)
    return schedule


_Stream = tuple[list[float], list[int]]
_Columns = tuple[list[int], list[float]]


def _by_object(objs: "np.ndarray[Any, Any]", objects: int) -> "np.ndarray[Any, Any]":
    """``objs``' stable sort order, each below ``objects``: on 16-bit keys
    where they fit, a radix sort, several times a 64-bit one."""
    return np.argsort(objs.astype(np.uint16) if objects <= 1 << 16 else objs,
                      kind="stable")


@dataclass(eq=False)
class _Memo:
    """What one compiled server remembers of its last encoded stream: the
    list or tuple encoded — held, so its identity cannot be recycled — and
    the ``(length, start_time)`` it was encoded at, its arrays and their
    columns, and what runs derive from them (:func:`_per_stream`), by
    product: the key it was built for, and it."""

    requests: Sequence[tuple[float, str]]
    key: tuple[int, float]
    arrays: _Stream
    columns: _Columns
    derived: dict[str, tuple[Any, Any]] = field(default_factory=dict)


#: Per compiled server: the last successfully encoded list or tuple, its
#: arrays, their columns and what runs have derived from them.
_STREAMS: "weakref.WeakKeyDictionary[CompiledServer, _Memo]" = (
    weakref.WeakKeyDictionary()
)


def _kept(compiled: CompiledServer, req_times: list[float],
          req_objs: list[int]) -> Optional[_Memo]:
    """The memo of ``compiled``, if these are its stream's arrays."""
    memo = _STREAMS.get(compiled)
    if memo and memo.arrays[0] is req_times and memo.arrays[1] is req_objs:
        return memo
    return None


_T = TypeVar("_T")


def _per_stream(
    key: Callable[..., Any] = lambda *args: None,
) -> Callable[[Callable[..., _T]], Callable[..., _T]]:
    """Keep what the decorated function derives from a stream with the
    arrays :func:`encode_requests` last remembered for ``compiled``: built
    by the first call that asks, for the last value ``key`` takes of the
    arguments after the arrays.  Any other arrays get theirs built for the
    call alone.  Keys are compared with ``!=``, so a key holds no numpy
    array; an object holding one, a fault schedule, compares by identity."""

    def keep(build: Callable[..., _T]) -> Callable[..., _T]:
        @functools.wraps(build)
        def kept(compiled: CompiledServer, req_times: list[float],
                 req_objs: list[int], *args: Any) -> _T:
            memo = _kept(compiled, req_times, req_objs)
            derived: dict[str, tuple[Any, Any]] = (
                {} if memo is None else memo.derived)
            at, found = key(*args), derived.get(build.__name__)
            if found is None or found[0] != at:
                found = derived[build.__name__] = (
                    at, build(compiled, req_times, req_objs, *args))
            return found[1]
        return kept
    return keep


@_per_stream()
def _counts(compiled: CompiledServer, req_times: list[float],
            req_objs: list[int]) -> "np.ndarray[Any, Any]":
    """Per object, the requests the stream holds for it."""
    return np.bincount(np.fromiter(req_objs, np.int64, len(req_objs)),
                       minlength=len(compiled.ids))


@_per_stream()
def _order(compiled: CompiledServer, req_times: list[float],
           req_objs: list[int]) -> "np.ndarray[Any, Any]":
    """The stream by object: its request positions stably sorted by
    object, so each object's in time order, object ``i``'s ending at
    ``np.cumsum(_counts(...))[i]``.  The one sort of a stream's objects:
    every view by object is cut from it."""
    return _by_object(np.fromiter(req_objs, np.int64, len(req_objs)),
                      len(compiled.ids))


@dataclass(frozen=True, eq=False)
class LaneActions:
    """A fault schedule by lane (:func:`lane_actions`; docs/FASTPATH.md,
    "Faults by lane").  Its rows are the stream by step's, then one per
    lane for the trailing flush; each covers its lane's actions since the
    lane's previous row, up to its time and cut at a crash between."""

    #: Per row, the most its actions demand of a copy less its object's
    #: ``mod_lo`` and one, so that a valid copy at version ``v`` is flipped
    #: iff ``v <= guard``; whether a crash wipes the lane (None: the
    #: schedule has none); where its actions start and end in the schedule
    #: by object (its actions but the crashes, by object, then slot).
    guard: "np.ndarray[Any, Any]"
    wiped: "Optional[np.ndarray[Any, Any]]"
    starts: "np.ndarray[Any, Any]"
    stops: "np.ndarray[Any, Any]"
    #: Prefix counts of the notices sent (lost ones too), and prefix maxima
    #: of what an action demands of a copy it flips: a delivery one more
    #: than its modification's place in ``mod_times``, any other action
    #: its object's ``mod_lo``.  A version counts every modification up to
    #: a time, equal times alike, so ``mod_lo + version < demand`` is the
    #: generation guard.
    charged: "np.ndarray[Any, Any]"
    reach: "np.ndarray[Any, Any]"
    #: The notices sent to resident copies and delivered to them, as §4.1
    #: charging counts them: over the rows after each lane's first, and over
    #: the first rows of cacheable lanes (resident iff preloaded).
    sent: tuple[int, int]
    delivered: tuple[int, int]


@_per_stream()
def _lane_rows(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    view: StepView,
) -> tuple["np.ndarray[Any, Any]", ...]:
    """What :func:`lane_actions` reads of the stream by step ``view``,
    whatever the schedule: the request times; the rows by object, each
    object's cacheable rows then its flush row, their keys ``object *
    (count + 2) + position`` (the flush's at ``count``) and each step row's
    place among them, then each flush row's (a row of step ``k`` is its
    lane's ``k``-th: no sort); the row each modification reaches."""
    count = len(req_times)
    times = np.fromiter(req_times, np.float64, count)
    held = np.where(compiled.cacheable, _counts(compiled, req_times, req_objs), 0)
    objs = np.repeat(np.arange(len(held)), held + 1)
    widths = np.array(view.widths, dtype=np.int64)
    row_lanes = np.append(np.arange(len(view.times)) - np.repeat(
        np.cumsum(widths) - widths, widths), np.arange(len(view.lanes)))
    rank = np.append(np.repeat(np.arange(len(widths)), widths), held[view.lanes])
    rank += (np.cumsum(held + 1) - held - 1)[view.lanes[row_lanes]]
    keys = np.empty_like(rank)
    keys[rank] = np.append(view.positions, np.full(len(view.lanes), count))
    keys += objs * (count + 2)
    mods = np.array(compiled.feed_times, dtype=np.float64)
    landed = np.searchsorted(keys, compiled.feed_places[0] * (count + 2)
                             + np.searchsorted(times, mods))
    return times, objs, rank, keys, mods, landed


@_per_stream(lambda view, schedule, horizon: (schedule, horizon))
def lane_actions(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    view: StepView, schedule: ActionColumns[int], horizon: float,
) -> LaneActions:
    """``schedule`` (:func:`compile_schedule`'s, for ``compiled``) by lane
    over the stream by step ``view`` (:func:`step_view`'s), flushed at
    ``horizon``; kept with the stream for the last schedule (compared by
    identity) and horizon."""
    feed_obj, places, mod_lo = compiled.feed_places
    count = len(req_times)
    times, objs, rank, keys, mods, landed = _lane_rows(
        compiled, req_times, req_objs, view)
    code = KINDS.index
    crash = schedule.codes == code(CRASH)
    slots = np.flatnonzero(~crash)
    lines, at = schedule.lines[slots], schedule.at[slots]
    # Per action, the row it reaches: its object's first at or after it
    # (the flush if none, the one after it past the horizon).  At its
    # modification's time that is the modification's row; the others are
    # searched, their requests in time order, their rows by object.
    late = at != mods[lines]
    after = np.zeros(len(slots), dtype=np.int64)
    after[late] = np.searchsorted(times, at[late])
    by = _by_object(feed_obj[lines], len(compiled.ids))
    slots, lines, at, late, after = slots[by], lines[by], at[by], late[by], after[by]
    kinds, acted = schedule.codes[slots], feed_obj[lines]
    reached = landed[lines]
    late = np.flatnonzero(late)
    reached[late] = np.searchsorted(keys, acted[late] * (count + 2) + after[late])
    reached += at > horizon
    # Per row, the end of its object's actions up to its time: those that
    # reach it or an earlier row; its gap starts where the lane's previous
    # one ended (every object has a lane).
    stops = cuts = np.cumsum(np.bincount(reached, minlength=len(keys) + 1))[
        :len(keys)]
    first = np.append(True, objs[1:] != objs[:-1])[:len(objs)]
    counts = np.bincount(acted, minlength=len(compiled.ids))
    starts = np.roll(cuts, 1)
    starts[first] = firsts = np.cumsum(counts) - counts
    wiped = None
    crashes = np.flatnonzero(crash)
    if len(crashes):
        # A crash at an action's time sorts after it, at a request's
        # before it: a gap ends at the first crash since the previous row.
        epochs = np.searchsorted(schedule.at[crashes], np.append(
            times, horizon)[keys % (count + 2)], "right")
        before = np.where(first, 0, np.roll(epochs, 1))
        wiped = epochs > before
        span = len(schedule.at) + 1
        stops = cuts.copy()
        stops[wiped] = np.searchsorted(acted * span + slots, objs[wiped] * span
                                       + crashes[before[wiped]])
    sends = (kinds == code(ATTEMPT_SENT)) | (kinds == code(ATTEMPT_LOST))
    charged = np.cumsum(np.append(0, sends))
    delivers = kinds == code(DELIVER)
    reach = np.maximum.accumulate(np.append(0, np.where(
        delivers, places[lines] + 1, mod_lo[acted])))
    # A lane's gaps tile its actions up to the flush but where a crash cuts
    # one short; its first is resident iff preloaded, and cacheable.
    heads = np.flatnonzero(first)
    tails = np.append(heads[1:], len(objs)) - 1
    cacheable = np.array(compiled.cacheable, dtype=bool)

    def counted(prefix: "np.ndarray[Any, Any]") -> tuple[int, int]:
        ends = prefix[cuts[heads]]
        later = prefix[cuts[tails]].sum() - ends.sum()
        then = (ends - prefix[firsts])[cacheable].sum()
        if wiped is not None:
            lost = prefix[cuts[wiped]] - prefix[stops[wiped]]
            later -= lost[~first[wiped]].sum()
            then -= lost[(first & cacheable[objs])[wiped]].sum()
        return int(later), int(then)

    return LaneActions(
        guard=(reach[stops] - mod_lo[objs] - 1)[rank],
        wiped=None if wiped is None else wiped[rank], starts=starts[rank],
        stops=stops[rank], charged=charged, reach=reach, sent=counted(charged),
        delivered=counted(np.cumsum(np.append(0, delivers))))


class CacheState:
    """The proxy cache as parallel arrays (one slot per server object).

    Mirrors exactly the :class:`~repro.core.cache.CacheEntry` fields the
    protocols and the simulator consult — the fields a protocol method
    may touch and still be lowered onto these arrays
    (:mod:`repro.fastpath.specialise` derives that set from the slots
    below).  ``expires_at`` is whatever ``on_stored`` stamps (None
    included, as for a fresh ``CacheEntry``).
    """

    __slots__ = (
        "resident",
        "valid",
        "version",
        "validated_at",
        "last_modified",
        "has_server_expires",
        "server_expires",
        "expires_at",
    )

    def __init__(self, count: int) -> None:
        self.resident = [False] * count
        self.valid = [False] * count
        self.version = [0] * count
        self.validated_at = [0.0] * count
        self.last_modified = [0.0] * count
        self.has_server_expires = [False] * count
        self.server_expires = [0.0] * count
        self.expires_at: list[Optional[float]] = [0.0] * count

    def copy(self) -> "CacheState":
        """A state no write to which is visible through this one."""
        clone = CacheState.__new__(CacheState)
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name)[:])
        return clone


class LaneState:
    """A lockstep run's :class:`CacheState`: the same fields, gathered by
    lane (:class:`StepView`) into numpy arrays.  The lowered methods of a
    lockstep kernel read and write these.  A run that is ``delivering``
    the server's feed keeps ``valid`` of its own; in any other an entry
    is valid iff it is resident, and ``valid`` is ``resident``."""

    __slots__ = CacheState.__slots__

    resident: "np.ndarray[Any, Any]"
    valid: "np.ndarray[Any, Any]"
    version: "np.ndarray[Any, Any]"
    validated_at: "np.ndarray[Any, Any]"
    last_modified: "np.ndarray[Any, Any]"
    has_server_expires: "np.ndarray[Any, Any]"
    server_expires: "np.ndarray[Any, Any]"
    expires_at: "np.ndarray[Any, Any]"

    def __init__(self, state: CacheState, lanes: "np.ndarray[Any, Any]",
                 delivering: bool) -> None:
        for name in self.__slots__:
            setattr(self, name, np.array(getattr(state, name))[lanes])
        if not delivering:
            self.valid = self.resident

    def copy(self, delivering: bool) -> "LaneState":
        """A state no write to which is visible through this one, for a
        run that is or is not ``delivering``."""
        clone = LaneState.__new__(LaneState)
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name).copy())
        if not delivering:
            clone.valid = clone.resident
        return clone


def lane_state(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    lanes: "np.ndarray[Any, Any]", state: CacheState, start_time: float,
    preload: bool, delivering: bool,
) -> LaneState:
    """``state`` by lane (:class:`LaneState`) for a stepping run over the
    stream whose :func:`step_view` ``lanes`` are.

    ``state`` is :func:`initial_state`'s for ``(start_time, preload)``,
    and by the time a run gathers it the kernel has written only
    ``expires_at`` (a lowered ``on_stored`` writes nothing else).  So
    every other field is the same for every such run, ``valid`` equal to
    ``resident`` whether the run is ``delivering`` or not: for the
    arrays :func:`encode_requests` last remembered, the gathered state
    is kept as a template for the last ``(start_time, preload)``, and
    each run gets a copy with its own ``expires_at``.
    """
    by_lane = _lane_template(compiled, req_times, req_objs, lanes, state,
                             start_time, preload).copy(delivering)
    by_lane.expires_at = np.array(state.expires_at)[lanes]
    return by_lane


@_per_stream(lambda lanes, state, start_time, preload: (start_time, preload))
def _lane_template(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    lanes: "np.ndarray[Any, Any]", state: CacheState, start_time: float,
    preload: bool,
) -> LaneState:
    """The gathered state :func:`lane_state` copies."""
    return LaneState(state, lanes, True)


def by_object(lanes: "np.ndarray[Any, Any]",
              column: "np.ndarray[Any, Any]") -> list[Any]:
    """A column by lane (:class:`StepView`; every object has one) as a
    list by object, of Python's numbers."""
    values = np.empty_like(column)
    values[lanes] = column
    return values.tolist()


def write_back(
    cache: Cache,
    compiled: CompiledServer,
    state: CacheState,
    order: Iterable[int],
    fetched_at: list[float],
    evictions: int,
) -> None:
    """Leave in ``cache`` — empty when the run began — what the reference
    run would have left there.

    ``order`` holds the resident indices in the cache's own order (the
    front is evicted next), which is exactly the order a reference run
    leaves its entries in: a store appends at the back and an LRU lookup
    moves the entry there.  So the entries are stored in that order
    through the cache's own ``store``, and its order and byte count come
    out as the run left them.  Nothing is published — the kernel
    publishes the run's metrics itself, after this — and everything
    fits, so nothing is evicted twice.
    """
    ids = compiled.ids
    previous = obs_metrics.install(None)
    try:
        for i in order:
            cache.store(CacheEntry(
                ids[i], state.version[i], compiled.sizes[i],
                compiled.file_types[compiled.file_type[i]], fetched_at[i],
                state.validated_at[i], state.last_modified[i],
                state.valid[i], state.expires_at[i],
                state.server_expires[i] if state.has_server_expires[i]
                else None,
            ))
    finally:
        obs_metrics.install(previous)
    cache.evictions += evictions


#: Per compiled server, so per server and with its lifetime: the
#: preloaded state as of the last ``start_time``.
_TEMPLATES: (
    "weakref.WeakKeyDictionary[CompiledServer, tuple[float, CacheState]]"
) = weakref.WeakKeyDictionary()


def initial_state(
    compiled: CompiledServer, start_time: float, preload: bool
) -> CacheState:
    """Cache-state arrays as of ``start_time``.

    With ``preload`` (the paper's configuration) every cacheable object
    enters resident and valid, stamped validated at ``start_time`` with
    the origin's Last-Modified at that instant — exactly what
    :meth:`Cache.preload_from` builds.  The protocol's ``on_stored``
    stamp is applied by the kernel (it depends on protocol parameters).
    The preloaded arrays are built once per ``start_time``; every call
    gets its own copy, so no run sees another's writes.
    """
    count = len(compiled.ids)
    if not preload:
        return CacheState(count)
    memo = _TEMPLATES.get(compiled)
    if memo is not None and memo[0] == start_time:
        return memo[1].copy()
    state = CacheState(count)
    versions, stamps = _columns(compiled, [start_time] * count, range(count))
    for i in range(count):
        if not compiled.cacheable[i]:
            continue
        state.resident[i] = True
        state.valid[i] = True
        state.version[i] = versions[i]
        state.validated_at[i] = start_time
        state.last_modified[i] = stamps[i]
        if compiled.has_expires[i]:
            state.has_server_expires[i] = True
            state.server_expires[i] = start_time + compiled.expires_after[i]
    _TEMPLATES[compiled] = (start_time, state)
    return state.copy()


#: The stream by object (:func:`stream_view`): per object index the end
#: of its rows, then per row its time, object, version and Last-Modified,
#: then the request position each row came from.
StreamView = tuple[list[int], list[float], tuple[int, ...], "array[int]",
                   "array[float]", "array[int]"]


@dataclass(frozen=True, eq=False)
class StepView:
    """The stream by step (:func:`step_view`): step ``k`` holds the
    ``k``-th request of every cacheable object requested more than ``k``
    times, one *lane* per object.  Lanes are objects in descending order
    of the requests they hold (ties by index), so step ``k``'s lanes are
    the prefix ``[0, widths[k])`` and its rows the slice that starts
    where step ``k - 1``'s ends.  Every object has a lane — one no step
    holds still takes the feed up to the horizon — but a non-cacheable
    object's requests are in no step: each is a dynamic fetch, counted
    here."""

    #: Per lane, its object index: every object's.
    lanes: "np.ndarray[Any, Any]"
    #: Per step, how many lanes it holds.
    widths: list[int]
    #: Per row, step-major: its time, the origin's version and
    #: Last-Modified then, and the request position it came from.
    times: "np.ndarray[Any, Any]"
    versions: "np.ndarray[Any, Any]"
    stamps: "np.ndarray[Any, Any]"
    positions: "np.ndarray[Any, Any]"
    #: Per lane, its object's Expires lifetime and whether it has one, and
    #: where its modifications start in ``mod_times``.
    expires_after: "np.ndarray[Any, Any]"
    has_expires: "np.ndarray[Any, Any]"
    mod_lo: "np.ndarray[Any, Any]"
    mod_times: "np.ndarray[Any, Any]"
    #: Per modification, in ``mod_times`` order, its object's lane.
    mod_lanes: "np.ndarray[Any, Any]"
    #: The requests for non-cacheable objects, and their bodies' bytes.
    dynamic: int
    dynamic_bytes: int
    #: Per row, then one per lane for the trailing flush (int32 where
    #: exact): its lane's size and ``mod_lo``, which a run's tallies are
    #: folded with after its loop, and its version less its lane's previous
    #: row's — a first row's less 0, a flush row's version taken as 0.
    row_sizes: "np.ndarray[Any, Any]"
    row_mod_lo: "np.ndarray[Any, Any]"
    gaps: "np.ndarray[Any, Any]"


@dataclass(frozen=True, eq=False)
class PreloadView:
    """A skipping run's preloaded copies (:func:`preload_view`).  Per lane
    — a cacheable object the stream requests, in object order — its
    object, where its rows start and end in the stream by object, its
    first row whose version is newer than the copy's (its end, if none)
    and when that change happened; per row its time, request position and
    ``object * span + time`` (ascending); per lane ``object * span``; per
    object and one past the last, its first row to decide if no run is
    counted; the state by lane, whose ``expires_at`` a run stamps."""

    lanes: "np.ndarray[Any, Any]"
    starts: "np.ndarray[Any, Any]"
    ends: "np.ndarray[Any, Any]"
    changed: "np.ndarray[Any, Any]"
    since: "np.ndarray[Any, Any]"
    times: "np.ndarray[Any, Any]"
    positions: "np.ndarray[Any, Any]"
    keys: "np.ndarray[Any, Any]"
    offsets: "np.ndarray[Any, Any]"
    decided: "np.ndarray[Any, Any]"
    state: LaneState


def _columns(
    compiled: CompiledServer, req_times: Sequence[float], req_objs: Sequence[int]
) -> _Columns:
    """Per request, ``version_at(t)`` and ``last_modified_at(t)`` of its
    object, each column ending in one sentinel for the trailing flush
    (:func:`initial_state` reads them at one time for every object)."""
    mod_times = compiled.mod_times
    mod_lo = compiled.mod_lo
    mod_count = compiled.mod_count
    created = compiled.created
    versions: list[int] = []
    stamps: list[float] = []
    for t, i in zip(req_times, req_objs):
        lo = mod_lo[i]
        # A modification at exactly t is already visible at t.
        v = bisect_right(mod_times, t, lo, lo + mod_count[i]) - lo
        versions.append(v)
        stamps.append(created[i] if v == 0 else mod_times[lo + v - 1])
    versions.append(0)
    stamps.append(0.0)
    return versions, stamps


def stream_columns(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int]
) -> _Columns:
    """The origin's version of each request's object at the request time,
    and that version's Last-Modified (its creation time at version 0).

    Each column holds one entry per request plus one sentinel, the row
    of the trailing ``end_time`` flush.  The arrays :func:`encode_requests`
    last remembered for ``compiled`` get the columns built with them;
    any others get columns built for this call alone.
    """
    memo = _kept(compiled, req_times, req_objs)
    if memo is not None:
        return memo.columns
    return _columns(compiled, req_times, req_objs)


@_per_stream()
def stream_view(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    columns: _Columns,
) -> StreamView:
    """The stream and its ``columns`` by object: rows in object-then-time
    order (:func:`_order`), object ``i``'s ending at ``ends[i]``, then each
    row's request position.  The times are floats made in object order,
    next to each other rather than wherever the stream's own lie, so that
    a bisect compares them without making any; the other columns are
    packed machine values (eight bytes a row), each made as it is read.
    Kept with the stream (:func:`_per_stream`)."""
    count = len(req_objs)
    counts = _counts(compiled, req_times, req_objs)
    order = _order(compiled, req_times, req_objs)
    ends = np.cumsum(counts).tolist()

    def rows(code: str, column: "np.ndarray[Any, Any]") -> "array[Any]":
        return array(code, column[order].tobytes())

    versions, stamps = columns  # their sentinel row is no request's
    # A tuple, one index object per object: a run reads its row number
    # off this column's iterator.
    return (ends, np.fromiter(req_times, np.float64, count)[order].tolist(),
            tuple(chain.from_iterable(map(repeat, range(len(ends)),
                                          counts.tolist()))),
            rows("q", np.fromiter(versions, np.int64, count)),
            rows("d", np.fromiter(stamps, np.float64, count)),
            rows("q", np.arange(count, dtype=np.int64)))


@_per_stream()
def preload_view(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    view: StreamView, state: CacheState,
) -> PreloadView:
    """The preloaded copies (:class:`PreloadView`) over the stream by
    object ``view`` (:func:`stream_view`'s), ``state`` holding them as
    preloaded at the stream's ``start_time``; kept with the stream."""
    ends, r_times, _, r_versions, _, positions = view
    object_ends = np.array(ends, dtype=np.int64)
    counts = np.diff(object_ends, prepend=0)
    lanes = np.flatnonzero((counts > 0) & np.array(state.resident, dtype=bool))
    starts, lane_ends = (object_ends - counts)[lanes], object_ends[lanes]
    # Every row is at start_time or later: no version below the copy's.
    bounds = list(zip(lanes.tolist(), starts.tolist(), lane_ends.tolist()))
    changed = [bisect_right(r_versions, state.version[i], start, end)
               for i, start, end in bounds]
    since = [compiled.mod_times[compiled.mod_lo[i] + state.version[i]]
             if row < end else 0.0 for (i, _, end), row in zip(bounds, changed)]
    times = np.array(r_times)
    # Rows ascend by object, then time; |time| < span / 2 keeps objects apart.
    span = 2.0 * (float(np.abs(times).max(initial=0.0)) + 1.0)
    return PreloadView(
        lanes=lanes, starts=starts, ends=lane_ends,
        changed=np.array(changed, dtype=np.int64),
        since=np.array(since, dtype=np.float64),
        times=times, positions=np.frombuffer(positions, dtype=np.int64),
        keys=np.repeat(np.arange(len(ends)) * span, counts) + times,
        offsets=lanes * span,
        decided=np.append(np.where(counts > 0, object_ends - counts,
                                   len(times)), len(times)),
        state=LaneState(state, lanes, False),
    )


@_per_stream()
def busiest(compiled: CompiledServer, req_times: list[float],
            req_objs: list[int]) -> int:
    """The most requests any one cacheable object gets in the stream: how
    many steps :func:`step_view` takes.  Read off the stream's counts, so
    a run that walks sorts nothing; kept with the stream."""
    return int(np.where(compiled.cacheable, _counts(
        compiled, req_times, req_objs), 0).max(initial=0))


@_per_stream()
def step_view(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    columns: _Columns,
) -> StepView:
    """The stream and its ``columns`` by step (:class:`StepView`), cut from
    the stream by object (:func:`_order`); kept with the stream."""
    counts = _counts(compiled, req_times, req_objs)
    cacheable = np.array(compiled.cacheable, dtype=bool)
    lane_counts = np.where(cacheable, counts, 0)  # a non-cacheable object's
    lanes = np.argsort(-lane_counts, kind="stable")  # rows are in no step
    ranked = lane_counts[lanes]  # descending
    # Step k holds every lane with more than k requests; its rows start
    # where step k - 1's end.
    widths = np.searchsorted(-ranked, -np.arange(ranked.max(initial=0)))
    starts = np.cumsum(widths) - widths
    lane_of = np.empty_like(lanes)
    lane_of[lanes] = np.arange(len(lanes))
    # The stream by object, a cacheable object's rows: a row's rank among
    # its object's is its step, and its object's lane its place in that
    # step.  (Each stream long temporary is dropped once it has served.)
    objs = np.repeat(np.arange(len(lanes)), lane_counts)
    slots = starts[np.arange(len(objs)) - np.repeat(
        np.cumsum(lane_counts) - lane_counts, lane_counts)]
    slots += lane_of[objs]
    del objs
    positions = np.empty(len(slots), dtype=np.int64)
    positions[slots] = _order(compiled, req_times, req_objs)[
        np.repeat(cacheable, counts)]
    del slots
    # Versions and places in mod_times are at most len(mod_times), plus one.
    index = np.int32 if len(compiled.mod_times) < (1 << 31) - 1 else np.int64
    versions, stamps = columns
    versions = np.array(versions, dtype=index)[positions]
    sizes = np.array(compiled.sizes, dtype=np.int64)
    mod_lo = np.array(compiled.mod_lo, dtype=np.int64)[lanes]
    dynamic = counts - lane_counts  # each request a fetch of its own
    rows = len(positions)
    row_lanes = np.append(np.arange(rows) - np.repeat(starts, widths),
                          np.arange(len(lanes)))
    # A row of step k >= 1 follows its lane's row of step k - 1, one step's
    # width before it; a lane's last row is in the step before its count.
    gaps = np.append(versions, np.zeros(len(lanes), dtype=index))
    later = np.arange(widths[0] if rows else 0, rows)
    gaps[later] -= versions[later - np.repeat(widths[:-1], widths[1:])]
    requested = np.flatnonzero(ranked)
    gaps[rows + requested] -= versions[starts[ranked[requested] - 1] + requested]
    return StepView(
        lanes=lanes,
        widths=widths.tolist(),
        times=np.array(req_times, dtype=np.float64)[positions],
        versions=versions,
        stamps=np.array(stamps, dtype=np.float64)[positions],
        positions=positions,
        expires_after=np.array(compiled.expires_after, dtype=np.float64)[lanes],
        has_expires=np.array(compiled.has_expires, dtype=bool)[lanes],
        mod_lo=mod_lo,
        mod_times=np.array(compiled.mod_times, dtype=np.float64),
        mod_lanes=np.repeat(lane_of, compiled.mod_count),
        dynamic=int(dynamic.sum()),
        dynamic_bytes=int((dynamic * sizes).sum()),
        row_sizes=sizes[lanes][row_lanes].astype(
            np.int32 if sizes.max(initial=0) < 1 << 31 else np.int64),
        row_mod_lo=mod_lo[row_lanes].astype(index),
        gaps=gaps,
    )


#: Per request position, is its object resident just before it; the final
#: order, front first; the evictions (:func:`lru_residency`).
Residency = tuple["np.ndarray[Any, Any]", "OrderedDict[int, None]", int]


@_per_stream(lambda capacity, preload: (capacity, preload))
def lru_residency(
    compiled: CompiledServer, req_times: list[float], req_objs: list[int],
    capacity: float, preload: bool,
) -> Residency:
    """What an LRU cache of ``capacity`` bytes holds over the stream, the
    ``preload`` first (every cacheable object, in server order): every
    request for a cacheable object leaves it at the back of the order, a
    lookup or a store alike, and evictions come from the front, so this
    is the reference string's, whatever the protocol decides (Mattson et
    al.'s stack property).  One pass with the walk's store, touch and
    evict; kept, for the arrays :func:`encode_requests` last remembered,
    for the last ``(capacity, preload)``.

    Raises:
        ValueError: for an object larger than ``capacity`` that would be
            stored (the walk's message).
    """
    ids, sizes, cacheable = compiled.ids, compiled.sizes, compiled.cacheable
    order: OrderedDict[int, None] = OrderedDict()
    evict = order.popitem
    used = evictions = 0

    def store(i: int) -> None:
        nonlocal used, evictions
        if sizes[i] > capacity:
            raise ValueError(f"entry {ids[i]!r} ({sizes[i]} B) exceeds cache "
                             f"capacity ({capacity} B)")
        order[i] = None
        used += sizes[i]
        while used > capacity:
            used -= sizes[evict(False)[0]]
            evictions += 1

    if preload:
        for i in range(len(ids)):
            if cacheable[i]:
                store(i)
    held = bytearray(len(req_objs))
    touch = order.move_to_end
    for k, i in enumerate(req_objs):
        if i in order:
            held[k] = 1
            touch(i)
        elif cacheable[i]:
            store(i)
    return np.frombuffer(held, dtype=bool), order, evictions


def encode_requests(
    compiled: CompiledServer,
    requests: Iterable[tuple[float, str]],
    start_time: float,
) -> _Stream:
    """The request stream as parallel (times, object-index) arrays.

    Validation replays the reference :meth:`Simulation.step` checks with
    identical exception types and messages.  The same list (or tuple)
    *object* at the same length and ``start_time`` gets the arrays of
    its last successful encoding back — the runs of one stream are
    consecutive in every sweep — so callers treat them as read-only; an
    iterator is encoded every time, and a failure is never remembered.
    A remembered stream's :func:`stream_columns` are built here, once.

    Raises:
        ValueError: when the stream is not time-ordered (the reference
            simulator's message, byte for byte).
        UnknownObjectError: when a request names an object the server
            does not hold.
    """
    memo = _STREAMS.get(compiled)
    if memo and memo.requests is requests and memo.key == (
            len(requests), start_time):
        return memo.arrays
    times: list[float] = []
    objs: list[int] = []
    index = compiled.index
    now: float = float(start_time)
    for t, oid in requests:
        if t < now:
            raise ValueError(
                f"request at {t!r} precedes current time {now!r}; "
                "request streams must be time-ordered"
            )
        now = t
        obj = index.get(oid)
        if obj is None:
            raise UnknownObjectError(oid)
        times.append(t)
        objs.append(obj)
    if isinstance(requests, (list, tuple)):
        _STREAMS[compiled] = _Memo(requests, (len(times), start_time),
                                   (times, objs), _columns(compiled, times, objs))
    return times, objs

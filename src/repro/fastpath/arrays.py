"""Array compilation: origin servers and request streams as flat arrays.

The reference simulator walks a graph of Python objects per request —
``Cache`` → ``CacheEntry``, ``OriginServer`` → ``ObjectHistory`` →
``ModificationSchedule`` — paying an attribute lookup or a method call
for every hop.  The fast path compiles that graph *once* per server
into parallel arrays indexed by a dense object index:

* population arrays (:class:`CompiledServer`) — sizes, cacheability,
  creation times, Expires lifetimes, and every modification schedule
  flattened into one sorted ``mod_times`` array with per-object
  ``[mod_lo, mod_lo + mod_count)`` slices, so "version at time t" is
  a single bounded :func:`bisect.bisect_right`;
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
index), the last encoded request stream (:func:`encode_requests`) and
the preloaded state template (:func:`initial_state`, which hands each
run its own copy).

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

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.server import OriginServer, UnknownObjectError
from repro.faults.plan import ActionColumns, FaultPlan


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
    for oid, history in server.histories().items():
        obj = history.obj
        index[oid] = len(ids)
        ids.append(oid)
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
    )


#: What a crash slot holds in the ``keys`` column of an index-keyed
#: schedule: crashes concern no object.
NO_OBJECT = -1

_ScheduleKey = tuple[FaultPlan, float, bool]

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

    A frozen plan is its own key.  Only the last schedule per server is
    kept — the runs of one plan over one workload are consecutive in
    every sweep — so the memo holds one schedule's columns per server.
    Protocols without callbacks (``wants_feed`` False) get the schedule
    of an empty feed: the plan's crashes.
    """
    key = (plan, start_time, wants_feed)
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


class CacheState:
    """The proxy cache as parallel arrays (one slot per server object).

    Mirrors exactly the :class:`~repro.core.cache.CacheEntry` fields the
    protocols and the simulator consult — the fields a protocol method
    may touch and still be lowered onto these arrays
    (:mod:`repro.fastpath.specialise` derives that set from the slots
    below).  ``expires_at`` is whatever ``on_stored`` stamps.
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
        self.expires_at = [0.0] * count

    def copy(self) -> "CacheState":
        """A state no write to which is visible through this one."""
        clone = CacheState.__new__(CacheState)
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name)[:])
        return clone


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
    mod_times = compiled.mod_times
    for i in range(count):
        if not compiled.cacheable[i]:
            continue
        lo = compiled.mod_lo[i]
        version = bisect_right(
            mod_times, start_time, lo, lo + compiled.mod_count[i]
        ) - lo
        state.resident[i] = True
        state.valid[i] = True
        state.version[i] = version
        state.validated_at[i] = start_time
        state.last_modified[i] = (
            compiled.created[i] if version == 0 else mod_times[lo + version - 1]
        )
        if compiled.has_expires[i]:
            state.has_server_expires[i] = True
            state.server_expires[i] = start_time + compiled.expires_after[i]
    _TEMPLATES[compiled] = (start_time, state)
    return state.copy()


_Stream = tuple[list[float], list[int]]

#: Per compiled server: the last successfully encoded list or tuple —
#: held, so its identity cannot be recycled — the ``(length,
#: start_time)`` it was encoded at, and its arrays.
_STREAMS: (
    "weakref.WeakKeyDictionary[CompiledServer, "
    "tuple[Sequence[tuple[float, str]], tuple[int, float], _Stream]]"
) = weakref.WeakKeyDictionary()


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

    Raises:
        ValueError: when the stream is not time-ordered (the reference
            simulator's message, byte for byte).
        UnknownObjectError: when a request names an object the server
            does not hold.
    """
    memo = _STREAMS.get(compiled)
    if memo and memo[0] is requests and memo[1] == (len(memo[0]), start_time):
        return memo[2]
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
        _STREAMS[compiled] = (requests, (len(times), start_time), (times, objs))
    return times, objs

"""The live caching proxy.

One :class:`LiveProxy` stands between live clients and a
:class:`~repro.live.origin.LiveOrigin`, holding an *unmodified*
:class:`repro.core.cache.Cache` and delegating every freshness decision
to an unmodified :class:`~repro.core.protocols.base.ConsistencyProtocol`
instance.  It is an adapter over the one request transition,
:class:`repro.core.step.RequestStep` — the same code that accounts every
simulated request — so "live equals simulated" holds by construction for
every decision and every ledger cell; the live-vs-sim differential leg
(:mod:`repro.live.differential`) checks what is left, the I/O:

* the proxy reads the origin's modification feed over the wire once
  (:meth:`LiveProxy._subscribe`) and, before serving a request at time
  *t*, hands the step every line of it due for that object — or, under
  an installed :class:`~repro.faults.FaultPlan`, each action of the
  schedule compiled from the same feed;
* whatever exchange the step asks for (a plain GET, an If-Modified-Since,
  an eager push) is a real one upstream, and its reply's headers are
  converted once into the origin model's reply shape for the step to
  settle;
* the reply to the client is rendered from the outcome: ``X-Cache: HIT``
  for a fresh entry, ``REVALIDATED`` on a 304, ``MISS`` when the body
  moved (``Pragma: no-cache`` responses are forwarded, never stored).

Accounting is double-entry: the :class:`~repro.core.metrics
.BandwidthLedger` charges the paper's abstract
:class:`~repro.core.costs.MessageCosts` (so live and simulated ledgers
are comparable cell-for-cell), while :attr:`LiveProxy.wire_bytes`
separately tallies the *actual* bytes moved on sockets — the real
HTTP/1.0 framing overhead the 43-byte model abstracts away.

Locking discipline (RPR007-checked).  There is one rule — lock
granularity follows state scope:

* every request is processed under the **lock of its key**, and each
  key keeps its own request clock (a key's requests must be
  time-ordered; a clock running backwards is a hard error).  The key is
  the object id, so distinct objects interleave freely — per-object
  event timelines fully determine per-object cache state, and the run's
  counters are order-independent sums over them, which is why the
  differential oracle pins the totals exactly at any pool size;
* when state is *not* scoped to one object, every object maps to the
  same key (:func:`single_key`): protocols whose freshness decisions
  couple objects (``cross_object_state`` — the self-tuning
  per-file-type thresholds) and an installed fault plan (its schedule
  is one global timeline).  That is the same rule with one key, not a
  second mode; control exchanges take their own lock;
* every mutation of *shared* aggregates (counters, ledger, event log,
  wire tally, the journal) happens inside a short critical section
  under ``_state_lock`` — :meth:`_commit`, called once per request
  with the transaction's accumulated deltas.

Transactions make chaos survivable: a request's effects are staged in
a :class:`_Txn`, committed (journaled, then applied) *before* the reply
is sent, and the serialized reply is remembered under the request's
``X-Repro-Seq`` so an at-least-once transport (socket faults, proxy
restarts) gets exactly-once accounting — a retry of a committed
exchange replays the stored reply without touching state.  Upstream
exchanges are made idempotent the same way: deterministic per-object
sequence ids, journaled with the transaction, so even a proxy
SIGKILLed mid-request retries its origin fetches under the same ids
and the origin's counters cannot double-count.

Simulation time comes exclusively from ``Date`` headers — the proxy
never reads a wall clock (RPR001-scoped), which is what makes live
replays reproducible.
"""

from __future__ import annotations

import asyncio
import json
from bisect import bisect_right
from typing import Optional

from repro.core.cache import Cache, CacheEntry
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.metrics import BandwidthLedger, ConsistencyCounters
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import (
    SimulationResult,
    result_from_dict,
    result_to_dict,
)
from repro.core.server import FetchResult, NotModified
from repro.core.step import RequestStep, SimulatorMode
from repro.faults.plan import CRASH, FaultAction, FaultPlan
from repro.http.datefmt import HTTPDateError, parse_http_date
from repro.http.headers import CONTENT_LENGTH, CONTENT_TYPE, EXPIRES
from repro.http.messages import Request, Response, make_ok
from repro.live.journal import Journal
from repro.live.wire import (
    CONTROL_PREFIX,
    DATE,
    PRAGMA,
    SEQ_HEADER,
    TRACE_HEADER,
    WARMUP_HEADER,
    X_CACHE,
    ConnectionPool,
    LiveConnectionClosed,
    LiveReplayError,
    LiveServer,
    LiveWireError,
    ensure_integral,
    error_response,
    read_request,
    wants_keepalive,
    write_message,
)
from repro.obs import clock as obs_clock
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace

#: Cache-entry fields serialized into journal records, in constructor
#: order (``CacheEntry(**dict)`` must round-trip).
_ENTRY_FIELDS = (
    "object_id",
    "version",
    "size",
    "file_type",
    "fetched_at",
    "validated_at",
    "last_modified",
    "valid",
    "expires_at",
    "server_expires",
)


def _entry_dict(entry: CacheEntry) -> dict[str, object]:
    return {name: getattr(entry, name) for name in _ENTRY_FIELDS}


def _file_type(response: Response) -> str:
    return response.headers.get(CONTENT_TYPE) or "other"


def _fetch_result(object_id: str, response: Response) -> FetchResult:
    """A live 200 in the shape the origin model replies with.

    Every consistency-relevant field comes off the wire
    (``Last-Modified``, ``Content-Length``, ``Expires``).  Live entries
    carry no origin version number — staleness ground truth is the
    driver's job, via ``Last-Modified`` (which identifies the version
    one-for-one).
    """
    last_modified = response.headers.last_modified
    if last_modified is None:
        raise LiveWireError(
            f"200 response for {object_id!r} lacks Last-Modified"
        )
    return FetchResult(
        version=0,
        last_modified=last_modified,
        size=response.body_size,
        expires=response.headers.expires,
    )


def single_key(
    protocol: ConsistencyProtocol, faults: Optional[FaultPlan]
) -> bool:
    """True when every object must share one lock and one clock.

    Per-object keys are sound only while each request touches state
    scoped to its own object.  A protocol with ``cross_object_state``
    and a fault plan (one global delivery timeline) both break that, so
    the proxy serializes on a single key and the driver sends in global
    stream order — the two sides ask this one question.
    """
    return protocol.cross_object_state or faults is not None


class _Txn:
    """One request's staged effects, applied atomically at commit.

    Everything a request adds to *shared* state accumulates here while
    the request runs under its key's lock; :meth:`LiveProxy
    ._commit` folds it into the proxy — and the journal — in one short
    ``_state_lock`` critical section.  Cache entries and protocol state
    are mutated in place during processing (they are protected by the
    key lock that serialized this request); the transaction records
    which objects it may have touched so the journal can persist their
    post-state (``None`` for one not resident).
    """

    __slots__ = (
        "seq",
        "step",
        "counters",
        "bandwidth",
        "events",
        "touched",
        "cleared",
        "cursors",
        "clock",
        "fault_idx",
        "upstream",
        "trace",
        "upstream_wall",
    )

    def __init__(self, seq: Optional[str] = None) -> None:
        self.seq = seq
        self.counters = ConsistencyCounters()
        self.bandwidth = BandwidthLedger()
        self.events: list[tuple[str, float, str]] = []
        self.touched: set[str] = set()
        self.cleared = False
        self.cursors: dict[str, float] = {}
        #: ``(key, time)`` this request advances its key's clock to.
        self.clock: Optional[tuple[str, float]] = None
        self.fault_idx: Optional[int] = None
        #: Post-txn upstream sequence counters for objects this request
        #: fetched — staged here (not in the shared dict) so the journal
        #: never records another in-flight transaction's increments.
        self.upstream: dict[str, int] = {}
        #: Propagated X-Repro-Trace id (None when the client sent none).
        self.trace: Optional[str] = None
        #: Wall seconds spent in upstream object fetches, accumulated so
        #: the decision span can be reported net of upstream time.
        self.upstream_wall = 0.0
        #: The request transition over this transaction's deltas
        #: (installed by :meth:`LiveProxy._begin`).
        self.step: RequestStep

    def record(self, kind: str, t: float, object_id: str) -> None:
        """The step's event sink."""
        self.events.append((kind, t, object_id))


class LiveProxy(LiveServer):
    """An asyncio HTTP/1.0 caching proxy driven by a consistency protocol.

    Args:
        origin_host: address of the live origin.
        origin_port: port of the live origin.
        protocol: a *fresh* protocol instance (adaptive protocols carry
            state), used unmodified for every freshness decision.
        mode: base (unconditional refetch on expiry) or optimized
            (If-Modified-Since revalidation), as in the simulator.
        costs: the abstract byte cost model charged to the ledger.
        charge_per_modification: the Section 4.1 invalidation charging
            policy, identical in meaning to the simulator's knob.
        faults: replay this invalidation fault plan, compiled against
            the origin's feed, instead of the fault-free feed — like
            the simulator's ``faults=`` knob.  The schedule is a global
            timeline, so every object then shares one key
            (:func:`single_key`).
        journal: a :class:`~repro.live.journal.Journal` to write
            commit-before-reply transaction records to; see
            :meth:`restore`.
        upstream_attempts: retry budget for origin exchanges (used when
            a chaos relay sits on the upstream hop).  Origin fetches
            always carry deterministic per-object sequence ids, so the
            origin dedups its counting across these retries and across
            a restarted proxy re-executing an uncommitted request.
        trace: a per-role :class:`~repro.obs.trace.TraceSink` recording
            this proxy's causal trace — per-exchange parse / decision /
            upstream / commit / reply spans and recv/retry/restore
            marks, keyed on the client's propagated ``X-Repro-Trace``
            id (``docs/OBSERVABILITY.md``).  ``None`` (the default)
            records nothing and leaves the wire traffic untouched.

    Raises:
        LiveReplayError: for a fault plan whose delay/backoff is not
            wire-exact (whole seconds).
    """

    def __init__(
        self,
        origin_host: str,
        origin_port: int,
        protocol: ConsistencyProtocol,
        mode: SimulatorMode = SimulatorMode.OPTIMIZED,
        *,
        costs: MessageCosts = DEFAULT_COSTS,
        charge_per_modification: bool = True,
        faults: Optional[FaultPlan] = None,
        journal: Optional[Journal] = None,
        upstream_attempts: int = 1,
        trace: Optional[obs_trace.TraceSink] = None,
    ) -> None:
        super().__init__()
        #: The upstream hop: pooled keep-alive sockets.
        self._origin = ConnectionPool(
            origin_host, origin_port, hop="upstream", trace=trace
        )
        self.protocol = protocol
        self.mode = mode
        self.costs = costs
        self.charge_per_modification = bool(charge_per_modification)
        self.faults = faults
        self.upstream_attempts = max(1, int(upstream_attempts))
        if faults is not None:
            ensure_integral(faults.delay, "fault-plan delay")
            if faults.retries > 0:
                ensure_integral(faults.backoff, "fault-plan backoff")
        self.cache = Cache()
        self.counters = ConsistencyCounters()
        self.bandwidth = BandwidthLedger()
        #: Actual bytes moved on sockets (client side + origin side) —
        #: the live-only measurement the 43-byte model abstracts away.
        self.wire_bytes = 0
        #: Committed events, in commit order — the live counterpart of
        #: the simulator's observer stream.
        self.events: list[tuple[str, float, str]] = []
        self._now = 0.0
        self._warm_time = 0.0
        #: Per-object invalidation-feed cursors: the committed (and
        #: journaled) delivered-through marks.
        self._cursors: dict[str, float] = {}
        #: The origin's feed by object (modification times, in order).
        #: Read-only once :meth:`_subscribe` filled it — what has been
        #: delivered is the cursors' business.
        self._feed: dict[str, list[float]] = {}
        self._subscribed = False
        #: Per-key request clocks (the time-order check).
        self._clocks: dict[str, float] = {}
        #: Committed serialized replies by X-Repro-Seq (retry replay).
        self._done: dict[str, str] = {}
        #: Next upstream sequence number per object (idempotent fetches).
        self._upstream: dict[str, int] = {}
        self._fault_actions: tuple[FaultAction, ...] = ()
        self._fault_idx = 0
        self._journal = journal
        self._trace = trace
        self._state_lock = asyncio.Lock()
        self._control_lock = asyncio.Lock()
        self._feed_lock = asyncio.Lock()
        self._one_key = single_key(protocol, faults)
        self._key_locks: dict[str, asyncio.Lock] = {}

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        await self.start_server(self._handle, host, port)

    async def close(self) -> None:
        """Stop serving, then close the pooled upstream sockets: with
        no handler left, none can be checked back in behind the sweep."""
        await super().close()
        await self._origin.close()

    # -- warmup --------------------------------------------------------------

    async def warm(self, start_time: float) -> int:
        """Pre-load a valid copy of every cacheable origin object.

        The live counterpart of the paper's "cache is pre-loaded with
        valid copies of all the files" configuration
        (:meth:`repro.core.cache.Cache.preload_from`): real warmup-tagged
        GETs fetch each population object at ``start_time``; neither
        side counts or charges them.  With a journal installed, the
        warmed state is written as the journal's base records.

        Returns:
            The number of entries loaded.
        """
        warm_started = obs_clock.monotonic()
        listing = Request("GET", CONTROL_PREFIX + "population")
        _, body, _ = await self._origin_raw(listing)
        loaded = 0
        # Neither side counts or charges warm-up, so any step will do:
        # only its ``store`` (entry + protocol stamp) is used.
        store = self._begin().step.store
        for object_id in body.splitlines():
            request = Request("GET", object_id)
            request.headers.set_date(DATE, start_time)
            request.headers.set(WARMUP_HEADER, "1")
            response, _, _ = await self._origin_raw(request)
            if response.status != 200:
                raise LiveWireError(
                    f"warmup fetch of {object_id!r} returned "
                    f"{response.status}"
                )
            store(
                object_id, _file_type(response),
                _fetch_result(object_id, response), start_time,
            )
            loaded += 1
        self._now = float(start_time)
        self._warm_time = float(start_time)
        if self._journal is not None:
            self._journal.append(
                {
                    "kind": "config",
                    "protocol": self.protocol.name,
                    "mode": self.mode.value,
                    "charge_per_modification": self.charge_per_modification,
                }
            )
            self._journal.append(
                {
                    "kind": "warm",
                    "t": float(start_time),
                    "entries": [
                        _entry_dict(entry)
                        for entry in sorted(
                            self.cache, key=lambda e: e.object_id
                        )
                    ],
                }
            )
        obs_trace.span(
            "live.warmup",
            obs_clock.monotonic() - warm_started,
            entries=loaded,
        )
        return loaded

    # -- restore -------------------------------------------------------------

    async def restore(self) -> bool:
        """Rebuild state from the journal after a crash.

        Replays the journal's config/warm/txn records in order: cache
        entries, counters, ledger, events, cursors, clocks, committed
        replies (so retried in-flight requests replay rather than
        re-execute), upstream sequence ids, and the protocol's adaptive
        state — and, under a fault plan, the replay position in its
        schedule.  No origin is needed: the feed is read again by the
        first delivery that wants it (:meth:`_subscribe`), and the
        restored cursors say where in it each object resumes.

        Returns:
            True when the journal held records (the proxy is warm);
            False for an empty/missing journal (boot normally and
            :meth:`warm`).

        Raises:
            LiveReplayError: when the journal's config record does not
                match this proxy's configuration, or a record was
                written by the removed global-watermark sync
                (``last_sync``).
        """
        if self._journal is None:
            raise LiveReplayError("restore() needs a journal")
        restore_started = obs_clock.monotonic()
        records = self._journal.load()
        if not records:
            return False
        for record in records:
            kind = record.get("kind")
            if kind == "config":
                self._check_config(record)
            elif kind == "warm":
                self._restore_warm(record)
            elif kind == "txn":
                self._apply_record(record)
            else:
                raise LiveReplayError(f"unknown journal record kind {kind!r}")
        if self._trace is not None:
            self._trace.mark(
                "live.trace.restore",
                None,
                obs_clock.monotonic(),
                records=len(records),
            )
        obs_trace.span(
            "live.restore",
            obs_clock.monotonic() - restore_started,
            records=len(records),
        )
        return True

    def _check_config(self, record: dict[str, object]) -> None:
        mine = {
            "protocol": self.protocol.name,
            "mode": self.mode.value,
            "charge_per_modification": self.charge_per_modification,
        }
        for key, expected in mine.items():
            if record.get(key) != expected:
                raise LiveReplayError(
                    f"journal config mismatch for {key!r}: journal has "
                    f"{record.get(key)!r}, proxy has {expected!r}"
                )

    def _restore_warm(self, record: dict[str, object]) -> None:
        t = float(record["t"])  # type: ignore[arg-type]
        self._now = t
        self._warm_time = t
        entries = record.get("entries", [])
        assert isinstance(entries, list)
        for fields in entries:
            entry = CacheEntry(**fields)
            self.cache.store(entry)
            self.protocol.on_stored(entry, t)

    def _apply_record(self, record: dict[str, object]) -> None:
        """Replay one committed transaction from the journal."""
        if "last_sync" in record:
            # Written by the removed global-watermark sync.  Replaying
            # it against per-object cursors (all still at warm-up)
            # would re-deliver, and double-charge, every invalidation
            # since then.
            raise LiveReplayError(
                "journal record carries 'last_sync' (global-watermark "
                "invalidation sync, no longer supported); it cannot be "
                "restored onto per-object cursors"
            )
        seq = record.get("seq")
        if isinstance(seq, str):
            self._done[seq] = str(record.get("payload", ""))
        delta = result_from_dict(
            {
                "protocol_name": self.protocol.name,
                "mode": self.mode.value,
                "duration": 0.0,
                "counters": record.get("counters", {}),
                "bandwidth": record.get("ledger", {}),
            }
        )
        self.counters.merge(delta.counters)
        self.bandwidth.merge(delta.bandwidth)
        events = record.get("events", [])
        assert isinstance(events, list)
        for kind, t, oid in events:
            self.events.append((str(kind), float(t), str(oid)))
        if record.get("cleared"):
            self.cache.clear()
        entries = record.get("entries", {})
        assert isinstance(entries, dict)
        for object_id, fields in entries.items():
            if fields is None:
                self.cache.drop(object_id)
            else:
                self.cache.store(CacheEntry(**fields))
        cursors = record.get("cursors", {})
        assert isinstance(cursors, dict)
        for object_id, cursor in cursors.items():
            self._cursors[object_id] = float(cursor)
        if "now" in record:
            self._now = max(self._now, float(record["now"]))  # type: ignore[arg-type]
        clock = record.get("obj_now")
        if isinstance(clock, list):
            self._clocks[str(clock[0])] = float(clock[1])
        upstream = record.get("upstream", {})
        assert isinstance(upstream, dict)
        for object_id, n in upstream.items():
            self._upstream[object_id] = int(n)
        if "fault_idx" in record:
            self._fault_idx = int(record["fault_idx"])  # type: ignore[arg-type]
        state = record.get("state")
        if isinstance(state, dict):
            self.protocol.state_restore(state)

    # -- origin exchanges ----------------------------------------------------

    async def _origin_raw(
        self, request: Request
    ) -> tuple[Response, str, int]:
        """One upstream exchange through the pool, retried under a
        chaos-sized budget.

        The wire tally is charged for the attempt that completed.
        Retried requests carry whatever ``X-Repro-Seq`` the caller
        stamped, so the origin's counting dedups.
        """
        reply = await self._origin.request(
            request, attempts=self.upstream_attempts
        )
        self.wire_bytes += reply[2]
        return reply

    async def _origin_get(
        self,
        object_id: str,
        t: float,
        txn: _Txn,
        since: Optional[float] = None,
    ) -> Response:
        """One real GET (conditional when ``since`` is given) upstream."""
        request = Request("GET", object_id)
        request.headers.set_date(DATE, t)
        if since is not None:
            request.headers.set_date("If-Modified-Since", since)
        # Deterministic idempotency id: the k-th counted fetch of this
        # object.  Staged in the transaction and journaled with it at
        # commit, so a restarted proxy's re-execution of an uncommitted
        # request — and any chaos retry — reuses the same ids and the
        # origin cannot double-count.  (A SIGKILL can land after the
        # origin counted a fetch but before the transaction committed;
        # the restarted proxy then re-executes the request.)
        base = self._upstream.get(object_id, 0)
        k = txn.upstream.get(object_id, base)
        txn.upstream[object_id] = k + 1
        request.headers.set(SEQ_HEADER, f"{object_id}@{k}")
        if self._trace is not None and txn.trace is not None:
            # Propagate the client's trace id on the upstream hop so
            # the origin's spans join the same causal timeline.
            request.headers.set(TRACE_HEADER, txn.trace)
            fetch_started = obs_clock.monotonic()
            try:
                response, _, _ = await self._origin_raw(request)
            finally:
                txn.upstream_wall += obs_clock.monotonic() - fetch_started
        else:
            response, _, _ = await self._origin_raw(request)
        if response.status not in (200, 304):
            raise LiveWireError(
                f"origin returned {response.status} for {object_id!r}"
            )
        return response

    # -- invalidation delivery -----------------------------------------------

    @staticmethod
    def _parse_feed_line(line: str) -> tuple[float, str]:
        date_text, sep, object_id = line.partition("\t")
        if not sep:
            raise LiveWireError(f"bad invalidation feed line: {line!r}")
        try:
            mod_time = parse_http_date(date_text)
        except HTTPDateError as exc:
            raise LiveWireError(
                f"bad invalidation feed date: {date_text!r}"
            ) from exc
        return mod_time, object_id

    async def _subscribe(self) -> None:
        """Read the origin's modification feed — once per proxy lifetime.

        Run by the first delivery that needs the feed, never by
        :meth:`restore` (which must work against a dead origin); first
        requests arriving together queue on ``_feed_lock`` and find the
        work done.  One fetch, two consumers: a fault plan compiles the
        feed into its schedule exactly as ``Simulation.__init__`` does,
        the fault-free path keeps it as per-object queues.
        """
        async with self._feed_lock:
            if self._subscribed:
                return
            feed: list[tuple[float, str]] = []
            if self.protocol.wants_invalidations:
                fetch_started = obs_clock.monotonic()
                request = Request("GET", CONTROL_PREFIX + "feed")
                response, body, _ = await self._origin_raw(request)
                if response.status != 200:
                    raise LiveWireError(
                        f"feed endpoint returned {response.status}"
                    )
                feed = [
                    self._parse_feed_line(line) for line in body.splitlines()
                ]
                obs_trace.span(
                    "live.feed",
                    obs_clock.monotonic() - fetch_started,
                    events=len(feed),
                )
            if self.faults is not None:
                self._fault_actions = self.faults.compile(
                    feed, start_time=self._warm_time
                )
            else:
                for mod_time, object_id in feed:
                    self._feed.setdefault(object_id, []).append(mod_time)
            self._subscribed = True

    async def _prefetch(self, object_id: str, t: float, txn: _Txn) -> None:
        response = await self._origin_get(object_id, t, txn)
        txn.step.prefetched(
            object_id, t, _file_type(response),
            _fetch_result(object_id, response),
        )
        txn.touched.add(object_id)

    async def _deliver(
        self, until: float, txn: _Txn, object_id: Optional[str]
    ) -> None:
        """Deliver pending invalidations (or fault actions) up to
        ``until`` before serving at that time.

        ``object_id`` scopes delivery to the object being served;
        ``None`` (finish) delivers for every resident object.
        """
        if self.faults is None and not self.protocol.wants_invalidations:
            return
        if not self._subscribed:
            await self._subscribe()
        if self.faults is not None:
            # The injection seam, exactly as in the simulator: delivery
            # runs off the compiled schedule (possibly empty) and the
            # fault-free feed path is bypassed entirely.
            await self._replay_faults(until, txn)
        else:
            await self._sync(until, txn, object_id)

    async def _sync(
        self, until: float, txn: _Txn, object_id: Optional[str]
    ) -> None:
        """Deliver each object's ``(cursor, until]`` slice of the feed
        and advance its cursor; the only I/O is an eager push.

        Cursors are per object, not one watermark for the whole feed:
        two objects' syncs commute because each walks its own queue,
        and the feed events carry their modification times, so the
        committed event multiset is independent of the interleaving.
        They start at warm-up — the warmed entries already reflect
        anything earlier — and are staged in the transaction: a retried
        finish, or a request re-executed after a crash, finds them
        advanced and delivers nothing twice.
        """
        ids = (
            [entry.object_id for entry in self.cache]
            if object_id is None
            else [object_id]
        )
        due: list[tuple[float, str]] = []
        for oid in ids:
            cursor = self._cursors.get(oid, self._warm_time)
            if until <= cursor:
                continue
            txn.cursors[oid] = float(until)
            times = self._feed.get(oid, ())
            lo, hi = bisect_right(times, cursor), bisect_right(times, until)
            due += [(mod_time, oid) for mod_time in times[lo:hi]]
        # (time, id) is the order of the origin's feed.
        due.sort()
        for mod_time, oid in due:
            txn.touched.add(oid)
            if txn.step.deliver(mod_time, oid):
                await self._prefetch(oid, mod_time, txn)

    async def _replay_faults(self, until: float, txn: _Txn) -> None:
        """Hand the step every compiled action with a timestamp <=
        ``until``, staging what each touches for the journal."""
        actions = self._fault_actions
        idx = self._fault_idx
        n = len(actions)
        while idx < n and actions[idx].time <= until:
            action = actions[idx]
            idx += 1
            if action.kind == CRASH:
                txn.cleared = True
                txn.touched.clear()
            else:
                txn.touched.add(action.object_id)
            if txn.step.fault(action):
                await self._prefetch(action.object_id, action.time, txn)
        self._fault_idx = idx
        txn.fault_idx = idx

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._pin()
        try:
            while True:
                parse_started = obs_clock.monotonic()
                try:
                    request, received = await self._idle(
                        writer, read_request(reader)
                    )
                except LiveConnectionClosed:
                    break
                except LiveWireError as exc:
                    response, body = error_response(400, str(exc))
                    sent = await write_message(
                        writer, response.serialize(body)
                    )
                    await self._account_wire(sent)
                    break
                tid = request.headers.get(TRACE_HEADER)
                if self._trace is not None and tid is not None:
                    # Parse wall includes keep-alive idle time between
                    # requests — it measures request arrival-to-parsed,
                    # not CPU (docs/OBSERVABILITY.md).
                    recv_clk = obs_clock.monotonic()
                    self._trace.mark("live.trace.recv", tid, recv_clk)
                    self._trace.span(
                        "live.trace.parse",
                        recv_clk - parse_started,
                        {"trace": tid, "clk": recv_clk},
                    )
                keep = wants_keepalive(request)
                payload = await self._process(request)
                reply_started = obs_clock.monotonic()
                sent = await write_message(writer, payload)
                if self._trace is not None and tid is not None:
                    reply_clk = obs_clock.monotonic()
                    self._trace.span(
                        "live.trace.reply",
                        reply_clk - reply_started,
                        {"trace": tid, "clk": reply_clk},
                    )
                await self._account_wire(received + sent)
                if not keep:
                    break
        except asyncio.CancelledError:
            # Teardown must propagate: suppressing it would leave the
            # listener's close() waiting on this handler forever.
            raise
        except ConnectionError:
            await self._note_connection_error()
        finally:
            writer.close()

    async def _account_wire(self, nbytes: int) -> None:
        async with self._state_lock:
            self.wire_bytes += nbytes
            obs_metrics.observe("live.wire_bytes", float(nbytes))

    async def _process(self, request: Request) -> str:
        if request.method != "GET":
            response, body = error_response(
                400, f"unsupported method {request.method!r}"
            )
            return response.serialize(body)
        if request.path.startswith(CONTROL_PREFIX):
            return await self._process_control(request)
        return await self._process_object(request)

    async def _process_control(self, request: Request) -> str:
        async with self._control_lock:
            try:
                response, body = await self._control(request)
            except (LiveWireError, HTTPDateError) as exc:
                response, body = error_response(500, str(exc))
            return response.serialize(body)

    def _key(self, object_id: str) -> str:
        """The lock/clock key of ``object_id``: itself, or the one
        shared key (``""``, no object's id) under :func:`single_key`."""
        return "" if self._one_key else object_id

    async def _process_object(self, request: Request) -> str:
        key = self._key(request.path)
        lock = self._key_locks.get(key)
        if lock is None:
            lock = self._key_locks[key] = asyncio.Lock()
        async with lock:
            seq = request.headers.get(SEQ_HEADER)
            if seq is not None:
                committed = self._done.get(seq)
                if committed is not None:
                    # Exactly-once over at-least-once transport: the
                    # first arrival committed; replay its reply.
                    return committed
            txn = self._begin(seq)
            txn.trace = request.headers.get(TRACE_HEADER)
            traced = self._trace is not None and txn.trace is not None
            object_started = obs_clock.monotonic()
            try:
                response, body = await self._object(request, txn)
            except (LiveWireError, HTTPDateError) as exc:
                response, body = error_response(500, str(exc))
            if traced:
                assert self._trace is not None
                self._emit_decision_spans(
                    request, response, txn, object_started
                )
            payload = response.serialize(body)
            if response.status == 200:
                # Commit-before-reply: once the reply leaves, the
                # transaction is journaled and applied — a crash after
                # this point replays, never re-executes.
                commit_started = obs_clock.monotonic()
                await self._commit(txn, payload)
                if traced:
                    assert self._trace is not None
                    commit_clk = obs_clock.monotonic()
                    self._trace.span(
                        "live.trace.commit",
                        commit_clk - commit_started,
                        {"trace": txn.trace, "clk": commit_clk},
                    )
            return payload

    def _emit_decision_spans(
        self,
        request: Request,
        response: Response,
        txn: _Txn,
        object_started: float,
    ) -> None:
        """The per-exchange decision + upstream spans.

        The decision span is the cache-decision wall *net* of upstream
        fetch time; the proxy's one read of the origin's feed stays in
        the decision of the request that triggered it (and of any that
        waited on it) and is reported once as ``live.feed``.  For
        cache hits the meta carries the served copy's age at delivery,
        ``t - Last-Modified`` in simulation seconds — the live
        staleness-exposure distribution ``repro trace summarize``
        reports.
        """
        assert self._trace is not None
        clk = obs_clock.monotonic()
        verdict = response.headers.get(X_CACHE)
        meta: dict[str, object] = {
            "trace": txn.trace,
            "clk": clk,
            "object": request.path,
        }
        if verdict is not None:
            meta["verdict"] = verdict
        if verdict == "HIT":
            t = request.headers.get_date(DATE)
            last_modified = response.headers.last_modified
            if t is not None and last_modified is not None:
                meta["age"] = t - last_modified
        self._trace.span(
            "live.trace.decision",
            (clk - object_started) - txn.upstream_wall,
            meta,
        )
        if txn.upstream_wall > 0.0:
            self._trace.span(
                "live.trace.upstream",
                txn.upstream_wall,
                {"trace": txn.trace, "clk": clk, "object": request.path},
            )

    def _begin(self, seq: Optional[str] = None) -> _Txn:
        """A transaction whose step accounts into its own deltas."""
        txn = _Txn(seq)
        txn.step = RequestStep(
            self.cache,
            self.protocol,
            self.mode,
            self.costs,
            self.charge_per_modification,
            txn.counters,
            txn.bandwidth,
            txn.record,
        )
        return txn

    async def _commit(self, txn: _Txn, payload: str) -> None:
        """Fold one transaction into shared state (and the journal).

        The short critical section of the locking discipline: every
        mutation of cross-object aggregates happens here, under
        ``_state_lock``, after the request's work completed under its
        key's lock.
        """
        async with self._state_lock:
            if self._journal is not None:
                self._journal.append(self._txn_record(txn, payload))
            self.counters.merge(txn.counters)
            self.bandwidth.merge(txn.bandwidth)
            self.events.extend(txn.events)
            if txn.seq is not None:
                self._done[txn.seq] = payload
            if txn.clock is not None:
                self._clocks[txn.clock[0]] = txn.clock[1]
            for object_id, cursor in txn.cursors.items():
                self._cursors[object_id] = cursor
            for object_id, n in txn.upstream.items():
                self._upstream[object_id] = n

    def _txn_record(self, txn: _Txn, payload: str) -> dict[str, object]:
        """Serialize one transaction's deltas for the journal."""
        record: dict[str, object] = {"kind": "txn", "payload": payload}
        if txn.seq is not None:
            record["seq"] = txn.seq
        # The deltas in the codec's sparse form: zero cells stripped.
        delta = result_to_dict(
            SimulationResult(
                self.protocol.name, self.mode.value,
                txn.counters, txn.bandwidth,
            ),
            sparse=True,
        )
        if delta["counters"]:
            record["counters"] = delta["counters"]
        if delta["bandwidth"]:
            record["ledger"] = delta["bandwidth"]
        if txn.events:
            record["events"] = [list(event) for event in txn.events]
        if txn.cleared:
            record["cleared"] = True
        if txn.touched or txn.cleared:
            record["entries"] = {
                object_id: (
                    _entry_dict(entry) if entry is not None else None
                )
                for object_id in sorted(txn.touched)
                for entry in (self.cache.peek(object_id),)
            }
        if txn.cursors:
            record["cursors"] = dict(txn.cursors)
        record["now"] = self._now
        if txn.clock is not None:
            record["obj_now"] = list(txn.clock)
        if txn.upstream:
            # Only this transaction's (committed) counters: the shared
            # dict may hold increments staged by still-uncommitted
            # siblings, which a restore must not see.
            record["upstream"] = dict(txn.upstream)
        if txn.fault_idx is not None:
            record["fault_idx"] = txn.fault_idx
        state = self.protocol.state_snapshot()
        if state:
            record["state"] = state
        return record

    # -- control endpoints ---------------------------------------------------

    async def _control(self, request: Request) -> tuple[Response, str]:
        endpoint = request.path[len(CONTROL_PREFIX):]
        if endpoint == "stats":
            return self._stats()
        if endpoint == "warm":
            t = request.headers.get_date(DATE)
            if t is None:
                return error_response(
                    400, "warm needs a Date header (start time)"
                )
            loaded = await self.warm(t)
            body = f"{loaded}\n"
            response = Response(200, body_size=len(body))
            response.headers.set(CONTENT_LENGTH, str(len(body)))
            return response, body
        if endpoint == "finish":
            t = request.headers.get_date(DATE)
            if t is None:
                return error_response(
                    400, "finish needs a Date header (end time)"
                )
            if t < self._now:
                return error_response(
                    400,
                    f"finish time {t!r} precedes current time {self._now!r}",
                )
            # The simulator's finish(end_time): trailing invalidations
            # are still delivered (and charged) after the last request.
            # Idempotent — a retried finish finds every cursor already
            # advanced and delivers nothing.
            txn = self._begin()
            await self._deliver(t, txn, object_id=None)
            self._now = float(t)
            await self._commit(txn, "")
            body = "ok\n"
            response = Response(200, body_size=len(body))
            response.headers.set(CONTENT_LENGTH, str(len(body)))
            return response, body
        return error_response(404, f"unknown control endpoint {endpoint!r}")

    def _stats(self) -> tuple[Response, str]:
        # The totals as the codec writes a result, plus what only a
        # live run has.  ``duration`` is the driver's to fill in.
        payload: dict[str, object] = {
            **result_to_dict(
                SimulationResult(
                    self.protocol.name, self.mode.value,
                    self.counters, self.bandwidth,
                )
            ),
            "wire_bytes": self.wire_bytes,
            "connection_errors": self.connection_errors,
            "events": [list(event) for event in self.events],
            "protocol": self.protocol.name,
        }
        body = json.dumps(payload, sort_keys=True) + "\n"
        response = Response(200, body_size=len(body))
        response.headers.set(CONTENT_LENGTH, str(len(body)))
        response.headers.set(CONTENT_TYPE, "json")
        return response, body

    # -- one request: the shared step, with real exchanges in between -------

    async def _object(
        self, request: Request, txn: _Txn
    ) -> tuple[Response, str]:
        t = request.headers.get_date(DATE)
        if t is None:
            # Ad-hoc clients (curl) may omit Date; serve at the current
            # simulation time so exploration doesn't need header tooling.
            t = self._now
        object_id = request.path
        key = self._key(object_id)
        previous = self._clocks.get(key, self._warm_time)
        if t < previous:
            return error_response(
                400,
                f"clock ran backwards: request for {object_id!r} at "
                f"{t!r} precedes {previous!r}; each key's request "
                "stream must be time-ordered",
            )
        txn.clock = (key, float(t))
        self._now = max(self._now, float(t))
        await self._deliver(t, txn, object_id=object_id)
        obs_metrics.emit("live.requests")

        step = txn.step
        entry, fresh = step.begin(object_id, t)
        if entry is not None and fresh:
            # The proxy cannot know whether this hit is stale — that is
            # the point of weak consistency; the driver's audit
            # relabels stale hits from the origin's ground truth.
            step.hit(object_id, t)
            return self._serve_from_cache(entry, t, "HIT")
        txn.touched.add(object_id)
        if entry is None:
            response = await self._origin_get(object_id, t, txn)
            # ``Pragma: no-cache`` (dynamic content) is forwarded, never
            # stored.
            step.fetched(
                object_id, t, _file_type(response),
                _fetch_result(object_id, response),
                PRAGMA not in response.headers,
            )
            return self._forward(response, "MISS")
        response = await self._origin_get(
            object_id, t, txn, since=entry.last_modified
        )
        if response.status == 304:
            step.validated(
                entry, t, NotModified(expires=response.headers.expires)
            )
            return self._serve_from_cache(entry, t, "REVALIDATED")
        step.validated(entry, t, _fetch_result(object_id, response))
        return self._forward(response, "MISS")

    def _serve_from_cache(
        self, entry: CacheEntry, t: float, verdict: str
    ) -> tuple[Response, str]:
        response = make_ok(entry.size, last_modified=entry.last_modified)
        response.headers.set_date(DATE, t)
        response.headers.set(CONTENT_TYPE, entry.file_type)
        if entry.server_expires is not None:
            response.headers.set_date(EXPIRES, entry.server_expires)
        response.headers.set(X_CACHE, verdict)
        return response, "x" * entry.size

    def _forward(
        self, response: Response, verdict: str
    ) -> tuple[Response, str]:
        response.headers.set(X_CACHE, verdict)
        return response, "x" * response.body_size

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

Locking discipline (checked on this source by ``tests/lint/locks.py``).
There is one rule — lock granularity follows state scope:

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
is sent, and the reply's head and body length are remembered under the
request's ``X-Repro-Seq`` so an at-least-once transport (socket faults,
proxy restarts) gets exactly-once accounting — a retry of a committed
exchange gets the same bytes back without touching state.  The journal
holds what came in — the request and the upstream replies it read —
and :meth:`LiveProxy.restore` runs it again through the same code.
Upstream exchanges are made idempotent the same way: deterministic
per-object sequence ids, which re-execution derives again, so even a
proxy SIGKILLed mid-request retries its origin fetches under the same
ids and the origin's counters cannot double-count.

Simulation time comes exclusively from ``Date`` headers — the proxy
never reads a wall clock (no seeded package binds one:
``tests/test_loaded_code.py``), which is what makes live replays
reproducible.
"""

from __future__ import annotations

import asyncio
import json
from bisect import bisect_right
from collections import deque
from dataclasses import fields
from typing import Optional, cast

from repro.core.cache import Cache, CacheEntry
from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.metrics import BandwidthLedger, ConsistencyCounters
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult, result_to_dict
from repro.core.server import FetchResult, NotModified
from repro.core.step import RequestStep, SimulatorMode
from repro.faults.plan import FaultAction, FaultPlan
from repro.http.datefmt import HTTPDateError, format_http_date, parse_http_date
from repro.http.headers import (
    CONTENT_LENGTH,
    CONTENT_TYPE,
    EXPIRES,
    IF_MODIFIED_SINCE,
    LAST_MODIFIED,
)
from repro.http.messages import Request, Response, parse_response_head
from repro.live.journal import Journal
from repro.live.wire import (
    CONTROL_PREFIX,
    DATE,
    PRAGMA,
    SEQ_HEADER,
    TRACE_HEADER,
    X_CACHE,
    ConnectionPool,
    LiveConnectionClosed,
    LiveReplayError,
    LiveServer,
    LiveWireError,
    _head_value,
    ensure_integral,
    error_response,
    read_request,
    text_reply,
    wants_keepalive,
    write_message,
)
from repro.obs import clock as obs_clock
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace

def _replayed(reply: list) -> tuple[Response, str, int]:
    """An upstream reply as the journal keeps it, ``[head, body]``.

    The body is its text for a control endpoint and its length for an
    object, whose filler nobody reads.  A replayed reply moved no bytes.
    """
    head, body = reply
    status, headers, _ = parse_response_head(head)
    if isinstance(body, int):
        return Response(status, headers, body), "", 0
    return Response(status, headers, len(body)), body, 0


def _file_type(response: Response) -> str:
    return response.headers.get(CONTENT_TYPE) or "other"


def _population_entry(line: str) -> tuple[str, str, FetchResult]:
    """One ``population`` line — id, Last-Modified, Expires (empty when
    none), Content-Length, Content-Type — as a GET's head carries it."""
    try:
        object_id, last_modified, expires, size, file_type = line.split("\t")
        return object_id, file_type or "other", FetchResult(
            0, parse_http_date(last_modified), int(size),
            parse_http_date(expires) if expires else None,
        )
    except ValueError as exc:
        raise LiveWireError(f"bad population line: {line!r}") from exc


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


def _upstream_head(
    object_id: str,
    t: float,
    since: Optional[float],
    seq: str,
    trace: Optional[str],
) -> str:
    """An upstream GET's head, rendered straight from its fields:
    ``Date``, ``If-Modified-Since`` when validating, the idempotency id
    and, when traced, the client's trace id."""
    since_field = (
        f"{IF_MODIFIED_SINCE}: {format_http_date(since)}\r\n"
        if since is not None else ""
    )
    traced_field = f"{TRACE_HEADER}: {trace}\r\n" if trace is not None else ""
    return (
        f"GET {object_id} HTTP/1.0\r\n{DATE}: {format_http_date(t)}\r\n"
        f"{since_field}{SEQ_HEADER}: {seq}\r\n{traced_field}\r\n"
    )


def _cached_head(entry: CacheEntry, t: float, verdict: str) -> str:
    """The head of a reply served from ``entry``, rendered straight
    from its fields in the order the origin's 200 carries them."""
    expires = (
        f"{EXPIRES}: {format_http_date(entry.server_expires)}\r\n"
        if entry.server_expires is not None else ""
    )
    return (
        f"HTTP/1.0 200 OK\r\n{CONTENT_LENGTH}: {entry.size}\r\n"
        f"{LAST_MODIFIED}: {format_http_date(entry.last_modified)}\r\n"
        f"{DATE}: {format_http_date(t)}\r\n"
        f"{CONTENT_TYPE}: {entry.file_type}\r\n"
        f"{expires}{X_CACHE}: {verdict}\r\n\r\n"
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


class _Deltas:
    """The counters one step moved, and only those: a counter reads its
    default (a class attribute) until the step first adds to it, which
    makes it the instance's own — and :meth:`LiveProxy._commit` folds
    the instance's own."""


for _field in fields(ConsistencyCounters):
    setattr(_Deltas, _field.name, _field.default)


class _Charges(list[tuple[str, int, int]]):
    """The ledger charges one step made, ``(category, control, body)``
    each, in order; :meth:`LiveProxy._commit` makes each on the ledger."""

    def charge(self, category: str, control: int, body: int) -> None:
        self.append((category, control, body))


class _Txn:
    """One request's staged effects, applied atomically at commit.

    Everything a request adds to *shared* state accumulates here while
    the request runs under its key's lock — the counters and ledger
    charges its step moved, nothing else — and :meth:`LiveProxy
    ._commit` folds it into the proxy — and the journal — in one short
    ``_state_lock`` critical section.  Cache entries and protocol state
    are mutated in place during processing (they are protected by the
    key lock that serialized this request); the journal needs only the
    upstream replies the request read, to run it again.
    """

    __slots__ = (
        "seq",
        "step",
        "counters",
        "charges",
        "events",
        "cursors",
        "clock",
        "upstream",
        "replies",
        "trace",
        "upstream_wall",
    )

    def __init__(self, seq: Optional[str] = None) -> None:
        self.seq = seq
        self.counters = _Deltas()
        self.charges = _Charges()
        self.events: list[tuple[str, float, str]] = []
        self.cursors: dict[str, float] = {}
        #: ``(key, time)`` this request advances its key's clock to.
        self.clock: Optional[tuple[str, float]] = None
        #: Post-txn upstream sequence counters for objects this request
        #: fetched — staged here (not in the shared dict) so a failed
        #: request leaves the committed ids as they were.
        self.upstream: dict[str, int] = {}
        #: The upstream replies this request read, journaled with it
        #: (filled only when a journal is installed).
        self.replies: list[list[object]] = []
        #: Propagated X-Repro-Trace id (None when the client sent none
        #: or this proxy records no trace).
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
        journal: a :class:`~repro.live.journal.Journal` to write each
            committed request's inputs to, before its reply; see
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
        #: Committed replies as ``(head, body_size)`` by X-Repro-Seq.
        self._done: dict[str, tuple[str, int]] = {}
        #: Next upstream sequence number per object (idempotent fetches).
        self._upstream: dict[str, int] = {}
        self._fault_actions: tuple[FaultAction, ...] = ()
        self._fault_idx = 0
        self._journal = journal
        #: While :meth:`restore` re-runs a record: the upstream replies
        #: it read, which :meth:`_origin_raw` answers from.
        self._replies: Optional[deque[list]] = None
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
        (:meth:`repro.core.cache.Cache.preload_from`): one control
        exchange, which neither side counts or charges, reads every
        cacheable object's head from the origin's ``population`` at
        ``start_time``.  With a journal installed, the configuration and
        that reply are written as the journal's first records.

        Returns:
            The number of entries loaded.
        """
        warm_started = obs_clock.monotonic()
        response, body, _ = await self._origin_raw(
            f"GET {CONTROL_PREFIX}population HTTP/1.0\r\n"
            f"{DATE}: {format_http_date(start_time)}\r\n\r\n"
        )
        if response.status != 200:
            raise LiveWireError(f"population returned {response.status}")
        # Neither side counts or charges warm-up, so any step will do:
        # only its ``store`` (entry + protocol stamp) is used.
        store = self._begin().step.store
        lines = body.splitlines()
        for line in lines:
            store(*_population_entry(line), start_time)
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
            reply = [response.serialize_head(), body]
            self._journal.append(
                {"kind": "warm", "t": float(start_time), "replies": [reply]}
            )
        obs_trace.span(
            "live.warmup",
            obs_clock.monotonic() - warm_started,
            entries=len(lines),
        )
        return len(lines)

    # -- restore -------------------------------------------------------------

    async def restore(self) -> bool:
        """Rebuild state from the journal after a crash, by re-execution.

        Each record runs again, in journal order, through the code that
        ran it the first time — :meth:`warm`, :meth:`_process_object` or
        :meth:`_finish` — while :meth:`_origin_raw` answers from the
        upstream replies the record kept.  That rebuilds counters,
        ledger, events, cache entries, cursors, clocks, committed
        replies (so retried in-flight requests replay rather than
        re-execute), upstream sequence ids, the replay position in a
        fault plan's schedule and the protocol's adaptive state.  No
        origin is needed: a ``feed`` record hands back the feed the
        killed proxy read.  While records re-run, the journal, the
        metrics registry and the ambient trace sink are suspended, so a
        re-run publishes and journals nothing.

        Returns:
            True when the journal held records (the proxy is warm);
            False for an empty/missing journal (boot normally and
            :meth:`warm`).

        Raises:
            LiveReplayError: when the journal's config record does not
                match this proxy's configuration, a record's kind is
                unknown (the state-delta ``txn`` records of an older
                proxy included), or a record's re-run asks for an
                upstream reply it lacks or leaves one unused.
        """
        if self._journal is None:
            raise LiveReplayError("restore() needs a journal")
        restore_started = obs_clock.monotonic()
        records = self._journal.load()
        if not records:
            return False
        journal, self._journal = self._journal, None
        registry = obs_metrics.install(None)
        sink = obs_trace.install(None)
        try:
            for record in records:
                await self._rerun(record)
        finally:
            self._journal = journal
            self._replies = None
            obs_metrics.install(registry)
            obs_trace.install(sink)
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

    async def _rerun(self, record: dict[str, object]) -> None:
        """Run one journal record again; see :meth:`restore`."""
        kind = record.get("kind")
        if kind == "config":
            self._check_config(record)
            return
        if kind == "feed":
            self._load_feed(str(record["body"]))
            return
        if kind not in ("warm", "request", "finish"):
            raise LiveReplayError(f"unknown journal record kind {kind!r}")
        replies = record.get("replies", [])
        assert isinstance(replies, list)
        self._replies = deque(replies)
        t = float(record["t"])  # type: ignore[arg-type]
        if kind == "warm":
            await self.warm(t)
        elif kind == "request":
            request = Request("GET", str(record["object"]))
            request.headers.set_date(DATE, t)
            seq = record.get("seq")
            if isinstance(seq, str):
                request.headers.set(SEQ_HEADER, seq)
            await self._process_object(request)
        else:
            await self._finish(t)
        if self._replies:
            raise LiveReplayError(
                f"journal {kind} record at t={t!r} left "
                f"{len(self._replies)} upstream replies unread"
            )

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

    # -- origin exchanges ----------------------------------------------------

    async def _origin_raw(self, head: str) -> tuple[Response, str, int]:
        """One upstream exchange of the request ``head`` through the
        pool, retried under a chaos-sized budget.

        The wire tally is charged for the attempt that completed.
        Retried requests carry whatever ``X-Repro-Seq`` the caller
        stamped, so the origin's counting dedups.  While :meth:`restore`
        re-runs a record, the record's next reply answers instead.
        """
        if self._replies is not None:
            if not self._replies:
                path = head.split(" ", 2)[1]
                raise LiveReplayError(
                    f"journal record lacks the upstream reply its re-run "
                    f"asks for ({path})"
                )
            return _replayed(self._replies.popleft())
        reply = await self._origin.request(
            head, attempts=self.upstream_attempts
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
        """One real GET (conditional when ``since`` is given) upstream,
        its head rendered straight from its fields."""
        # Deterministic idempotency id: the k-th counted fetch of this
        # object.  Staged in the transaction and applied at commit, so a
        # restarted proxy's re-execution of an uncommitted request — and
        # any chaos retry — reuses the same ids and the origin cannot
        # double-count.  (A SIGKILL can land after the
        # origin counted a fetch but before the transaction committed;
        # the restarted proxy then re-executes the request.)
        base = self._upstream.get(object_id, 0)
        k = txn.upstream.get(object_id, base)
        txn.upstream[object_id] = k + 1
        seq = f"{object_id}@{k}"
        if self._trace is not None and txn.trace is not None:
            # Propagate the client's trace id on the upstream hop so
            # the origin's spans join the same causal timeline.
            fetch_started = obs_clock.monotonic()
            try:
                response, _, _ = await self._origin_raw(
                    _upstream_head(object_id, t, since, seq, txn.trace)
                )
            finally:
                txn.upstream_wall += obs_clock.monotonic() - fetch_started
        else:
            response, _, _ = await self._origin_raw(
                _upstream_head(object_id, t, since, seq, None)
            )
        if response.status not in (200, 304):
            raise LiveWireError(
                f"origin returned {response.status} for {object_id!r}"
            )
        if self._journal is not None:
            txn.replies.append([response.serialize_head(), response.body_size])
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
        """Read the origin's modification feed — once per run.

        Run by the first delivery that needs the feed; first requests
        arriving together queue on ``_feed_lock`` and find the work
        done.  With a journal installed the body is journaled as a
        ``feed`` record before any request that delivers from it can
        commit, so a restarted proxy takes the feed from its journal
        (:meth:`restore` must work against a dead origin).
        """
        async with self._feed_lock:
            if self._subscribed:
                return
            body = ""
            if self.protocol.wants_invalidations:
                fetch_started = obs_clock.monotonic()
                response, body, _ = await self._origin_raw(
                    f"GET {CONTROL_PREFIX}feed HTTP/1.0\r\n\r\n"
                )
                if response.status != 200:
                    raise LiveWireError(
                        f"feed endpoint returned {response.status}"
                    )
                if self._journal is not None:
                    self._journal.append({"kind": "feed", "body": body})
                obs_trace.span(
                    "live.feed",
                    obs_clock.monotonic() - fetch_started,
                    events=len(body.splitlines()),
                )
            self._load_feed(body)

    def _load_feed(self, body: str) -> None:
        """Take the feed's body, once.  One fetch, two consumers: a
        fault plan compiles the feed into its schedule exactly as
        ``Simulation.__init__`` does, the fault-free path keeps it as
        per-object queues."""
        feed = [self._parse_feed_line(line) for line in body.splitlines()]
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
            times = self._feed.get(oid)
            if times:
                lo = bisect_right(times, cursor)
                hi = bisect_right(times, until, lo)
                due += [(mod_time, oid) for mod_time in times[lo:hi]]
        # (time, id) is the order of the origin's feed.
        due.sort()
        for mod_time, oid in due:
            if txn.step.deliver(mod_time, oid):
                await self._prefetch(oid, mod_time, txn)

    async def _replay_faults(self, until: float, txn: _Txn) -> None:
        """Hand the step every compiled action with a timestamp <=
        ``until``."""
        actions = self._fault_actions
        idx = self._fault_idx
        n = len(actions)
        while idx < n and actions[idx].time <= until:
            action = actions[idx]
            idx += 1
            if txn.step.fault(action):
                await self._prefetch(action.object_id, action.time, txn)
        self._fault_idx = idx

    # -- request handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._pin()
        try:
            while True:
                if self._trace is not None:
                    parse_started = obs_clock.monotonic()
                try:
                    request, received = await self._idle(
                        writer, read_request(reader)
                    )
                except LiveConnectionClosed:
                    break
                except LiveWireError as exc:
                    sent = await write_message(
                        writer, error_response(400, str(exc))
                    )
                    await self._account_wire(sent)
                    break
                tid = (
                    request.headers.get(TRACE_HEADER)
                    if self._trace is not None else None
                )
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
                if tid is not None:
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
            return error_response(
                400, f"unsupported method {request.method!r}"
            )
        if request.path.startswith(CONTROL_PREFIX):
            return await self._process_control(request)
        return await self._process_object(request)

    async def _process_control(self, request: Request) -> str:
        async with self._control_lock:
            try:
                return await self._control(request)
            except (LiveWireError, HTTPDateError) as exc:
                return error_response(500, str(exc))

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
                    head, body_size = committed
                    return head + "x" * body_size
            txn = self._begin(seq)
            if self._trace is not None:
                txn.trace = request.headers.get(TRACE_HEADER)
            traced = self._trace is not None and txn.trace is not None
            if traced:
                object_started = obs_clock.monotonic()
            try:
                served = await self._object(request, txn)
            except (LiveWireError, HTTPDateError) as exc:
                served = error_response(500, str(exc)), None
            if traced:
                self._emit_decision_spans(
                    request, served, txn, object_started
                )
            head, body_size = served
            if body_size is None:
                return head
            # Commit-before-reply: once the reply leaves, the request
            # is journaled and applied — a crash after this point
            # replays its reply, never re-executes it.  A 200 is always
            # the model's own reply, a filler body.
            assert txn.clock is not None
            if traced:
                commit_started = obs_clock.monotonic()
            record: dict[str, object] = {
                "kind": "request", "object": request.path,
                "t": txn.clock[1],
            }
            if seq is not None:
                record["seq"] = seq
            await self._commit(txn, record, (head, body_size))
            if traced:
                assert self._trace is not None
                commit_clk = obs_clock.monotonic()
                self._trace.span(
                    "live.trace.commit",
                    commit_clk - commit_started,
                    {"trace": txn.trace, "clk": commit_clk},
                )
            return head + "x" * body_size

    def _emit_decision_spans(
        self,
        request: Request,
        served: tuple[str, Optional[int]],
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
        head, body_size = served
        meta: dict[str, object] = {
            "trace": txn.trace,
            "clk": clk,
            "object": request.path,
        }
        # An error reply carries no verdict; a served head always does.
        verdict = _head_value(head, X_CACHE) if body_size is not None else None
        if verdict is not None:
            meta["verdict"] = verdict
        if verdict == "HIT":
            t = request.headers.get_date(DATE)
            last_modified = _head_value(head, LAST_MODIFIED)
            if t is not None and last_modified is not None:
                meta["age"] = t - parse_http_date(last_modified)
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
        """A transaction whose step stages into its own deltas: the
        step only adds to counters and charges the ledger, which is all
        :class:`_Deltas` and :class:`_Charges` take."""
        txn = _Txn(seq)
        txn.step = RequestStep(
            self.cache,
            self.protocol,
            self.mode,
            self.costs,
            self.charge_per_modification,
            cast(ConsistencyCounters, txn.counters),
            cast(BandwidthLedger, txn.charges),
            txn.record,
        )
        return txn

    async def _commit(
        self,
        txn: _Txn,
        record: dict[str, object],
        reply: tuple[str, int] = ("", 0),
    ) -> None:
        """Fold one transaction into shared state, journaling ``record``
        (what came in) with the upstream replies it read first; a
        request's ``reply`` is its head and body length, kept for
        retries.  Only the counters and ledger cells the step moved are
        folded.

        The short critical section of the locking discipline: every
        mutation of cross-object aggregates happens here, under
        ``_state_lock``, after the request's work completed under its
        key's lock.
        """
        async with self._state_lock:
            if self._journal is not None:
                if txn.replies:
                    record["replies"] = txn.replies
                self._journal.append(record)
            counters = self.counters
            for name, n in vars(txn.counters).items():
                setattr(counters, name, getattr(counters, name) + n)
            for charge in txn.charges:
                self.bandwidth.charge(*charge)
            self.events.extend(txn.events)
            if txn.seq is not None:
                self._done[txn.seq] = reply
            if txn.clock is not None:
                self._clocks[txn.clock[0]] = txn.clock[1]
            for object_id, cursor in txn.cursors.items():
                self._cursors[object_id] = cursor
            for object_id, n in txn.upstream.items():
                self._upstream[object_id] = n

    # -- control endpoints ---------------------------------------------------

    async def _control(self, request: Request) -> str:
        endpoint = request.path[len(CONTROL_PREFIX):]
        if endpoint == "stats":
            return self._stats()
        if endpoint not in ("warm", "finish"):
            return error_response(
                404, f"unknown control endpoint {endpoint!r}"
            )
        # Both take their time (start, end) from the Date header.
        t = request.headers.get_date(DATE)
        if t is None:
            return error_response(400, f"{endpoint} needs a Date header")
        if endpoint == "warm":
            return text_reply(f"{await self.warm(t)}\n", None)
        if t < self._now:
            return error_response(
                400, f"finish time {t!r} precedes current time {self._now!r}"
            )
        await self._finish(t)
        return text_reply("ok\n", None)

    async def _finish(self, t: float) -> None:
        """The simulator's finish(end_time): trailing invalidations are
        still delivered (and charged) after the last request.

        Idempotent — a retried finish finds every cursor already
        advanced and delivers nothing.
        """
        txn = self._begin()
        await self._deliver(t, txn, object_id=None)
        self._now = float(t)
        await self._commit(txn, {"kind": "finish", "t": float(t)})

    def _stats(self) -> str:
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
        return text_reply(json.dumps(payload, sort_keys=True) + "\n", "json")

    # -- one request: the shared step, with real exchanges in between -------

    async def _object(
        self, request: Request, txn: _Txn
    ) -> tuple[str, Optional[int]]:
        """Serve one object request: a 200's head and the length of its
        filler body (the model's own), or a plain-text error reply
        rendered whole, with ``None``."""
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
            ), None
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
            return _cached_head(entry, t, "HIT"), entry.size
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
            return _cached_head(entry, t, "REVALIDATED"), entry.size
        step.validated(entry, t, _fetch_result(object_id, response))
        return self._forward(response, "MISS")

    def _forward(
        self, response: Response, verdict: str
    ) -> tuple[str, int]:
        response.headers.set(X_CACHE, verdict)
        return response.serialize_head(), response.body_size

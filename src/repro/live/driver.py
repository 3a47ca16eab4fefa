"""The live load driver: replay a synthetic trace over real sockets.

:func:`run_replay` plays a ``(time, object_id)`` request stream — the
same stream :func:`repro.core.simulator.simulate` consumes — against a
:class:`~repro.live.origin.LiveOrigin` / :class:`~repro.live.proxy
.LiveProxy` pair, one real HTTP/1.0 exchange per request, and assembles
the run into the very same :class:`~repro.core.results.SimulationResult`
shape the simulator returns.  That shared shape is what lets the
differential leg (:mod:`repro.live.differential`) diff a live run
against a simulated one field-for-field.

Two pieces of the result cannot be observed inside the proxy and are
assembled here:

* **server-side load** (``server_gets``, ``server_ims_queries``) comes
  from the origin's own counters, fetched over its stats control
  endpoint — so the invariant ``server_gets == full_retrievals +
  prefetches`` is a genuine two-machine cross-check, not a tautology;
* **staleness ground truth** (``stale_hits``, ``stale_age_sum``): the
  proxy cannot know it served a stale copy — that is the *point* of
  weak consistency.  The driver audits every ``X-Cache: HIT`` response
  against the origin's modification schedule, exactly as the
  simulator's omniscient hit branch does.  For the leased protocol the
  audit also *enforces* the lease's structural staleness bound: a stale
  serve as old as the lease term is a consistency violation, chaos or
  no chaos.

There is one replay path.  :func:`replay_pooled` partitions the stream
by object across the workers of one
:class:`~repro.live.wire.ConnectionPool` (per-object order preserved —
exactly the ordering the proxy's per-object keys require) and stamps
every request with an ``X-Repro-Seq`` idempotency id; the pool retries
transport failures — the committed reply replays, so accounting stays
exactly-once over an at-least-once transport.  One worker without
keep-alive is serial replay; nothing else distinguishes it.
:func:`run_replay` boots the origin, optional
:class:`~repro.live.chaos.ChaosRelay` hops and the proxy, and drives
them.  ``crash_after`` decides only *where the proxy lives*: in this
process, or — built from the very same arguments — in a
:mod:`repro.live.standalone` child that a monkey task SIGKILLs
mid-replay and restarts from its journal.

:func:`check_wire_exact` gates a replay up front: every timestamp the
run touches must be a whole second, because simulation time travels in
RFC 1123 ``Date`` headers.  A fractional modification time would be
floored in transit and the live accounting would silently diverge from
the simulator — better to refuse loudly.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Awaitable,
    Callable,
    Iterable,
    Optional,
    Sequence,
    Union,
)

from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult, result_from_dict
from repro.core.server import OriginServer
from repro.core.simulator import SimulatorMode
from repro.faults.plan import FaultPlan
from repro.http.messages import Request, Response
from repro.live.chaos import ChaosRelay, WireFaultPlan
from repro.live.journal import Journal
from repro.live.origin import LiveOrigin
from repro.live.proxy import LiveProxy, single_key
from repro.live.wire import (
    CONTROL_PREFIX,
    DATE,
    SEQ_HEADER,
    TRACE_HEADER,
    X_CACHE,
    ConnectionPool,
    LiveReplayError,
    LiveWireError,
    ensure_integral,
    exchange,
)
from repro.obs import clock as obs_clock
from repro.obs import trace as obs_trace
from repro.obs.timeline import role_trace_paths

#: Pause before reconnecting after a refused/reset connection — long
#: enough for a killed proxy to be respawned, short enough that a chaos
#: retry burst stays fast.
_RECONNECT_PAUSE = 0.05
#: Retry budget for driving through a proxy restart: the outage window
#: (kill, respawn, journal replay) divided by the reconnect pause, with
#: a generous margin.
_CRASH_ATTEMPTS = 240


@dataclass
class LiveReplayReport:
    """Everything one live replay produced.

    Attributes:
        result: the run in the simulator's result shape — counters,
            bandwidth ledger (abstract :class:`MessageCosts` bytes),
            duration.  This is the side diffed against ``simulate()``.
        wire_bytes: actual bytes moved on sockets across the whole
            replay (warmup and control exchanges included) — the
            live-only measurement, deliberately *not* part of the diff.
        origin_gets: full retrievals the origin counted.
        origin_ims_queries: If-Modified-Since exchanges the origin
            counted.
        origin_feed_reads: exchanges the origin's ``feed`` endpoint
            served — one per proxy lifetime that wanted invalidations
            (more only when socket chaos forces a re-read).
        events: the proxy's committed event log — ``(kind, time,
            object_id)`` triples, the live counterpart of the
            simulator's observer stream.
        stale_events: the ``(time, object_id)`` pairs the driver's
            audit found stale — the key for relabelling live ``hit``
            events as ``stale_hit`` when diffing event multisets.
    """

    result: SimulationResult
    wire_bytes: int = 0
    origin_gets: int = 0
    origin_ims_queries: int = 0
    origin_feed_reads: int = 0
    events: list[tuple[str, float, str]] = field(default_factory=list)
    stale_events: list[tuple[float, str]] = field(default_factory=list)


def check_wire_exact(
    server: OriginServer,
    requests: Sequence[tuple[float, str]],
    *,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
) -> None:
    """Refuse inputs that cannot survive wire transport bit-for-bit.

    Raises:
        LiveReplayError: on any fractional timestamp (request times,
            object creation times, modification times, expiry
            lifetimes, the run window edges) or an unordered request
            stream.
    """
    ensure_integral(start_time, "start_time")
    if end_time is not None:
        ensure_integral(end_time, "end_time")
    previous = float(start_time)
    for t, object_id in requests:
        ensure_integral(t, f"request time for {object_id!r}")
        if t < previous:
            raise LiveReplayError(
                f"request stream is not time-ordered: {t!r} after "
                f"{previous!r} ({object_id!r})"
            )
        previous = float(t)
    for object_id, history in server.histories().items():
        ensure_integral(history.obj.created, f"{object_id!r} creation time")
        if history.obj.expires_after is not None:
            ensure_integral(
                history.obj.expires_after, f"{object_id!r} expires_after"
            )
        for mod_time in history.schedule.times:
            ensure_integral(mod_time, f"{object_id!r} modification time")


async def _control_get(
    host: str,
    port: int,
    endpoint: str,
    *,
    date: Optional[float] = None,
) -> str:
    request = Request("GET", CONTROL_PREFIX + endpoint)
    if date is not None:
        request.headers.set_date(DATE, date)
    response, body, _ = await exchange(host, port, request)
    if response.status != 200:
        raise LiveWireError(
            f"control endpoint {endpoint!r} returned {response.status}: "
            f"{body.strip()!r}"
        )
    return body


def _audit_hit(
    server: OriginServer,
    response: Response,
    t: float,
    object_id: str,
    lease: Optional[float],
) -> Optional[float]:
    """Audit one ``X-Cache: HIT`` response against ground truth.

    Returns ``None`` for a hit that was actually fresh, or the stale
    age to accumulate (0.0 when the change point is unknown).  For a
    leased protocol, enforces the lease's structural bound: a stale
    serve must be strictly younger than the lease term — that holds
    even under invalidation faults (a leased entry is only served
    within ``lease`` of its last validation), so a violation is a real
    consistency bug, not expected chaos.

    Raises:
        LiveWireError: when a hit lacks ``Last-Modified``.
        LiveReplayError: when the lease staleness bound is violated.
    """
    last_modified = response.headers.last_modified
    if last_modified is None:
        raise LiveWireError(
            f"cache hit for {object_id!r} lacks Last-Modified"
        )
    schedule = server.schedule(object_id)
    if last_modified >= schedule.last_modified_at(t):
        return None
    became_stale = schedule.next_change_after(last_modified)
    if became_stale is None:
        return 0.0
    age = t - became_stale
    if lease is not None and age >= lease:
        raise LiveReplayError(
            f"lease staleness bound violated for {object_id!r}: stale "
            f"copy served at t={t!r} was {age!r}s old, lease is "
            f"{lease!r}s"
        )
    return age


def _assemble_report(
    proxy_stats: dict[str, object],
    origin_stats: dict[str, object],
    *,
    duration: float,
    stale_hits: int,
    stale_age_sum: float,
    stale_events: list[tuple[float, str]],
) -> LiveReplayReport:
    """Fold proxy stats, origin stats, and the driver audit into a report."""
    # The proxy's stats body is a result in the codec's form (plus the
    # live-only extras read below); what the proxy cannot observe is
    # filled in from the origin's counters and the driver's audit.
    result = result_from_dict({**proxy_stats, "duration": duration})
    counters = result.counters
    counters.stale_hits = stale_hits
    counters.stale_age_sum = stale_age_sum
    counters.server_gets = int(origin_stats["gets"])  # type: ignore[call-overload]
    counters.server_ims_queries = int(origin_stats["ims_queries"])  # type: ignore[call-overload]
    result.counters.check_invariants()
    raw_events = proxy_stats["events"]
    assert isinstance(raw_events, list)
    return LiveReplayReport(
        result=result,
        wire_bytes=int(proxy_stats["wire_bytes"]),  # type: ignore[call-overload]
        origin_gets=int(origin_stats["gets"]),  # type: ignore[call-overload]
        origin_ims_queries=int(origin_stats["ims_queries"]),  # type: ignore[call-overload]
        origin_feed_reads=int(origin_stats["feed_reads"]),  # type: ignore[call-overload]
        events=[
            (str(kind), float(t), str(oid)) for kind, t, oid in raw_events
        ],
        stale_events=stale_events,
    )


def _partition(
    request_list: Sequence[tuple[float, str]], connections: int
) -> list[list[tuple[int, float, str]]]:
    """Split the stream into per-connection buckets by object affinity.

    Every request for one object lands in the same bucket (objects are
    assigned round-robin by first appearance), and each bucket keeps
    its requests in stream order — so per-object request order is
    preserved, which is the only ordering the proxy's per-object keys
    require.  Items carry their global stream index for sequence ids.
    """
    bucket_of: dict[str, int] = {}
    buckets: list[list[tuple[int, float, str]]] = [
        [] for _ in range(connections)
    ]
    for index, (t, object_id) in enumerate(request_list):
        if object_id not in bucket_of:
            bucket_of[object_id] = len(bucket_of) % connections
        buckets[bucket_of[object_id]].append((index, float(t), object_id))
    return buckets


async def replay_pooled(
    origin: LiveOrigin,
    proxy_host: str,
    proxy_port: int,
    requests: Sequence[tuple[float, str]],
    *,
    connections: int = 2,
    keepalive: bool = True,
    lease: Optional[float] = None,
    attempts: int = 1,
    pause: float = 0.0,
    on_complete: Optional[Callable[[], None]] = None,
    trace: Optional[obs_trace.TraceSink] = None,
) -> tuple[int, float, list[tuple[float, str]], float]:
    """Drive the request stream through a connection pool.

    The stream is partitioned by object (:func:`_partition`); each
    bucket is driven by one worker, and every worker sends through the
    one :class:`~repro.live.wire.ConnectionPool` (kept-alive sockets,
    or one-shot exchanges when ``keepalive`` is off), which retries
    under ``attempts`` / ``pause``; one worker without keep-alive *is*
    serial replay.  Every request carries ``X-Repro-Seq: r<index>`` so
    retries are exactly-once.  A proxy that maps every object to one
    key (:func:`repro.live.proxy.single_key`) matches the simulator
    only in stream order: its caller passes ``connections=1`` — one
    bucket, one worker, one socket.

    With ``trace``, requests additionally carry ``X-Repro-Trace``
    (same ``r<index>`` value as the sequence id) and the driver records
    a send mark *per attempt*, a done mark, and a
    ``live.trace.exchange`` span per completed exchange.

    Returns:
        ``(stale_hits, stale_age_sum, stale_events, last_time)`` from
        the driver's staleness audit.
    """
    buckets = _partition(requests, max(1, connections))
    hits: list[tuple[float, str, Response]] = []
    pool = ConnectionPool(
        proxy_host, proxy_port, keepalive=keepalive, hop="client",
        trace=trace,
    )

    def mark_send(request: Request) -> None:
        # One send mark per attempt: a retried exchange has several
        # sends but one done, and the timeline's happens-before check
        # uses the earliest send.
        if trace is not None:
            trace.mark(
                "live.trace.send",
                request.headers.get(TRACE_HEADER),
                obs_clock.monotonic(),
            )

    async def drive(bucket: list[tuple[int, float, str]]) -> None:
        for index, t, object_id in bucket:
            seq = f"r{index}"
            request = Request("GET", object_id)
            request.headers.set_date(DATE, t)
            request.headers.set(SEQ_HEADER, seq)
            if trace is not None:
                request.headers.set(TRACE_HEADER, seq)
            exchange_started = (
                obs_clock.monotonic() if trace is not None else 0.0
            )
            response, _, _ = await pool.request(
                request, attempts=attempts, pause=pause, on_attempt=mark_send
            )
            if trace is not None:
                done_clk = obs_clock.monotonic()
                trace.mark("live.trace.done", seq, done_clk)
                trace.span(
                    "live.trace.exchange",
                    done_clk - exchange_started,
                    {
                        "trace": seq,
                        "clk": done_clk,
                        "object": object_id,
                        "t": float(t),
                        "verdict": response.headers.get(X_CACHE),
                    },
                )
            if response.status != 200:
                raise LiveWireError(
                    f"proxy returned {response.status} for "
                    f"{object_id!r} at t={t!r}"
                )
            if response.headers.get(X_CACHE) == "HIT":
                hits.append((t, object_id, response))
            if on_complete is not None:
                on_complete()

    workers = [
        asyncio.create_task(drive(bucket)) for bucket in buckets if bucket
    ]
    try:
        await asyncio.gather(*workers)
    except BaseException:
        # First failure cancels the siblings: left alone they would
        # keep retrying (240 attempts in crash mode) and hold their
        # connections.
        for worker in workers:
            worker.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
        raise
    finally:
        await pool.close()

    stale_hits = 0
    stale_age_sum = 0.0
    stale_events: list[tuple[float, str]] = []
    for t, object_id, response in hits:
        age = _audit_hit(origin.server, response, t, object_id, lease)
        if age is not None:
            stale_hits += 1
            stale_age_sum += age
            stale_events.append((float(t), object_id))
    last_time = max((float(t) for t, _ in requests), default=0.0)
    return stale_hits, stale_age_sum, stale_events, last_time


async def _drive(
    origin: LiveOrigin,
    proxy_host: str,
    proxy_port: int,
    requests: Sequence[tuple[float, str]],
    protocol: ConsistencyProtocol,
    *,
    start_time: float,
    end_time: Optional[float],
    connections: int,
    keepalive: bool,
    faults: Optional[FaultPlan] = None,
    client: Optional[tuple[str, int]] = None,
    attempts: int = 1,
    pause: float = 0.0,
    on_complete: Optional[Callable[[], None]] = None,
    settled: Optional[Awaitable[None]] = None,
    trace: Optional[obs_trace.TraceSink] = None,
) -> LiveReplayReport:
    """One replay against a running proxy: warm, drive, finish, report.

    The proxy is reached only through its address — warm-up, finish
    and stats are control exchanges — so the same coroutine serves an
    in-process proxy and a child process.  ``client`` is where modelled
    traffic is sent when that is not the proxy itself (a chaos relay in
    front of it); control exchanges always go to the proxy directly,
    they are the harness's measurement plane.  ``protocol`` and
    ``faults`` are what the proxy was built with: they decide the lease
    bound of the staleness audit and whether the stream must arrive in
    global order (one worker).  ``settled`` is awaited between the last
    request and the finish exchange (the crash monkey's respawn must be
    over before the proxy is asked for its totals).

    Raises:
        LiveReplayError: when the inputs cannot be wire-exact.
        LiveWireError: on protocol errors from either live server.
    """
    replay_started = obs_clock.monotonic()
    check_wire_exact(
        origin.server, requests, start_time=start_time, end_time=end_time
    )
    await _control_get(proxy_host, proxy_port, "warm", date=start_time)
    client_host, client_port = client or (proxy_host, proxy_port)
    stale_hits, stale_age_sum, stale_events, last_time = await replay_pooled(
        origin,
        client_host,
        client_port,
        requests,
        connections=1 if single_key(protocol, faults) else connections,
        keepalive=keepalive,
        lease=getattr(protocol, "lease", None),
        attempts=attempts,
        pause=pause,
        on_complete=on_complete,
        trace=trace,
    )
    if settled is not None:
        await settled
    last_time = max(last_time, float(start_time))
    if end_time is not None:
        await _control_get(proxy_host, proxy_port, "finish", date=end_time)
        last_time = float(end_time)
    proxy_stats = json.loads(
        await _control_get(proxy_host, proxy_port, "stats")
    )
    origin_stats = json.loads(
        await _control_get(origin.host, origin.port, "stats")
    )
    report = _assemble_report(
        proxy_stats,
        origin_stats,
        duration=last_time - float(start_time),
        stale_hits=stale_hits,
        stale_age_sum=stale_age_sum,
        stale_events=stale_events,
    )
    obs_trace.span(
        "live.replay",
        obs_clock.monotonic() - replay_started,
        requests=len(requests),
        wire_bytes=report.wire_bytes,
    )
    return report


class _ChildProxy:
    """The proxy as a child process that a monkey SIGKILLs and respawns.

    ``python -m repro.live.standalone`` builds its :class:`LiveProxy`
    from ``proxy_args`` — the keyword arguments the in-process proxy
    would have been built from, pickled onto the child's stdin — so
    there is no second signature for an option to be missing from.
    Once ``crash_after`` requests have completed the monkey kills the
    child (a real ``SIGKILL`` of a real process; nothing in-process
    may stand in for it), respawns it on the same port, and the new
    child re-warms from the journal (:meth:`LiveProxy.restore`) — it
    reads the origin's feed again on its first delivery, and the
    journaled per-object cursors say where in it each object resumes.
    Workers ride through the outage by retrying under their requests'
    sequence ids, so the final numbers must reconcile *exactly* with a
    crash-free simulation.
    """

    host = "127.0.0.1"

    def __init__(
        self,
        proxy_args: dict[str, Any],
        crash_after: int,
        trace: Optional[obs_trace.TraceSink],
    ) -> None:
        self._proxy_args = proxy_args
        self._crash_after = crash_after
        self._trace = trace
        self._completed = 0
        self._due = asyncio.Event()
        #: 0 until the first spawn picked an ephemeral port; the
        #: respawn reuses it.
        self.port = 0

    async def _spawn(self) -> None:
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.live.standalone",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        assert proc.stdin is not None and proc.stdout is not None
        # The pipe then stays open for as long as this process lives:
        # the child takes its EOF as "my driver is gone" and exits.
        proc.stdin.write(pickle.dumps((self._proxy_args, self.port)))
        await proc.stdin.drain()
        line = (await proc.stdout.readline()).decode()
        if not line.startswith("PORT "):
            proc.kill()
            await proc.wait()
            raise LiveReplayError(
                f"standalone proxy failed to start (got {line!r})"
            )
        self._proc, self.port = proc, int(line.split()[1])

    async def start(self) -> None:
        await self._spawn()
        #: Done once the kill and the respawn are both over.
        self.monkey = asyncio.create_task(self._kill_and_respawn())

    def on_complete(self) -> None:
        self._completed += 1
        if self._completed >= self._crash_after:
            self._due.set()

    async def _kill_and_respawn(self) -> None:
        await self._due.wait()
        if self._trace is not None:
            self._trace.mark(
                "live.trace.kill",
                None,
                obs_clock.monotonic(),
                completed=self._completed,
            )
        self._proc.kill()
        await self._proc.wait()
        await self._spawn()

    async def close(self) -> None:
        self.monkey.cancel()
        await asyncio.gather(self.monkey, return_exceptions=True)
        if self._proc.returncode is None:
            self._proc.kill()
            await self._proc.wait()


async def run_replay(
    server: OriginServer,
    protocol: ConsistencyProtocol,
    requests: Iterable[tuple[float, str]],
    mode: SimulatorMode = SimulatorMode.OPTIMIZED,
    *,
    costs: MessageCosts = DEFAULT_COSTS,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
    charge_per_modification: bool = True,
    connections: int = 1,
    keepalive: bool = False,
    chaos: Optional[WireFaultPlan] = None,
    faults: Optional[FaultPlan] = None,
    journal_path: Optional[Union[str, Path]] = None,
    trace_path: Optional[Union[str, Path]] = None,
    crash_after: Optional[int] = None,
) -> LiveReplayReport:
    """Boot an ephemeral origin/proxy pair on loopback, replay, tear down.

    The one-call form for callers that do not need to keep the servers
    running — the CLI's ``repro replay``, the differential leg and the
    benchmark all go through here, so they exercise the identical code
    path.  Every option composes with every other:

    * ``connections`` / ``keepalive`` — the size of the driver's pool
      and whether its connections persist.  The defaults (one
      connection, one-shot HTTP/1.0 exchanges) are serial replay.
    * ``chaos`` — a :class:`~repro.live.chaos.ChaosRelay` on *both*
      hops (driver↔proxy and proxy↔origin); driver and proxy retry
      budgets are sized from the plan's progress cap.  Control
      exchanges (warm/finish/stats) bypass the relays: they are the
      harness's measurement plane, not modelled traffic.
    * ``faults`` — a compiled invalidation :class:`FaultPlan` replayed
      inside the proxy, mirroring ``simulate(faults=plan)``.  The
      schedule is a global timeline, so the proxy runs on one key and
      the driver sends the stream over one connection, in order,
      whatever ``connections`` says.
    * ``journal_path`` — commit-before-reply journaling, which is what
      a restarted proxy re-warms from.
    * ``crash_after`` — run the proxy as a child process
      (:class:`_ChildProxy`), SIGKILL it once that many requests have
      completed and restart it from the journal.  Nothing else about
      the replay changes, and the report must still equal a crash-free
      simulation.
    * ``trace_path`` — cross-process causal tracing: each role (driver,
      proxy, origin) records into its own
      :class:`~repro.obs.trace.TraceSink`, and on teardown — success
      *or* failure; the trace of a failing run is the valuable one —
      three JSONL files are written: ``trace_path`` for the driver plus
      ``.proxy`` / ``.origin`` companions
      (:func:`repro.obs.timeline.role_trace_paths`).  Chaos relays and
      the crash monkey are harness machinery, so their marks land in
      the driver's file.  ``repro trace merge`` joins the three into
      one timeline.

    Raises:
        LiveReplayError: when the inputs cannot be wire-exact, or
            ``crash_after`` comes without a journal or does not fall
            inside the request stream (the monkey must fire while work
            remains, or it would wait forever).
    """
    plan = chaos if chaos is not None and not chaos.is_null else None
    attempts = plan.max_attempts if plan is not None else 1
    request_list = list(requests)
    if crash_after is not None:
        if journal_path is None:
            raise LiveReplayError(
                "crash_after needs a journal (journal_path, --journal) "
                "for the restarted proxy to re-warm from"
            )
        if not 0 < crash_after < len(request_list):
            raise LiveReplayError(
                f"crash_after must fall inside the request stream: "
                f"0 < {crash_after} < {len(request_list)} required"
            )
    paths = role_trace_paths(trace_path) if trace_path is not None else {}
    sinks = {role: obs_trace.TraceSink(proc=role) for role in paths}
    if sinks and crash_after is not None:
        # A killed process writes nothing on teardown: the child's sink
        # appends each record to the file as it is made, both lifetimes
        # into the one file, which is started (header only) here.
        sinks["proxy"] = obs_trace.TraceSink("proxy", path=paths["proxy"])
        obs_trace.write_jsonl(sinks["proxy"], paths["proxy"])
    origin = LiveOrigin(server, trace=sinks.get("origin"))
    await origin.start()
    relays: list[ChaosRelay] = []

    async def behind_relay(host: str, port: int, label: str) -> tuple[str, int]:
        """The address to use for ``host:port`` on the ``label`` hop."""
        if plan is None:
            return host, port
        relay = ChaosRelay(host, port, plan, label, trace=sinks.get("driver"))
        await relay.start()
        relays.append(relay)
        return relay.host, relay.port

    try:
        upstream_host, upstream_port = await behind_relay(
            origin.host, origin.port, "upstream"
        )
        proxy_args: dict[str, Any] = dict(
            origin_host=upstream_host,
            origin_port=upstream_port,
            protocol=protocol,
            mode=mode,
            costs=costs,
            charge_per_modification=charge_per_modification,
            faults=faults,
            journal=(
                Journal(journal_path) if journal_path is not None else None
            ),
            upstream_attempts=attempts,
            trace=sinks.get("proxy"),
        )
        proxy: Union[LiveProxy, _ChildProxy]
        if crash_after is None:
            proxy = LiveProxy(**proxy_args)
        else:
            proxy = _ChildProxy(proxy_args, crash_after, sinks.get("driver"))
        await proxy.start()
        riding: dict[str, Any] = {"attempts": attempts}
        if isinstance(proxy, _ChildProxy):
            riding = {
                "attempts": max(attempts, _CRASH_ATTEMPTS),
                "pause": _RECONNECT_PAUSE,
                "on_complete": proxy.on_complete,
                "settled": proxy.monkey,
            }
        try:
            return await _drive(
                origin,
                proxy.host,
                proxy.port,
                request_list,
                protocol,
                start_time=start_time,
                end_time=end_time,
                connections=connections,
                keepalive=keepalive,
                faults=faults,
                client=await behind_relay(proxy.host, proxy.port, "client"),
                trace=sinks.get("driver"),
                **riding,
            )
        finally:
            await proxy.close()
    finally:
        for relay in relays:
            await relay.close()
        await origin.close()
        for role, sink in sinks.items():
            # A child proxy already wrote its own file, record by record.
            if crash_after is None or role != "proxy":
                obs_trace.write_jsonl(sink, paths[role])


__all__ = [
    "LiveReplayReport",
    "check_wire_exact",
    "replay_pooled",
    "run_replay",
]

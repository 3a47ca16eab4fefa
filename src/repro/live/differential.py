"""The oracle's fourth leg: live replay vs simulation, diffed exactly.

The repo already cross-checks the simulator three ways (executable
spec, replayed event log, batched fast path — see
:mod:`repro.verify.oracle`), all through the one exact differ of
:mod:`repro.core.results`.  This module adds the leg the others cannot
provide: the same trace is driven through **real sockets** — asyncio
origin, asyncio caching proxy, real HTTP/1.0 exchanges — and the live
run's counters and bandwidth ledger must equal :func:`repro.core.simulator.simulate` **exactly**, all
thirteen counters and all fifteen ledger cells.

Exactness is the whole point.  The live side re-derives every
consistency decision from wire artifacts (RFC 1123 ``Date`` headers,
``Last-Modified``, ``Expires`` re-stamps on 304s, an invalidation feed
of dated lines), so a single floored pre-epoch date, a mis-scoped
weekday, or an off-by-one delivery window shows up as a counter divergence
here — which is precisely how the :mod:`repro.http.datefmt` bugs were
caught.

Every replay is additionally checked on an event leg.  A pooled
replay (``connections > 1``) interleaves *distinct* objects' requests,
so live events are not committed in the simulator's global order — but
per-object order is preserved by construction, and per-object timelines
fully determine per-object state, so correctness is "same multiset of
``(kind, time, object)`` events", which :func:`diff_event_multisets`
checks per object (a one-connection replay is simply the case where the
orders also coincide).  The totals check is *not* relaxed: all thirteen
counters and fifteen cells match exactly, because every counter is an
order-independent sum over per-object events.  One wrinkle: the live
proxy emits ``hit`` for every cache hit (it cannot know staleness —
that is the point of weak consistency), so the driver's ground-truth
audit relabels stale hits before the diff (:func:`_relabel_stale`).

``crash_after`` is the harshest option: the proxy runs out of process,
is SIGKILLed mid-replay, restarts from its journal — and the final
numbers must *still* equal a crash-free simulation, which is what
commit-before-reply journaling plus sequence-id exactly-once semantics
guarantee.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.core.costs import DEFAULT_COSTS, MessageCosts
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult, diff_results
from repro.core.server import OriginServer
from repro.core.simulator import Simulation, SimulatorMode
from repro.faults.plan import FaultPlan
from repro.live.chaos import WireFaultPlan
from repro.live.driver import run_replay
from repro.verify.oracle import ConsistencyViolation, OracleReport


def diff_live_vs_sim(
    live: SimulationResult, sim: SimulationResult
) -> list[str]:
    """Every cell where a live replay and a simulation disagree.

    :func:`repro.core.results.diff_results` on the whole surface —
    protocol name, mode, duration, all 13 counters, all 15 ledger
    cells — one ``live.<cell>: live=... sim=...`` line each.  An empty
    list means the live run matched the simulator bit-for-bit.
    """
    return diff_results(live, sim, label="live", sides=("live", "sim"))


def _relabel_stale(
    events: Iterable[tuple[str, float, str]],
    stale_events: Iterable[tuple[float, str]],
) -> list[tuple[str, float, str]]:
    """Rewrite live ``hit`` events the driver's audit proved stale.

    The proxy emits ``hit`` for every cache hit; the simulator's
    omniscient hit branch emits ``stale_hit`` when ground truth says
    the copy was stale.  The driver's audit (which holds the same
    ground truth) bridges the gap: each audited-stale ``(time, object)``
    pair converts one matching ``hit`` into ``stale_hit``.
    """
    budget = Counter(stale_events)
    out: list[tuple[str, float, str]] = []
    for kind, t, object_id in events:
        if kind == "hit" and budget[(t, object_id)] > 0:
            budget[(t, object_id)] -= 1
            out.append(("stale_hit", t, object_id))
        else:
            out.append((kind, t, object_id))
    return out


def diff_event_multisets(
    live_events: Iterable[tuple[str, float, str]],
    sim_events: Iterable[tuple[str, float, str]],
) -> list[str]:
    """Per-object event-multiset divergences between live and sim.

    Ordering-tolerant by design: a pooled replay commits distinct
    objects' events in whatever order their locks won, but each event
    still carries its simulation time and object — so equality of the
    per-object multisets is exactly "every object saw the same
    timeline".  Cross-object commit order is deliberately *not*
    compared; the exact-totals counter check is what pins the sums.
    """
    live_count = Counter(live_events)
    sim_count = Counter(sim_events)
    lines: list[str] = []
    for key in sorted(
        set(live_count) | set(sim_count), key=lambda k: (k[2], k[1], k[0])
    ):
        if live_count[key] != sim_count[key]:
            kind, t, object_id = key
            lines.append(
                f"event ({kind!r}, {t!r}, {object_id!r}): "
                f"live x{live_count[key]} sim x{sim_count[key]}"
            )
    return lines


def live_vs_sim(
    server: OriginServer,
    protocol_factory: Callable[[], ConsistencyProtocol],
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
) -> tuple[SimulationResult, SimulationResult, OracleReport]:
    """Replay a trace live, simulate the same trace, and diff the two.

    ``protocol_factory`` must build a *fresh* protocol instance per
    call — adaptive protocols (Alex) carry per-entry state, so the live
    and simulated legs each need their own.

    Boots an ephemeral origin/proxy pair on loopback (plus chaos relays
    when ``chaos`` is given), replays via
    :func:`~repro.live.driver.run_replay`, tears the servers down, then
    runs the reference simulator with the identical configuration
    (``preload=True`` matches the live warmup, ``faults`` passes
    through to ``simulate(faults=plan)``; ``crash_after`` does *not* —
    the simulation never crashes, so anything the SIGKILL lost that the
    journal did not capture is a divergence).  On every replay — the
    default one-connection one included — the committed live event log
    is compared per-object against the simulator's observer stream
    (stale hits relabelled from the driver's audit), so
    ``report.events_checked`` is at least the number of requests.
    ``trace_path`` enables per-role causal tracing on the live leg
    (see :func:`~repro.live.driver.run_replay`); the simulated leg is
    never traced here.

    Returns:
        ``(live_result, sim_result, report)``.

    Raises:
        ConsistencyViolation: when any counter, ledger cell, or
            per-object event multiset differs;
            ``exc.report.divergences`` lists every mismatch.
    """
    request_list = list(requests)
    live_report = asyncio.run(
        run_replay(
            server,
            protocol_factory(),
            request_list,
            mode,
            costs=costs,
            start_time=float(start_time),
            end_time=end_time,
            charge_per_modification=charge_per_modification,
            connections=connections,
            keepalive=keepalive,
            chaos=chaos,
            faults=faults,
            journal_path=journal_path,
            trace_path=trace_path,
            crash_after=crash_after,
        )
    )
    sim_events: list[tuple[str, float, str]] = []
    sim_result = Simulation(
        server,
        protocol_factory(),
        mode,
        costs=costs,
        preload=True,
        start_time=float(start_time),
        observer=lambda kind, t, oid: sim_events.append((kind, t, oid)),
        charge_per_modification=charge_per_modification,
        faults=faults,
    ).run(request_list, end_time=end_time)
    live_result = live_report.result
    divergences = diff_live_vs_sim(live_result, sim_result)
    live_events = _relabel_stale(live_report.events, live_report.stale_events)
    divergences.extend(diff_event_multisets(live_events, sim_events))
    report = OracleReport(
        protocol_name=live_result.protocol_name,
        mode=live_result.mode,
        events_checked=len(live_events),
        divergences=divergences,
    )
    if not report.ok:
        raise ConsistencyViolation(report)
    return live_result, sim_result, report


__all__ = [
    "diff_event_multisets",
    "diff_live_vs_sim",
    "live_vs_sim",
]

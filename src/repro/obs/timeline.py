"""Merging per-role live traces into one causal timeline.

A traced live replay (``run_replay(trace_path=...)``) writes three
``repro.trace/1`` JSONL files — driver, proxy, origin — each a private,
append-ordered view of the same run (the proxy's holds both lifetimes
of a proxy that was SIGKILLed and restarted mid-replay).  This module
joins them into a single **merged timeline** (schema
``repro.trace/2``): every record is stamped with its role (``proc``)
and the whole set is ordered on the one axis all three processes share,
the ``clk`` reading of :func:`repro.obs.clock.monotonic`
(``CLOCK_MONOTONIC`` is system-wide on Linux, so readings from
different processes on one host compare directly).

The merged timeline is *validated*, not just sorted: for every trace id
the driver's earliest ``live.trace.send`` mark must not follow the
proxy's earliest ``live.trace.recv`` mark, and the proxy's
``live.trace.commit`` span must not follow its earliest
``live.trace.reply`` span — commit-before-reply is the journaling
discipline the whole crash-consistency story rests on, and here it is
checked from the outside, per exchange, including chaos-retry replays
of an already-committed reply and exchanges that commit in one proxy
lifetime and are answered in the next.  And the crash itself is on the
axis: each ``live.trace.kill`` the driver marks must not follow the
``live.trace.restore`` of the proxy it made room for.

Analysis helpers (:func:`summarize`, :func:`grep`,
:func:`critical_path`) back the ``repro trace`` CLI subcommand; all
return plain dicts/lists that serialize to stable JSON with
``sort_keys=True``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Optional, Union

from repro.obs import clock as obs_clock
from repro.obs import trace as obs_trace

#: Merged-timeline schema identifier (``repro.trace/1`` is the
#: per-process file schema; ``/2`` is the cross-process merge).
SCHEMA = "repro.trace/2"

#: Role order used to break clk ties deterministically: causally, a
#: driver record "happens" no later than a proxy record with the same
#: clk reading, which happens no later than an origin one on the send
#: path (the reverse holds on the reply path, but a tie needs *some*
#: deterministic order and the forward direction is the common case).
ROLE_RANK = {"driver": 0, "proxy": 1, "origin": 2}

#: Proxy-side phase spans that partition an exchange's wall time for
#: :func:`critical_path`.  ``live.trace.origin`` is deliberately absent:
#: it nests inside ``live.trace.upstream`` (the origin's service time is
#: part of the proxy's fetch wait) and would double-count.
PROXY_PHASES = (
    "live.trace.parse",
    "live.trace.decision",
    "live.trace.upstream",
    "live.trace.commit",
    "live.trace.reply",
)


def role_trace_paths(path: Union[str, Path]) -> dict[str, Path]:
    """The three per-role file paths derived from a driver trace path.

    ``TRACE.jsonl`` → ``{driver: TRACE.jsonl, proxy: TRACE.proxy.jsonl,
    origin: TRACE.origin.jsonl}``.  A suffix-less path gets ``.jsonl``
    companions appended.
    """
    base = Path(path)
    suffix = base.suffix or ".jsonl"
    stem = base.name[: -len(base.suffix)] if base.suffix else base.name
    return {
        "driver": base,
        "proxy": base.with_name(f"{stem}.proxy{suffix}"),
        "origin": base.with_name(f"{stem}.origin{suffix}"),
    }


def _clk(record: dict[str, Any]) -> Optional[float]:
    """The record's monotonic clock reading, wherever it lives.

    Marks carry ``clk`` top-level; live spans carry it in ``meta``;
    event records (and engine spans) have none.
    """
    clk = record.get("clk")
    if clk is None:
        meta = record.get("meta")
        if isinstance(meta, dict):
            clk = meta.get("clk")
    return float(clk) if isinstance(clk, (int, float)) else None


def merge(path: Union[str, Path]) -> dict[str, Any]:
    """Merge the per-role trace files for one live replay.

    ``path`` is the driver's trace file; proxy/origin companions are
    located via :func:`role_trace_paths`.  A missing companion is
    tolerated (its role is simply absent from ``roles``) — the driver
    file itself is required.

    Returns:
        ``{"schema": "repro.trace/2", "roles": {role: filename},
        "records": [...]}`` where every record carries a ``proc`` field
        and the list is ordered by ``clk`` (unclocked records first, in
        file order), ties broken by :data:`ROLE_RANK` then file order.

    Raises:
        ValueError: when the driver file is missing or any present file
            lacks the ``repro.trace/1`` header.
    """
    merge_started = obs_clock.monotonic()
    paths = role_trace_paths(path)
    if not paths["driver"].exists():
        raise ValueError(f"{paths['driver']}: driver trace file not found")
    roles: dict[str, str] = {}
    keyed: list[tuple[float, int, int, dict[str, Any]]] = []
    seq = 0
    for role in ("driver", "proxy", "origin"):
        role_path = paths[role]
        if not role_path.exists():
            continue
        header, records = obs_trace.load_jsonl(role_path)
        proc = header.get("proc", role)
        roles[proc] = role_path.name
        for record in records:
            clk = _clk(record)
            stamped = dict(record)
            stamped["proc"] = proc
            keyed.append(
                (
                    -math.inf if clk is None else clk,
                    ROLE_RANK.get(proc, len(ROLE_RANK)),
                    seq,
                    stamped,
                )
            )
            seq += 1
    keyed.sort(key=lambda item: item[:3])
    merged = [record for _, _, _, record in keyed]
    obs_trace.span(
        "trace.merge",
        obs_clock.monotonic() - merge_started,
        records=len(merged),
        roles=len(roles),
    )
    return {"schema": SCHEMA, "roles": roles, "records": merged}


def validate(timeline: dict[str, Any]) -> list[str]:
    """Check the merged timeline's happens-before edges.

    Two rules per trace id, one per crash:

    * the driver's earliest ``live.trace.send`` mark must precede (≤)
      the proxy's earliest ``live.trace.recv`` mark — a message is sent
      before it is received;
    * the proxy's ``live.trace.commit`` span must precede (≤) its
      earliest ``live.trace.reply`` span — commit-before-reply, the
      journaling discipline; retried exchanges replay the committed
      reply, so *every* reply for an id follows the one commit — in
      whichever proxy lifetime each happened;
    * the driver's k-th ``live.trace.kill`` mark must precede (≤) the
      proxy's k-th ``live.trace.restore`` mark, and have one — a proxy
      re-warms from its journal only after its predecessor was killed.

    Returns:
        Human-readable violation strings — empty for a healthy trace.
    """
    inf = math.inf
    sends: dict[str, float] = {}
    recvs: dict[str, float] = {}
    commits: dict[str, float] = {}
    replies: dict[str, float] = {}
    kills: list[float] = []
    restores: list[float] = []
    for record in timeline["records"]:
        proc = record.get("proc")
        clk = _clk(record)
        if clk is None:
            continue
        if record.get("type") == "mark":
            kind = record.get("kind")
            if proc == "driver" and kind == "live.trace.kill":
                kills.append(clk)
            elif proc == "proxy" and kind == "live.trace.restore":
                restores.append(clk)
            tid = record.get("trace")
            if not isinstance(tid, str):
                continue
            if proc == "driver" and kind == "live.trace.send":
                sends[tid] = min(sends.get(tid, inf), clk)
            elif proc == "proxy" and kind == "live.trace.recv":
                recvs[tid] = min(recvs.get(tid, inf), clk)
        elif record.get("type") == "span" and proc == "proxy":
            meta = record.get("meta")
            tid = meta.get("trace") if isinstance(meta, dict) else None
            if not isinstance(tid, str):
                continue
            name = record.get("name")
            if name == "live.trace.commit":
                commits[tid] = min(commits.get(tid, inf), clk)
            elif name == "live.trace.reply":
                replies[tid] = min(replies.get(tid, inf), clk)
    violations: list[str] = []
    for tid, recv_clk in sorted(recvs.items()):
        send_clk = sends.get(tid)
        if send_clk is None:
            violations.append(
                f"trace {tid}: proxy recv without any driver send"
            )
        elif send_clk > recv_clk:
            violations.append(
                f"trace {tid}: driver send (clk={send_clk!r}) after "
                f"proxy recv (clk={recv_clk!r})"
            )
    for tid, reply_clk in sorted(replies.items()):
        commit_clk = commits.get(tid)
        if commit_clk is not None and commit_clk > reply_clk:
            violations.append(
                f"trace {tid}: commit (clk={commit_clk!r}) after reply "
                f"(clk={reply_clk!r})"
            )
    restores.sort()
    for k, kill_clk in enumerate(sorted(kills)):
        if k >= len(restores):
            violations.append(
                f"kill {k + 1} (clk={kill_clk!r}): no proxy restore follows"
            )
        elif kill_clk > restores[k]:
            violations.append(
                f"kill {k + 1} (clk={kill_clk!r}) after proxy restore "
                f"(clk={restores[k]!r})"
            )
    return violations


def summarize(timeline: dict[str, Any]) -> dict[str, Any]:
    """Aggregate a merged timeline into run-level numbers.

    The ``retries`` / ``chaos_injected`` counts are mark counts, and
    marks are emitted in the *same branch* as the matching
    ``live.retries`` / ``live.chaos.injected`` counter bumps — so these
    numbers must equal the run's :class:`MetricsRegistry` totals
    exactly (pinned by ``tests/live/test_trace_live.py``).

    ``hit_ages`` is the age-at-delivery distribution (simulation
    seconds since last modification) over live cache HITs, taken from
    ``live.trace.decision`` span metadata.
    """
    spans: dict[str, dict[str, Any]] = {}
    marks: dict[str, int] = {}
    events = 0
    ages: list[float] = []
    for record in timeline["records"]:
        kind = record.get("type")
        if kind == "span":
            name = str(record.get("name"))
            wall = float(record.get("wall", 0.0))
            entry = spans.setdefault(
                name, {"count": 0, "wall_total": 0.0, "wall_max": 0.0}
            )
            entry["count"] += 1
            entry["wall_total"] += wall
            entry["wall_max"] = max(entry["wall_max"], wall)
            meta = record.get("meta")
            if (
                name == "live.trace.decision"
                and isinstance(meta, dict)
                and isinstance(meta.get("age"), (int, float))
            ):
                ages.append(float(meta["age"]))
        elif kind == "mark":
            name = str(record.get("kind"))
            marks[name] = marks.get(name, 0) + 1
        elif kind == "event":
            events += 1
    for entry in spans.values():
        entry["wall_mean"] = entry["wall_total"] / entry["count"]
    hit_ages: dict[str, Any] = {"count": len(ages)}
    if ages:
        hit_ages.update(
            min=min(ages), mean=sum(ages) / len(ages), max=max(ages)
        )
    exchange = spans.get("live.trace.exchange")
    return {
        "schema": "repro.trace.summary/1",
        "spans": spans,
        "marks": marks,
        "events": events,
        "exchanges": exchange["count"] if exchange else 0,
        "retries": marks.get("live.trace.retry", 0),
        "chaos_injected": marks.get("live.trace.chaos", 0),
        "hit_ages": hit_ages,
    }


def _trace_of(record: dict[str, Any]) -> Optional[str]:
    if record.get("type") == "mark":
        tid = record.get("trace")
    else:
        meta = record.get("meta")
        tid = meta.get("trace") if isinstance(meta, dict) else None
    return tid if isinstance(tid, str) else None


def _object_of(record: dict[str, Any]) -> Optional[str]:
    if record.get("type") == "event":
        oid = record.get("id")
    else:
        meta = record.get("meta")
        oid = meta.get("object") if isinstance(meta, dict) else None
    return oid if isinstance(oid, str) else None


def _kind_of(record: dict[str, Any]) -> Optional[str]:
    name = (
        record.get("name")
        if record.get("type") == "span"
        else record.get("kind")
    )
    return name if isinstance(name, str) else None


def grep(
    timeline: dict[str, Any],
    *,
    trace: Optional[str] = None,
    object_id: Optional[str] = None,
    kind: Optional[str] = None,
) -> list[dict[str, Any]]:
    """Filter merged records by trace id, object, and/or kind.

    ``kind`` matches a mark's ``kind``, a span's ``name``, or an
    event's ``kind``.  Filters compose conjunctively; order is the
    timeline's (causal) order.
    """
    out: list[dict[str, Any]] = []
    for record in timeline["records"]:
        if trace is not None and _trace_of(record) != trace:
            continue
        if object_id is not None and _object_of(record) != object_id:
            continue
        if kind is not None and _kind_of(record) != kind:
            continue
        out.append(record)
    return out


def critical_path(
    timeline: dict[str, Any], trace: Optional[str] = None
) -> dict[str, Any]:
    """Decompose one exchange's wall time into proxy-side phases.

    With no ``trace`` id, picks the slowest ``live.trace.exchange``
    span in the timeline.  Phase walls are sums over that trace id (a
    retried exchange replays the reply, so e.g. ``live.trace.reply``
    may aggregate several writes).  ``unattributed`` is the exchange
    wall not covered by any proxy phase — relay hops, socket setup,
    scheduling.  Caveat: ``live.trace.parse`` measures request arrival
    to parsed, so on a keep-alive connection it includes idle time
    between requests and the decomposition is only an upper bound.

    Raises:
        ValueError: when the timeline has no exchange spans, or the
            requested trace id has none.
    """
    exchanges = [
        record
        for record in timeline["records"]
        if record.get("type") == "span"
        and record.get("name") == "live.trace.exchange"
    ]
    if trace is not None:
        exchanges = [r for r in exchanges if _trace_of(r) == trace]
    if not exchanges:
        wanted = "any exchange" if trace is None else f"trace {trace!r}"
        raise ValueError(f"timeline has no live.trace.exchange span for {wanted}")
    slowest = max(exchanges, key=lambda r: float(r.get("wall", 0.0)))
    tid = _trace_of(slowest)
    meta = slowest.get("meta") or {}
    wall = float(slowest.get("wall", 0.0))

    phases = {name: 0.0 for name in PROXY_PHASES}
    origin_wall = 0.0
    retries = 0
    chaos = 0
    for record in timeline["records"]:
        if _trace_of(record) != tid:
            continue
        if record.get("type") == "span":
            name = record.get("name")
            if name in phases:
                phases[str(name)] += float(record.get("wall", 0.0))
            elif name == "live.trace.origin":
                origin_wall += float(record.get("wall", 0.0))
        elif record.get("type") == "mark":
            if record.get("kind") == "live.trace.retry":
                retries += 1
            elif record.get("kind") == "live.trace.chaos":
                chaos += 1
    return {
        "schema": "repro.trace.critical/1",
        "trace": tid,
        "object": meta.get("object"),
        "t": meta.get("t"),
        "verdict": meta.get("verdict"),
        "wall": wall,
        "phases": phases,
        "origin_wall": origin_wall,
        "retries": retries,
        "chaos_injected": chaos,
        "unattributed": max(0.0, wall - sum(phases.values())),
    }


__all__ = [
    "SCHEMA",
    "critical_path",
    "grep",
    "merge",
    "role_trace_paths",
    "summarize",
    "validate",
]

"""The structured trace sink and the simulator observer tee.

A :class:`TraceSink` buffers structured records in memory and writes
them as JSONL on :func:`write_jsonl`.  Two record shapes exist, both
with a stable schema (``docs/OBSERVABILITY.md``):

* **event** — one simulator observer event, teed off the existing
  :data:`repro.core.simulator.EventObserver` stream (all event kinds,
  the four ``fault_*`` kinds included)::

      {"type": "event", "kind": "stale_hit", "t": 1234.5, "id": "/a"}

* **span** — one timed engine-level region (per-grid-point task timing,
  worker id, pool restarts, verify time)::

      {"type": "span", "name": "engine.task", "wall": 0.0123,
       "meta": {"index": 3, "worker": 71234}}

* **mark** — one instantaneous cross-process causal point (the live
  mode's trace propagation; see ``docs/OBSERVABILITY.md`` and
  :mod:`repro.obs.timeline`).  ``trace`` is the exchange's propagated
  trace id (``X-Repro-Trace``), ``clk`` a reading of
  :func:`repro.obs.clock.monotonic` — on Linux ``CLOCK_MONOTONIC`` is
  system-wide, so marks from the driver, proxy, and origin processes
  order on one axis::

      {"type": "mark", "kind": "live.trace.send", "trace": "r17",
       "clk": 1042.317}

Event records are deterministic — a serial and a parallel run of the
same sweep produce the *same event sequence* (the engine merges each
worker's buffered records in submission order).  Span records carry
wall-clock measurements and process ids, so they vary run to run; trace
consumers that diff runs filter on ``type == "event"``.

The tee is installed per process via :func:`install` and consulted once
per :class:`~repro.core.simulator.Simulation` construction through
:func:`instrumented_observer`; with no sink and no metrics registry the
simulator's observer path is exactly the historical one (byte-identical
outputs, pinned by ``tests/obs/test_tracing_inert.py``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from repro.obs import registry as _metrics
from repro.obs.names import is_mark, is_span

#: Trace-schema identifier written into the JSONL header record.
SCHEMA = "repro.trace/1"

#: Observer callback signature (mirrors repro.core.simulator.EventObserver;
#: not imported to keep ``repro.obs`` free of core dependencies).
Observer = Callable[[str, float, str], None]

#: Simulator event kind -> the counter the tee publishes it under.
#: Must stay in bijection with ``repro.core.simulator.EVENT_KINDS``
#: (asserted by ``tests/obs/test_trace.py``); every value is declared in
#: :data:`repro.obs.names.METRIC_NAMES`.
EVENT_METRICS: dict[str, str] = {
    "hit": "sim.event.hit",
    "stale_hit": "sim.event.stale_hit",
    "miss": "sim.event.miss",
    "validation_304": "sim.event.validation_304",
    "validation_200": "sim.event.validation_200",
    "invalidation": "sim.event.invalidation",
    "prefetch": "sim.event.prefetch",
    "dynamic_fetch": "sim.event.dynamic_fetch",
    "fault_invalidation_lost": "sim.event.fault_invalidation_lost",
    "fault_invalidation_dropped": "sim.event.fault_invalidation_dropped",
    "fault_invalidation_recovered": "sim.event.fault_invalidation_recovered",
    "fault_cache_crash": "sim.event.fault_cache_crash",
}


class TraceSink:
    """An in-memory buffer of trace records, flushed to JSONL at the end.

    Buffering (rather than streaming) is what makes worker capture
    possible: a forked worker appends to its inherited sink, the engine
    ships the per-task slice back, and the parent re-appends the slices
    in submission order.

    Args:
        proc: optional role label (``"driver"`` / ``"proxy"`` /
            ``"origin"``) written into the JSONL header; the timeline
            merger stamps it onto every merged record.
        path: also append every record to this file the moment it is
            made, through a :class:`JsonlLog` — for a process that may
            be SIGKILLed before any :func:`write_jsonl` (the live
            crash-restart proxy).  Whoever starts the file writes its
            header (``write_jsonl`` of the still-empty sink); a
            restarted process simply keeps appending.
    """

    def __init__(
        self,
        proc: Optional[str] = None,
        path: Union[str, Path, None] = None,
    ) -> None:
        self.proc = proc
        self.records: list[dict[str, Any]] = []
        self._log = JsonlLog(path) if path is not None else None

    def __len__(self) -> int:
        return len(self.records)

    def event(self, kind: str, t: float, object_id: str) -> None:
        """Record one simulator observer event."""
        self._add({"type": "event", "kind": kind, "t": t, "id": object_id})

    def span(
        self, name: str, wall: float, meta: Optional[dict[str, Any]] = None
    ) -> None:
        """Record one timed region (``wall`` in host seconds) under a
        declared span name (``ValueError`` otherwise)."""
        if not is_span(name):
            raise ValueError(
                f"undeclared span name {name!r} (repro.obs.names.SPAN_NAMES)"
            )
        record: dict[str, Any] = {"type": "span", "name": name, "wall": wall}
        if meta:
            record["meta"] = meta
        self._add(record)

    def mark(
        self, kind: str, trace: Optional[str], clk: float, **meta: Any
    ) -> None:
        """Record one causal point (``clk`` from ``obs.clock.monotonic``).

        ``trace`` is the propagated ``X-Repro-Trace`` id, or ``None``
        for points outside any client exchange (control pulls, restore).
        An undeclared ``kind`` raises ``ValueError``.
        """
        if not is_mark(kind):
            raise ValueError(
                f"undeclared mark kind {kind!r} "
                "(repro.obs.names.TRACE_MARK_NAMES)"
            )
        record: dict[str, Any] = {
            "type": "mark", "kind": kind, "trace": trace, "clk": clk,
        }
        if meta:
            record["meta"] = meta
        self._add(record)

    def _add(self, record: dict[str, Any]) -> None:
        self.records.append(record)
        if self._log is not None:
            self._log.append(record)

    def marks(self) -> list[dict[str, Any]]:
        """Only the mark records (the causal-point subset)."""
        return [r for r in self.records if r["type"] == "mark"]

    def events(self) -> list[dict[str, Any]]:
        """Only the deterministic event records (run-diffable subset)."""
        return [r for r in self.records if r["type"] == "event"]


# -- the process-wide sink ----------------------------------------------------

_sink: Optional[TraceSink] = None


def install(sink: Optional[TraceSink]) -> Optional[TraceSink]:
    """Install the process-wide trace sink; returns the previous one."""
    global _sink
    previous = _sink
    _sink = sink
    return previous


def active() -> Optional[TraceSink]:
    """The installed sink, or None when tracing is off."""
    return _sink


@contextmanager
def installed(sink: TraceSink) -> Iterator[TraceSink]:
    """Scope a sink installation (tests and the CLI use this)."""
    previous = install(sink)
    try:
        yield sink
    finally:
        install(previous)


def span(name: str, wall: float, **meta: Any) -> None:
    """Record a span on the active sink — a no-op when tracing is off."""
    sink = _sink
    if sink is not None:
        sink.span(name, wall, meta or None)


def instrumented_observer(
    observer: Optional[Observer],
) -> Optional[Observer]:
    """Tee a simulator observer through the active sink and registry.

    With neither a sink nor a metrics registry installed this returns
    ``observer`` unchanged (``None`` included) — the simulator keeps its
    historical zero-instrumentation path.  Otherwise the returned
    callable records the event (sink), bumps the matching
    ``sim.event.*`` counter (registry), and forwards to ``observer``
    verbatim, so oracle recording and user observers see exactly the
    stream they would without tracing.
    """
    sink = _sink
    metrics_on = _metrics.active() is not None
    if sink is None and not metrics_on:
        return observer
    event_metrics = EVENT_METRICS

    def tee(kind: str, t: float, object_id: str) -> None:
        current_sink = _sink
        if current_sink is not None:
            current_sink.event(kind, t, object_id)
        registry = _metrics.active()
        if registry is not None:
            metric = event_metrics.get(kind)
            if metric is not None:
                registry.counter(metric).add(1.0)
        if observer is not None:
            observer(kind, t, object_id)

    return tee


def sink_observer(
    sink: TraceSink, observer: Optional[Observer]
) -> Observer:
    """An observer that records each event into ``sink`` and forwards.

    The fast engine uses this to reproduce the reference tee's sink
    stream without the per-event counter bumps — the kernel publishes
    those as whole-run totals once the run is over (see
    :func:`repro.fastpath.kernels.run_kernel`).
    """

    def tee(kind: str, t: float, object_id: str) -> None:
        sink.event(kind, t, object_id)
        if observer is not None:
            observer(kind, t, object_id)

    return tee


def write_jsonl(sink: TraceSink, path: Union[str, Path]) -> int:
    """Write the sink's records to ``path`` as JSONL; returns line count.

    The first line is a header record carrying the schema id (and the
    sink's ``proc`` label when set); every record is serialized with
    sorted keys so dumps are stable.
    """
    target = Path(path)
    header: dict[str, Any] = {"type": "header", "schema": SCHEMA}
    if sink.proc is not None:
        header["proc"] = sink.proc
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(record, sort_keys=True) for record in sink.records
    )
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


class JsonlLog:
    """An append-only JSONL file whose writer may be SIGKILLed mid-write.

    One record per line, written with ``os.open``/``os.write`` under
    ``O_APPEND``: there is no user-space buffer to lose, so a record is
    durable against process death the moment :meth:`append` returns,
    and a writer killed at any instant leaves its complete lines plus
    at most one torn trailing line.  :meth:`load` discards that tail,
    and the first :meth:`append` of each writer lifetime (each
    instance) cuts it off — otherwise the restarted writer's first
    record would be glued onto the fragment and every record after it
    lost with that line.  The live proxy's crash journal
    (:class:`repro.live.journal.Journal`) and a ``TraceSink(path=...)``
    file are both one of these; the file is created on first append.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._tail_checked = False

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one record as a JSON line."""
        if not self._tail_checked:
            self._tail_checked = True
            self._cut_torn_tail()
        data = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        fd = os.open(
            str(self.path),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        try:
            # os.write may write fewer bytes than asked (signal, quota);
            # a partial line that later appends extend would tear the
            # file mid-way and load() would silently stop there, so
            # loop until every byte is down.
            while data:
                written = os.write(fd, data)
                data = data[written:]
        finally:
            os.close(fd)

    def _cut_torn_tail(self) -> None:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        if raw and not raw.endswith(b"\n"):
            os.truncate(self.path, raw.rfind(b"\n") + 1)

    def load(self) -> list[dict[str, Any]]:
        """All complete records, in append order.

        A torn trailing line — the signature of a mid-write SIGKILL —
        is discarded, as is anything after a line that fails to parse
        (nothing valid can follow one: appends never start mid-line).
        Returns an empty list when the file does not exist.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        records: list[dict[str, Any]] = []
        # The final element is "" after a complete line, or the torn
        # tail of an interrupted append; either way it is not a record.
        for part in raw.split(b"\n")[:-1]:
            try:
                record = json.loads(part.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break
            if not isinstance(record, dict):
                break
            records.append(record)
        return records


def load_jsonl(
    path: Union[str, Path],
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a trace file: ``(header, records)``.

    Torn-line tolerant — it is :meth:`JsonlLog.load`, so a file a
    killed process was still appending to yields its complete records.

    Raises:
        ValueError: when the file is missing or empty, or lacks the
            schema header.
    """
    records = JsonlLog(path).load()
    if not records:
        raise ValueError(f"{path}: empty trace file")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") != SCHEMA:
        raise ValueError(f"{path}: missing {SCHEMA} header record")
    return header, records[1:]


def read_jsonl(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Read a trace written by :func:`write_jsonl` (header excluded).

    Torn-line tolerant; see :func:`load_jsonl`.

    Raises:
        ValueError: when the file lacks the schema header.
    """
    return load_jsonl(path)[1]

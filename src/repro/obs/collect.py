"""The engine <-> observability bridge: per-task capture and ordered merge.

Forked pool workers inherit the parent's installed metrics registry,
trace sink, and profiling state at fork time.  Anything a worker
publishes lands in *its* copy; the parent never sees it unless it is
shipped back.  The sweep engine therefore runs every pool task through
:func:`captured` and applies what comes back with :func:`merge`:

1. worker: ``value, payload = captured(run)`` — the task runs under a
   fresh :func:`repro.obs.registry.scoped` registry and freshly reset
   profiling totals, so the payload is simply *everything they hold*
   afterwards (nothing is subtracted), plus the trace records the task
   appended to the inherited sink;
2. parent: ``merge(payload)`` — applied in **submission order** across
   tasks, so the merged registry and event-record sequence are
   identical to what the serial path produces directly.

Counters and histograms merge by addition (order-free); gauges merge
last-write-wins, which the ordered merge makes deterministic — a task's
scope holds every gauge the task set, whatever value an earlier task on
the same worker left behind; trace records merge by concatenation,
which is exactly why order matters.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from repro.obs import profile, registry, trace

R = TypeVar("R")


def captured(run: Callable[[], R]) -> tuple[R, dict[str, Any]]:
    """Run one task in a forked worker; returns its value and the
    picklable payload of what it published.

    Only for a process whose observability state is a private copy: the
    profiling totals are reset, not saved.  Each lane is captured only
    when it was on at fork time — metrics stay off when they were off.
    The sink lane slices by length rather than swapping the sink: an
    append-only list has nothing to subtract, and a caller's
    :class:`~repro.obs.trace.TraceSink` subclass keeps recording.
    """
    payload: dict[str, Any] = {}
    sink = trace.active()
    sink_length = len(sink.records) if sink is not None else 0
    profiling = profile.is_enabled()
    if profiling:
        profile.reset()
    if registry.active() is None:
        value = run()
    else:
        with registry.scoped() as fresh:
            value = run()
        payload["metrics"] = fresh.payload()
    if sink is not None:
        payload["trace"] = sink.records[sink_length:]
    if profiling:
        payload["profile"] = profile.snapshot()
    return value, payload


def merge(payload: dict[str, Any]) -> None:
    """Apply one task's payload to this process's registry/sink/profile.

    The engine calls this once per task, in submission order (a task
    that ran with observability off has an empty payload).
    """
    active_registry = registry.active()
    if "metrics" in payload and active_registry is not None:
        active_registry.merge(payload["metrics"])
    sink = trace.active()
    if "trace" in payload and sink is not None:
        sink.records.extend(payload["trace"])
    if "profile" in payload:
        profile.merge(payload["profile"])

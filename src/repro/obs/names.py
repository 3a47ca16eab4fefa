"""The observability alphabet: every metric and span name, in one place.

The RPR006 lint checker (``repro.lint.checkers.obsnames``) enforces two
directions of agreement between this module and the instrumentation
sites spread across the tree:

* every string literal passed to :func:`repro.obs.registry.emit` /
  ``observe`` / ``set_gauge`` or recorded as a span must be declared in
  :data:`METRIC_NAMES` / :data:`SPAN_NAMES` here;
* every declared name must actually be used somewhere, so the alphabet
  cannot silently drift into dead entries.

Names are dotted, lowercase, and stable — they are part of the trace
and metrics-dump schema (``docs/OBSERVABILITY.md``), and the Prometheus
exposition derives its sanitized identifiers from them.

Histogram bins are *fixed and log-spaced* per histogram name
(:data:`HISTOGRAM_BINS`): two registries that observed the same values
always hold the same bin counts, so per-worker registries merge
deterministically whatever the worker count.
"""

from __future__ import annotations

#: Counter and histogram names the instrumentation may publish.
#: ``sim.event.*`` counters are derived from the simulator's observer
#: stream by the :func:`repro.obs.trace.instrumented_observer` tee — one
#: per :data:`repro.core.simulator.EVENT_KINDS` member.
METRIC_NAMES: tuple[str, ...] = (
    # -- simulator observer-event counters (tee-derived) ---------------
    "sim.event.hit",
    "sim.event.stale_hit",
    "sim.event.miss",
    "sim.event.validation_304",
    "sim.event.validation_200",
    "sim.event.invalidation",
    "sim.event.prefetch",
    "sim.event.dynamic_fetch",
    "sim.event.fault_invalidation_lost",
    "sim.event.fault_invalidation_dropped",
    "sim.event.fault_invalidation_recovered",
    "sim.event.fault_cache_crash",
    # -- simulator distributions (histograms) --------------------------
    "sim.stale_age_seconds",
    "sim.transfer_bytes",
    # -- cache / origin server -----------------------------------------
    "cache.stores",
    "cache.evictions",
    "cache.invalidated",
    "cache.crash_drops",
    "server.gets",
    "server.ims_queries",
    # -- protocols ------------------------------------------------------
    "protocol.refresh_window_seconds",
    # -- fault layer (counted off the compiled schedule) ---------------
    "faults.attempts",
    "faults.lost",
    "faults.dropped",
    "faults.delivered",
    "faults.crashes",
    # -- sweep / engine / oracle ---------------------------------------
    "sweep.grid_points",
    "engine.tasks",
    "engine.pool_restarts",
    "engine.serial_fallback_tasks",
    "engine.fastpath_runs",
    "engine.fastpath_fallbacks",
    "fastpath.metrics_flush",
    "verify.runs",
    # -- live origin/proxy mode (repro.live) ----------------------------
    "live.requests",
    "live.wire_bytes",
    "live.connection_errors",
    "live.chaos.injected",
    "live.retries",
)

#: Span names the trace sink may record (timed regions, not counters).
#: The ``live.trace.*`` spans are the per-exchange phases of the live
#: causal trace (``docs/OBSERVABILITY.md``): parse / decision /
#: upstream / commit / reply on the proxy, origin service time on the
#: origin, and the whole client exchange on the driver.
SPAN_NAMES: tuple[str, ...] = (
    "engine.map",
    "engine.task",
    "fastpath.run",
    "live.feed",
    "live.replay",
    "live.restore",
    "live.trace.commit",
    "live.trace.decision",
    "live.trace.exchange",
    "live.trace.origin",
    "live.trace.parse",
    "live.trace.reply",
    "live.trace.upstream",
    "live.warmup",
    "sweep.run",
    "trace.merge",
    "verify.run",
)

#: Mark kinds the trace sink may record — instantaneous causal points
#: of the live mode's cross-process trace (``repro.obs.timeline``
#: orders and validates them).  RPR006 checks ``mark()`` call literals
#: against this alphabet exactly as it does metrics and spans.
TRACE_MARK_NAMES: tuple[str, ...] = (
    "live.trace.chaos",
    "live.trace.done",
    "live.trace.kill",
    "live.trace.recv",
    "live.trace.restore",
    "live.trace.retry",
    "live.trace.send",
)


def log_bins(
    low: float, high: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Fixed log-spaced histogram bucket upper bounds.

    ``per_decade`` bounds per factor of ten, from ``low`` up to the
    first bound >= ``high``.  Bounds are rounded to 6 significant
    digits so the tuple is reproducible and readable in dumps; values
    above the last bound land in the implicit overflow bucket.

    >>> log_bins(1.0, 100.0, per_decade=1)
    (1.0, 10.0, 100.0)
    """
    if low <= 0.0 or high <= low:
        raise ValueError(f"need 0 < low < high, got {low!r}, {high!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    bounds: list[float] = []
    k = 0
    while True:
        value = low * 10.0 ** (k / per_decade)
        value = float(f"{value:.6g}")
        bounds.append(value)
        if value >= high:
            break
        k += 1
    return tuple(bounds)


#: Bucket upper bounds per histogram name.  Names missing here fall
#: back to :data:`DEFAULT_BINS`.
HISTOGRAM_BINS: dict[str, tuple[float, ...]] = {
    # stale ages: one second .. ~4 months, 3 buckets per decade.
    "sim.stale_age_seconds": log_bins(1.0, 1.0e7),
    # transfer sizes: 1 byte .. 100 MB.
    "sim.transfer_bytes": log_bins(1.0, 1.0e8),
    # protocol refresh windows (TTL / Alex threshold*age), seconds.
    "protocol.refresh_window_seconds": log_bins(1.0, 1.0e8),
    # live per-exchange socket bytes: one header .. 100 MB bodies.
    "live.wire_bytes": log_bins(1.0, 1.0e8),
}

#: Fallback bounds for histograms without a dedicated entry.
DEFAULT_BINS: tuple[float, ...] = log_bins(1.0, 1.0e6)


def is_metric(name: str) -> bool:
    """True when ``name`` is a declared metric name."""
    return name in _METRIC_SET


def is_span(name: str) -> bool:
    """True when ``name`` is a declared span name."""
    return name in _SPAN_SET


def is_mark(name: str) -> bool:
    """True when ``name`` is a declared trace-mark kind."""
    return name in _MARK_SET


_METRIC_SET = frozenset(METRIC_NAMES)
_SPAN_SET = frozenset(SPAN_NAMES)
_MARK_SET = frozenset(TRACE_MARK_NAMES)

"""repro.obs — unified tracing, metrics, and profiling.

One observability layer for the whole reproduction:

* :mod:`repro.obs.registry` — counters/gauges/histograms with fixed
  log-spaced bins, published through zero-overhead-when-disabled module
  handles (:func:`emit` / :func:`observe` / :func:`set_gauge`);
* :mod:`repro.obs.trace` — the structured JSONL trace sink teeing the
  simulator observer stream plus engine-level spans;
* :mod:`repro.obs.profile` — engine phase timers and per-protocol-hook
  self-time (``repro profile``);
* :mod:`repro.obs.clock` — the single audited wall-clock entry point
  (the one module of the seeded packages allowed to bind ``time``);
* :mod:`repro.obs.names` — the declared alphabet of every metric, span
  and mark name; the registry and the trace sink refuse any other;
* :mod:`repro.obs.collect` — ``captured`` / ``merge``, how the sweep
  engine keeps parallel runs equivalent to serial ones;
* :func:`session` — the one ``--metrics`` / ``--trace`` scope both CLIs
  (``repro``, ``python -m repro.experiments``) run their commands in.

Benchmarking is not part of this package: ``bench/`` (``make bench``,
``bench/README.md``) measures the tree from outside and takes its
per-layer numbers from the spans and metrics published here.

Everything here is observer-side only: ``repro.obs`` never imports
``repro.core``, so core stays importable without the instrumentation
layer and the layering is one-directional.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from repro.obs import clock, collect, names, profile, registry, trace
from repro.obs.registry import (
    MetricsRegistry,
    emit,
    observe,
    set_gauge,
)
from repro.obs.trace import TraceSink, instrumented_observer, span


@contextmanager
def session(
    metrics_path: Optional[Path], trace_path: Optional[Path]
) -> Iterator[None]:
    """One command's observability outputs — what ``--metrics PATH`` and
    ``--trace PATH`` mean on every CLI.

    A ``metrics_path`` installs a fresh :class:`MetricsRegistry` and
    dumps it as JSON on exit; a ``trace_path`` installs a
    :class:`TraceSink` and writes JSONL on exit.  Both are flushed even
    when the command fails — a trace of a failing run is exactly when
    you want one — and each write is announced on stderr.
    """
    metrics = MetricsRegistry() if metrics_path is not None else None
    sink = TraceSink() if trace_path is not None else None
    previous_registry = (
        registry.install(metrics) if metrics is not None else None
    )
    previous_sink = trace.install(sink) if sink is not None else None
    try:
        yield
    finally:
        if sink is not None and trace_path is not None:
            trace.install(previous_sink)
            lines = trace.write_jsonl(sink, trace_path)
            print(f"trace: wrote {lines} line(s) to {trace_path}",
                  file=sys.stderr)
        if metrics is not None and metrics_path is not None:
            registry.install(previous_registry)
            metrics_path.write_text(
                json.dumps(metrics.as_dict(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
            print(f"metrics: wrote {metrics_path}", file=sys.stderr)


__all__ = [
    "MetricsRegistry",
    "TraceSink",
    "clock",
    "collect",
    "emit",
    "instrumented_observer",
    "names",
    "observe",
    "profile",
    "registry",
    "session",
    "set_gauge",
    "span",
    "trace",
]

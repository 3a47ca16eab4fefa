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
  (the only ``# repro: noqa[RPR001]`` site in the package);
* :mod:`repro.obs.names` — the declared alphabet of every metric and
  span name, enforced project-wide by lint code RPR006;
* :mod:`repro.obs.collect` — the per-worker capture/merge protocol the
  sweep engine uses to keep parallel runs equivalent to serial ones.

Benchmarking is not part of this package: ``bench/`` (``make bench``,
``bench/README.md``) measures the tree from outside and takes its
per-layer numbers from the spans and metrics published here.

Everything here is observer-side only: ``repro.obs`` never imports
``repro.core``, so core stays importable without the instrumentation
layer and the layering is one-directional.
"""

from __future__ import annotations

from repro.obs import clock, collect, names, profile, registry, trace
from repro.obs.registry import (
    MetricsRegistry,
    emit,
    observe,
    set_gauge,
)
from repro.obs.trace import TraceSink, instrumented_observer, span

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
    "set_gauge",
    "span",
    "trace",
]

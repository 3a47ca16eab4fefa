"""The metrics registry: counters, gauges, and fixed-bin histograms.

One :class:`MetricsRegistry` per process collects everything the
instrumented layers publish — the simulator's observer tee, ``Cache``,
``OriginServer``, the protocols, the fault layer, the sweep engine, and
the oracle.  Publication goes through the module-level handle
(:func:`emit` / :func:`observe` / :func:`set_gauge`): when no registry
is installed each call is a single global load and a ``None`` test, so
instrumented hot paths cost nothing measurable in the default
(disabled) configuration.  A series is created only under a name
declared in :data:`repro.obs.names.METRIC_NAMES` (``ValueError``
otherwise); publishing to an existing series skips that check.

Determinism is the design constraint.  Histograms use *fixed*
log-spaced bucket bounds keyed by metric name
(:data:`repro.obs.names.HISTOGRAM_BINS`), so any two registries that
observed the same values hold identical bins; and what a region
publishes is captured by construction, never by subtraction:
:func:`scoped` installs a *fresh* registry for the region and folds it
into the one it displaced through the exact
:meth:`MetricsRegistry.merge`.  The sweep engine runs each forked
worker's task that way and re-applies the shipped
:meth:`MetricsRegistry.payload` in submission order — a parallel run's
merged registry is byte-identical to the serial run's
(``tests/obs/test_parallel_equivalence.py`` pins this).

>>> reg = MetricsRegistry()
>>> with installed(reg):
...     emit("cache.stores")
...     emit("cache.stores", 2.0)
...     observe("sim.transfer_bytes", 512.0)
>>> reg.as_dict()["counters"]["cache.stores"]
3.0
>>> emit("cache.stores")  # no registry installed: a cheap no-op
>>> reg.as_dict()["counters"]["cache.stores"]
3.0
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.names import DEFAULT_BINS, HISTOGRAM_BINS, is_metric

#: Dump-schema identifier written by :meth:`MetricsRegistry.as_dict`.
SCHEMA = "repro.metrics/1"


def _declared(name: str) -> str:
    """``name``, once it is known to be declared: a typo must not
    silently become a new series."""
    if not is_metric(name):
        raise ValueError(
            f"undeclared metric name {name!r} (repro.obs.names.METRIC_NAMES)"
        )
    return name


def _accumulate(partials: list[float], value: float) -> None:
    """Shewchuk exact accumulation (the ``math.fsum`` inner loop).

    Keeps ``partials`` summing *exactly* to every value accumulated so
    far, so histogram totals are independent of observation grouping —
    a scope's or a worker's partials merged into the parent yield the
    same rounded total the serial path computes directly.
    """
    i = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[i] = low
            i += 1
        value = high
    partials[i:] = [value]


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket histogram with log-spaced upper bounds.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; values
    above the last bound land in the overflow bucket
    (``bucket_counts[-1]``, one longer than ``bounds``).  Bounds are
    fixed per metric name, which is what makes merged output
    deterministic.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "partials", "count")

    def __init__(
        self, name: str, bounds: Optional[tuple[float, ...]] = None
    ) -> None:
        self.name = name
        self.bounds: tuple[float, ...] = (
            bounds if bounds is not None
            else HISTOGRAM_BINS.get(name, DEFAULT_BINS)
        )
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        # Exact running sum as Shewchuk partials: ``total`` is the
        # correctly-rounded sum of every observation, whatever order or
        # grouping (merged scopes) they arrived in.
        self.partials: list[float] = []
        self.count = 0

    @property
    def total(self) -> float:
        """Correctly-rounded sum of all observations."""
        return math.fsum(self.partials)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        _accumulate(self.partials, value)
        self.count += 1


class MetricsRegistry:
    """All metrics of one process (or one merged run)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- publication ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(_declared(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on demand)."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(_declared(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(_declared(name))
        return metric

    # -- output --------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible dump, keys sorted (the ``--metrics`` schema)."""
        return {
            "schema": SCHEMA,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "bounds": list(self._histograms[name].bounds),
                    "counts": list(self._histograms[name].bucket_counts),
                    "total": self._histograms[name].total,
                    "count": self._histograms[name].count,
                }
                for name in sorted(self._histograms)
            },
        }

    # -- payload & merge (how one registry folds into another) ----------------

    def payload(self) -> dict[str, Any]:
        """Everything this registry holds, as a picklable :meth:`merge`
        payload: counter values, gauge values, and per histogram the
        bucket counts, the *exact* total (as Shewchuk partials) and the
        observation count."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: (list(h.bounds), list(h.bucket_counts), list(h.partials),
                    h.count)
                for n, h in self._histograms.items()
            },
        }

    def merge(self, payload: dict[str, Any]) -> None:
        """Fold a :meth:`payload` in: counters and histograms add, gauges
        take the payload's value (ordered merge is the caller's job; the
        engine applies worker payloads in submission order)."""
        for name, diff in payload["counters"].items():
            self.counter(name).add(diff)
        for name, value in payload["gauges"].items():
            self.gauge(name).set(value)
        for name, (bounds, counts, partials, grew) in payload[
            "histograms"
        ].items():
            hist = self.histogram(name)
            if list(hist.bounds) != list(bounds):
                raise ValueError(
                    f"histogram {name!r} bin mismatch: cannot merge "
                    f"{bounds!r} into {hist.bounds!r}"
                )
            for i, bucket_diff in enumerate(counts):
                hist.bucket_counts[i] += bucket_diff
            for partial in partials:
                _accumulate(hist.partials, partial)
            hist.count += grew


# -- the process-wide handle --------------------------------------------------

_registry: Optional[MetricsRegistry] = None


def install(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install the process-wide registry; returns the previous one.

    ``None`` disables metrics collection (the default)."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or None when metrics are off."""
    return _registry


@contextmanager
def installed(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope a registry installation (tests and the CLI use this)."""
    previous = install(registry)
    try:
        yield registry
    finally:
        install(previous)


@contextmanager
def scoped() -> Iterator[MetricsRegistry]:
    """Collect what a region publishes — everything the yielded registry
    holds once the region ends.

    A fresh registry is installed for the region; on exit (an exception
    included) the displaced one is re-installed and, when there is one,
    the fresh one is folded into it through the exact :meth:`merge`, so
    the ambient registry ends byte-identical to direct publication.
    Scopes nest (an inner one folds into the outer); with no ambient
    registry the scope still collects and folds nowhere.
    """
    fresh = MetricsRegistry()
    previous = install(fresh)
    try:
        yield fresh
    finally:
        install(previous)
        if previous is not None:
            previous.merge(fresh.payload())


def emit(name: str, value: float = 1.0) -> None:
    """Add ``value`` to counter ``name`` — a no-op when metrics are off."""
    registry = _registry
    if registry is not None:
        registry.counter(name).add(value)


def observe(name: str, value: float) -> None:
    """Record ``value`` in histogram ``name`` — no-op when metrics are off."""
    registry = _registry
    if registry is not None:
        registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` — a no-op when metrics are off."""
    registry = _registry
    if registry is not None:
        registry.gauge(name).set(value)

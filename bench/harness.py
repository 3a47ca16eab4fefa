"""Timing core of the layered benchmark: slices, calibration, spans.

A workload is a fixed-work **round** repeated for the requested number
of seconds.  A round is cut into **slices** — one timed call into a
public function of the program each (one ``engine_simulate``, one
``sweep_alex``, one ``run_experiment``, one ``run_replay``).  Between
slices the clock runs a fixed **calibration** sample owned by this file
(:class:`Calibration`), and a round's **normalised seconds** are its
mean wall seconds divided by the mean calibration sample of the same
run: time is counted in calibration samples, not in seconds of a box
whose speed changes by tens of percent from one minute to the next.
README.md has the measurements that made this the estimator.

With tracing on, the same calls are additionally recorded as **spans**
(name, start, end, parent, operation id) kept in memory and written as
JSONL when the workload ends; :func:`self_times` turns them into
per-layer self times that sum to the traced wall exactly.
"""

from __future__ import annotations

import json
import random
import resource
import socket
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

now = time.perf_counter

#: Mean calibration sample of the reference box when nothing disturbs
#: it.  Normalised seconds are seconds on a box whose samples take this
#: long, so on the quiet reference box they read like wall seconds.
CALIBRATION_NOMINAL_S = 0.0105
#: Calibration time a clock keeps up, as a share of its timed seconds.
CALIBRATION_SHARE = 0.15


class Calibration:
    """The box's speed gauge: a fixed mix of the work the program does.

    One sample walks a table of lists by a fixed request stream (the
    simulator's inner loop: dict lookups, float compares, stores over a
    few megabytes), builds and parses HTTP-like headers (the wire
    formats: string allocation) and ping-pongs 8 KB over a socket pair
    (the live leg's system calls).  A neighbour on the host slows each
    of them about as much as it slows the program — an arithmetic spin
    that stays in the first-level cache is slowed only half as much —
    so the ratio of a slice to the samples around it repeats where the
    slice's wall seconds do not.
    """

    LOOKUPS = 70_000
    OBJECTS = 2048
    HEADERS = 1500
    EXCHANGES = 800
    PAYLOAD = b"x" * 8192

    def __init__(self) -> None:
        rng = random.Random(12345)
        keys = [f"/obj/{i}" for i in range(self.OBJECTS)]
        self._table = {key: [0.0, float(i)] for i, key in enumerate(keys)}
        self._stream = [
            (float(i), keys[rng.randrange(self.OBJECTS)])
            for i in range(self.LOOKUPS)
        ]
        self._near, self._far = socket.socketpair()

    def close(self) -> None:
        self._near.close()
        self._far.close()

    def sample(self) -> float:
        """Wall seconds of one pass over the three kinds of work."""
        started = now()
        table, expired = self._table, 0
        for when, key in self._stream:
            entry = table[key]
            if when - entry[0] > entry[1]:
                expired += 1
            entry[0] = when
        for i in range(self.HEADERS):
            wire = (f"GET /obj/{i} HTTP/1.1\r\nHost: origin\r\n"
                    f"If-Modified-Since: {i * 7}\r\n"
                    f"Connection: keep-alive\r\n\r\n").encode()
            headers = {}
            for line in wire.decode().split("\r\n")[1:]:
                if line:
                    name, _, value = line.partition(": ")
                    headers[name.lower()] = value
            int(headers["if-modified-since"])
        near, far, payload = self._near, self._far, self.PAYLOAD
        for _ in range(self.EXCHANGES):
            near.sendall(payload)
            pending = len(payload)
            while pending:
                pending -= len(far.recv(65536))
            far.sendall(b"ok")
            near.recv(16)
        return now() - started


class Clock:
    """Slice samples, calibration samples and (when tracing) spans.

    Given a :class:`Calibration`, the clock takes samples of it after
    every slice until they add up to ``CALIBRATION_SHARE`` of the timed
    seconds, so the gauge is read throughout the run and next to every
    slice.  Without one (the reference rounds inside set-up, the rounds
    under a metrics registry) it only times.
    """

    def __init__(
        self, calibration: Optional[Calibration] = None, tracing: bool = False
    ) -> None:
        self.calibration = calibration
        self.tracing = tracing
        self.samples: dict[str, list[float]] = {}
        self.calibrations: list[float] = []
        self.spans: list[dict[str, Any]] = []
        self._open: list[dict[str, Any]] = []
        self._timed = 0.0
        self._calibrated = 0.0

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str, op: Optional[str]) -> dict[str, Any]:
        parent = self._open[-1] if self._open else None
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "name": name,
            "start": now(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: dict[str, Any]) -> None:
        span["end"] = now()
        self._open.pop()

    def add_span(
        self, name: str, start: float, end: float,
        parent: Optional[int], op: Optional[str],
    ) -> int:
        """Record a span measured elsewhere (the live roles' own files)."""
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id, "parent": parent, "op": op,
            "name": name, "start": start, "end": end,
        })
        return span_id

    @contextmanager
    def layer(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        """A span around one call into a layer; free when tracing is off."""
        if not self.tracing:
            yield
            return
        span = self._begin(name, op)
        try:
            yield
        finally:
            self._end(span)

    @contextmanager
    def slice(
        self, key: str, layer: Optional[str] = None
    ) -> Iterator[Optional[dict[str, Any]]]:
        """Time one slice of a round under sample key ``key``.

        When tracing, the slice is also a span named after the layer it
        calls into (``layer``, default the key) with the key as its
        operation id; the span is what the ``with`` statement binds.
        """
        span = self._begin(layer or key, key) if self.tracing else None
        started = now()
        try:
            yield span
        finally:
            elapsed = now() - started
            if span is not None:
                self._end(span)
            self.samples.setdefault(key, []).append(elapsed)
            self._timed += elapsed
            self.calibrate()

    def layer_seconds(self, name: str, op: Optional[str] = None) -> float:
        """Normalised mean span of a layer, optionally of one operation
        (0.0 when the layer was never entered)."""
        walls = [
            span["end"] - span["start"] for span in self.spans
            if span["name"] == name and (op is None or span["op"] == op)
        ]
        return statistics.fmean(walls) / self.speed() if walls else 0.0

    def layer_seconds_sum(self, name: str) -> float:
        """A layer's normalised mean span per operation, summed over operations."""
        ops = {span["op"] for span in self.spans if span["name"] == name}
        return sum(self.layer_seconds(name, op) for op in ops)

    # -- rounds --------------------------------------------------------------

    def calibrate(self) -> None:
        """Bring the calibration samples up to their share of the timed seconds."""
        if self.calibration is None:
            return
        while (not self.calibrations
               or self._calibrated < CALIBRATION_SHARE * self._timed):
            with self.layer("bench.calibration"):
                sample = self.calibration.sample()
            self.calibrations.append(sample)
            self._calibrated += sample

    def mark(self) -> dict[str, int]:
        """Sample counts now; :meth:`rollback` drops what came after."""
        return {name: len(values) for name, values in self.samples.items()}

    def rollback(self, mark: dict[str, int]) -> None:
        """Forget the samples of a round that raised part-way."""
        for name in list(self.samples):
            del self.samples[name][mark.get(name, 0):]
            if not self.samples[name]:
                del self.samples[name]

    # -- estimators ----------------------------------------------------------

    def speed(self) -> float:
        """Mean calibration sample over the nominal one (1.0 without samples)."""
        if not self.calibrations:
            return 1.0
        return statistics.fmean(self.calibrations) / CALIBRATION_NOMINAL_S

    def seconds(self, name: str) -> float:
        """Normalised mean seconds of one slice (0.0 when it never ran)."""
        values = self.samples.get(name)
        return statistics.fmean(values) / self.speed() if values else 0.0

    def normalised_seconds(self, prefix: str = "") -> float:
        """Normalised seconds of one pass over the slices.

        Every slice's mean sample, summed, divided by how much slower
        than nominal the calibration ran during the same run.
        """
        return sum(self.seconds(name) for name in self.samples
                   if name.startswith(prefix))

    def round_walls(self) -> list[float]:
        """Raw wall of each complete round (sum of its slices)."""
        columns = list(self.samples.values())
        if not columns:
            return []
        return [sum(column[i] for column in columns)
                for i in range(min(len(c) for c in columns))]

    def calibration_spread(self) -> float:
        """90th percentile over fastest calibration sample: the noise gauge."""
        if not self.calibrations:
            return 0.0
        ordered = sorted(self.calibrations)
        return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))] / ordered[0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """(value at quantile ``q``, samples lying beyond it) of sorted data."""
    if not ordered:
        return 0.0, 0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index], len(ordered) - 1 - index


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def self_times(spans: Iterable[dict[str, Any]]) -> dict[int, float]:
    """Self time of every span, by span id.

    A span's self time is the time during which it was the innermost
    open span of its chain.  When several chains are open at once (the
    live driver keeps two exchanges in flight on one event loop) each
    instant is shared equally among the innermost open spans, so the
    self times of a tree always sum to the wall of its root.  Children
    are clipped to their parent's interval first (the proxy's parse span
    starts when the connection went idle, before the exchange did).
    """
    by_id = {span["id"]: dict(span) for span in spans}
    order = sorted(by_id)  # parents are recorded before their children
    for span_id in order:
        span = by_id[span_id]
        parent = by_id.get(span["parent"])
        if parent is not None:
            span["start"] = min(max(span["start"], parent["start"]), parent["end"])
            span["end"] = min(max(span["end"], span["start"]), parent["end"])
    # (time, 0=end / 1=start, id): at equal times spans end before others
    # start, and a zero-length span starts before it ends.
    events = []
    for span_id in order:
        span = by_id[span_id]
        events.append((span["start"], 1, span_id))
        events.append((span["end"], 0 if span["end"] > span["start"] else 2,
                       span_id))
    events.sort()
    open_children = {span_id: 0 for span_id in order}
    leaves: set[int] = set()
    totals = {span_id: 0.0 for span_id in order}
    last = events[0][0] if events else 0.0
    for when, kind, span_id in events:
        if leaves and when > last:
            share = (when - last) / len(leaves)
            for leaf in leaves:
                totals[leaf] += share
        last = when
        parent = by_id[span_id]["parent"]
        if kind == 1:
            leaves.add(span_id)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(span_id)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0 and by_id[parent]["end"] > when:
                    leaves.add(parent)
    return totals


def self_time_by_name(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def write_spans(spans: list[dict[str, Any]], path: Path) -> None:
    """One span per line: id, parent, op, name, start, end (seconds)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as stream:
        for span in spans:
            stream.write(json.dumps(span, sort_keys=True) + "\n")

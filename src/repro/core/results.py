"""Simulation result container, its codec and differ, and cross-trace
aggregation.

What a run *is* when written down or compared is decided here, once:
:func:`result_to_dict` / :func:`result_from_dict` are the only
(de)serialisation of the 13 counters + 15 ledger cells
(:data:`~repro.core.metrics.COUNTER_FIELDS`,
:data:`~repro.core.metrics.LEDGER_TABLES`), and :func:`diff_results` /
:func:`diff_events` the only exact comparison — the spec, fast-path and
live oracle legs all call them.

Figure 6's caption — "These results depict the averages of the FAS, HCS,
and DAS traces" — requires averaging results across independent
simulation runs; :func:`average_results` implements exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.metrics import (
    COUNTER_FIELDS,
    LEDGER_TABLES,
    BandwidthLedger,
    ConsistencyCounters,
)

#: The fields that say which run a result is, compared before its cells.
_IDENTITY_FIELDS = ("protocol_name", "mode", "duration")


@dataclass
class SimulationResult:
    """Everything one simulation run reports.

    Attributes:
        protocol_name: human-readable protocol label (e.g. ``alex(10%)``).
        mode: ``base`` or ``optimized`` simulator mode.
        counters: request/server event counts.
        bandwidth: byte accounting.
        duration: simulated time covered by the run, in seconds.
    """

    protocol_name: str
    mode: str
    counters: ConsistencyCounters = field(default_factory=ConsistencyCounters)
    bandwidth: BandwidthLedger = field(default_factory=BandwidthLedger)
    duration: float = 0.0

    @property
    def total_megabytes(self) -> float:
        """Total consistency bandwidth in MB."""
        return self.bandwidth.total_megabytes

    @property
    def miss_rate(self) -> float:
        """Cache miss rate over the run."""
        return self.counters.miss_rate

    @property
    def hit_rate(self) -> float:
        """Cache hit rate over the run."""
        return self.counters.hit_rate

    @property
    def stale_hit_rate(self) -> float:
        """Stale hit rate over the run."""
        return self.counters.stale_hit_rate

    @property
    def server_operations(self) -> int:
        """Total server operations over the run (Figure 8's metric)."""
        return self.counters.server_operations

    @property
    def mean_round_trips(self) -> float:
        """Average synchronous server round trips per request (latency)."""
        return self.counters.mean_round_trips

    def summary(self) -> dict[str, float]:
        """A flat dict of the headline metrics, for reports and tests."""
        return {
            "total_mb": self.total_megabytes,
            "miss_rate": self.miss_rate,
            "stale_hit_rate": self.stale_hit_rate,
            "server_operations": float(self.server_operations),
            "requests": float(self.counters.requests),
            "mean_round_trips": self.mean_round_trips,
        }


def result_to_dict(result: SimulationResult, *, sparse: bool = False) -> dict:
    """Serialize a result to a JSON-compatible dict.

    Everything a stored run needs to be compared later: protocol, mode,
    duration, full counters, and the per-category byte ledger.
    ``sparse`` strips zero cells and empty tables — the form a delta
    (one live transaction's journal record) is written in;
    :func:`result_from_dict` reads both.
    """
    counters = {
        name: getattr(result.counters, name) for name in COUNTER_FIELDS
    }
    bandwidth = {
        table: dict(getattr(result.bandwidth, table))
        for table in LEDGER_TABLES
    }
    if sparse:
        counters = {name: v for name, v in counters.items() if v}
        bandwidth = {
            table: {category: v for category, v in cells.items() if v}
            for table, cells in bandwidth.items()
            if any(cells.values())
        }
    return {
        "protocol_name": result.protocol_name,
        "mode": result.mode,
        "duration": result.duration,
        "counters": counters,
        "bandwidth": bandwidth,
    }


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a result serialized by :func:`result_to_dict`.

    A cell the dict does not name (the sparse form) is zero.

    Raises:
        KeyError: when required fields are missing, or a counter is
            not a :class:`ConsistencyCounters` field.
        ValueError: when the ledger contains unknown tables or
            categories.
    """
    result = SimulationResult(
        protocol_name=data["protocol_name"],
        mode=data["mode"],
        duration=float(data["duration"]),
    )
    for field_name, value in data["counters"].items():
        if field_name not in COUNTER_FIELDS:
            raise KeyError(f"unknown counter field: {field_name!r}")
        setattr(result.counters, field_name, value)
    for table_name, cells in data["bandwidth"].items():
        if table_name not in LEDGER_TABLES:
            raise ValueError(f"unknown ledger table: {table_name!r}")
        table = getattr(result.bandwidth, table_name)
        for category, value in cells.items():
            if category not in table:
                raise ValueError(f"unknown ledger category: {category!r}")
            table[category] = value
    return result


def _cells(result: SimulationResult) -> dict[str, object]:
    """The surface a result is compared on, flat: cell name -> value."""
    data = result_to_dict(result)
    cells = {name: data[name] for name in _IDENTITY_FIELDS}
    for name, value in data["counters"].items():
        cells[f"counters.{name}"] = value
    for table, row in data["bandwidth"].items():
        for category, value in row.items():
            cells[f"bandwidth.{table}[{category}]"] = value
    return cells


def diff_results(
    actual: SimulationResult,
    expected: SimulationResult,
    *,
    label: str = "fastpath",
    sides: tuple[str, str] = ("fast", "reference"),
) -> list[str]:
    """Every exact difference between two results (empty = identical).

    The one comparison every oracle leg runs: identity fields, all 13
    counters, all 15 ledger cells, each with ``==`` — floats included
    (``stale_age_sum``, ``duration``); every engine mirrors the
    reference's arithmetic expression-for-expression so that no
    tolerance is needed.  One line per differing cell, in one format:
    ``<label>.counters.hits: <side>=... <side>=...`` (a cell only one
    side has reads ``None`` there).
    """
    ours, theirs = _cells(actual), _cells(expected)
    return [
        f"{label}.{cell}: {sides[0]}={ours.get(cell)!r} "
        f"{sides[1]}={theirs.get(cell)!r}"
        for cell in {**ours, **theirs}
        if ours.get(cell) != theirs.get(cell)
    ]


def diff_events(
    actual: list[tuple[str, float, str]],
    expected: list[tuple[str, float, str]],
    *,
    label: str = "fastpath",
    sides: tuple[str, str] = ("fast", "reference"),
    limit: int = 20,
) -> list[str]:
    """Event-stream differences, event-for-event (empty = identical)."""
    lines: list[str] = []
    for i, (mine, other) in enumerate(zip(actual, expected)):
        if mine != other:
            lines.append(
                f"{label}.event[{i}]: {sides[0]}={mine!r} "
                f"{sides[1]}={other!r}"
            )
            if len(lines) >= limit:
                break
    if len(actual) != len(expected):
        lines.append(
            f"{label}.event count: {sides[0]}={len(actual)} "
            f"{sides[1]}={len(expected)}"
        )
    return lines


def merge_results(results: Sequence[SimulationResult]) -> SimulationResult:
    """Sum counters and bandwidth across runs (e.g. the three campus traces).

    The merged result keeps the protocol name and mode of the first run;
    all runs must share them.

    Raises:
        ValueError: on an empty sequence or mismatched protocols/modes.
    """
    if not results:
        raise ValueError("cannot merge zero results")
    first = results[0]
    for r in results[1:]:
        if r.protocol_name != first.protocol_name or r.mode != first.mode:
            raise ValueError(
                "cannot merge results from different protocols/modes: "
                f"{r.protocol_name}/{r.mode} vs {first.protocol_name}/{first.mode}"
            )
    merged = SimulationResult(first.protocol_name, first.mode)
    for r in results:
        merged.counters.merge(r.counters)
        merged.bandwidth.merge(r.bandwidth)
        merged.duration = max(merged.duration, r.duration)
    return merged


def average_results(results: Sequence[SimulationResult]) -> dict[str, float]:
    """Average the headline metrics across runs, as Figure 6 does.

    Bandwidth is averaged in MB; rates are averaged as rates (each trace
    weighted equally, matching "the averages of the FAS, HCS, and DAS
    traces").
    """
    if not results:
        raise ValueError("cannot average zero results")
    n = len(results)
    keys = results[0].summary().keys()
    return {
        key: sum(r.summary()[key] for r in results) / n for key in keys
    }

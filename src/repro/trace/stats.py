"""Mutability statistics — the Table 1 computation.

Table 1 summarizes each campus server over its measurement window by:
files, requests, % remote requests, total changes, % mutable files, and
% very mutable files ("those that were observed to change more than 5
times").

Two computation paths are provided:

* :func:`mutability_from_histories` — ground truth from the modification
  schedules (what actually changed inside the window);
* :func:`mutability_from_trace` — what the paper could actually see:
  changes *observed* through the request log's Last-Modified extension.
  Changes that no request straddles are invisible, so observed counts
  lower-bound the truth; the tests quantify the gap.
  :func:`mutability_from_columns` counts the same row from a request
  stream's columns, with no log record built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.objects import ObjectHistory
from repro.trace.records import Trace

#: Threshold above which a file counts as "very mutable" (Table 1).
VERY_MUTABLE_THRESHOLD: int = 5


@dataclass(frozen=True)
class MutabilityStats:
    """One Table 1 row.

    Attributes:
        name: server label.
        files: population size.
        requests: total requests in the window.
        pct_remote: percentage of requests from outside the home domain.
        total_changes: content changes in the window.
        pct_mutable: percentage of files changing at least once.
        pct_very_mutable: percentage changing more than
            :data:`VERY_MUTABLE_THRESHOLD` times.
    """

    name: str
    files: int
    requests: int
    pct_remote: float
    total_changes: int
    pct_mutable: float
    pct_very_mutable: float

    def as_row(self) -> tuple:
        """The row in Table 1's column order."""
        return (
            self.name,
            self.files,
            self.requests,
            round(self.pct_remote, 2),
            self.total_changes,
            round(self.pct_mutable, 2),
            round(self.pct_very_mutable, 2),
        )


def daily_change_probability(
    total_changes: int, files: int, window_days: float
) -> float:
    """The paper's per-day change probability: changes / (files x days).

    E.g. HCS: "573 files changing 260 times over 25 days.  This yields a
    1.8% average change probability."

    Raises:
        ValueError: for non-positive files or window.
    """
    if files <= 0 or window_days <= 0:
        raise ValueError("files and window_days must be positive")
    return total_changes / (files * window_days)


def _percent(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def _mutability_percentages(
    change_counts: Sequence[int],
) -> tuple[int, float, float]:
    total = sum(change_counts)
    mutable = sum(1 for c in change_counts if c >= 1)
    very = sum(1 for c in change_counts if c > VERY_MUTABLE_THRESHOLD)
    n = len(change_counts)
    return total, _percent(mutable, n), _percent(very, n)


def mutability_from_histories(
    histories: Iterable[ObjectHistory],
    window: float,
    *,
    name: str = "synthetic",
    requests: int = 0,
    pct_remote: float = 0.0,
) -> MutabilityStats:
    """Ground-truth Table 1 row from modification schedules.

    Args:
        histories: the population.
        window: measurement window length in seconds; changes in
            ``(0, window]`` count.
        name / requests / pct_remote: passthrough columns not derivable
            from schedules alone.
    """
    counts = [h.schedule.changes_in(0.0, window) for h in histories]
    total, pct_mut, pct_very = _mutability_percentages(counts)
    return MutabilityStats(
        name=name,
        files=len(counts),
        requests=requests,
        pct_remote=pct_remote,
        total_changes=total,
        pct_mutable=pct_mut,
        pct_very_mutable=pct_very,
    )


def default_is_remote(client: str) -> bool:
    """The campus heuristic: anything not in harvard.edu is remote.

    "Any request that was not generated by a client in our campus domain
    was considered remote."
    """
    return not client.endswith(".harvard.edu")


def mutability_from_trace(
    trace: Trace,
    *,
    is_remote: Callable[[str], bool] = default_is_remote,
    name: Optional[str] = None,
) -> MutabilityStats:
    """Observed Table 1 row from an access trace.

    Changes are detected through Last-Modified transitions between
    successive requests for the same path (the paper's log extension);
    the remote percentage uses ``is_remote`` on the client host.
    """
    observed = trace.observed_changes()
    paths = trace.paths()
    counts = [observed.get(p, 0) for p in paths]
    total, pct_mut, pct_very = _mutability_percentages(counts)
    remote = sum(1 for r in trace if is_remote(r.client))
    return MutabilityStats(
        name=name or trace.name,
        files=len(paths),
        requests=len(trace),
        pct_remote=_percent(remote, len(trace)),
        total_changes=total,
        pct_mutable=pct_mut,
        pct_very_mutable=pct_very,
    )


def mutability_from_columns(
    objs: Sequence[int],
    stamps: Sequence[float],
    logged: Sequence[bool],
    clients: Sequence[str],
    *,
    name: str,
) -> MutabilityStats:
    """:func:`mutability_from_trace`'s row for the trace a request stream
    would log, counted from the stream's columns.

    Args:
        objs: per request, its object's index.
        stamps: per request, the object's Last-Modified then; rows past
            the requests (a trailing sentinel) are ignored.
        logged: per object index, whether its requests log a
            Last-Modified (dynamic content does not).
        clients: per request, the client host its log line names; the
            remote share uses :func:`default_is_remote`.
        name: the row's label.
    """
    count = len(objs)
    requested = np.fromiter(objs, np.int64, count)
    stamp = np.fromiter(stamps, np.float64, count)
    # Each object's requests in order: a change is a request logging
    # another Last-Modified than the same object's request before it.
    order = np.argsort(requested, kind="stable")
    by_object, stamp = requested[order], stamp[order]
    later = by_object[1:]
    changed = ((later == by_object[:-1]) & (stamp[1:] != stamp[:-1])
               & np.asarray(logged, dtype=bool)[later])
    changes = np.bincount(later[changed], minlength=len(logged))
    counts = changes[np.bincount(requested, minlength=len(logged)) > 0]
    total, pct_mut, pct_very = _mutability_percentages(counts.tolist())
    return MutabilityStats(
        name=name,
        files=len(counts),
        requests=count,
        pct_remote=_percent(sum(map(default_is_remote, clients)), count),
        total_changes=total,
        pct_mutable=pct_mut,
        pct_very_mutable=pct_very,
    )

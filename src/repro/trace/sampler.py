"""Daily-granularity modification sampling — the BU methodology (Table 2).

"Each day between March 28 and October 7, Bestavros sampled the server
and recorded all the files that were modified since the previous day."
(Section 4.2)

:class:`DailySampler` replays that measurement over a synthetic
population: once per day it records which files changed during the
preceding day.  Two properties of the real measurement are reproduced
faithfully:

* **day-granularity masking** — multiple changes within one day collapse
  into a single observation ("It is possible that the one day granularity
  masked a number of changes");
* **the conservative life-span bias** — "we err on the side of
  conservatism ... assuming that all data changed at least once during
  the measurement interval.  This biases the results because the longest
  life-span we consider is 186 days."  Files never observed to change are
  assigned one change, i.e. a life-span equal to the full window.

The paper does not spell out its estimator formulas, so ours are stated
explicitly:

* per-file **life-span** = window / max(observed change-days, 1), capped
  at the window length;
* per-file **age** at window end = time since the last observed change,
  or the full window for never-changed files (again the cap).

EXPERIMENTS.md compares the recovered per-type numbers against Table 2 as
shape-level checks (ordering and ballpark), not digit matches.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.clock import DAY
from repro.core.objects import ObjectHistory


@dataclass(frozen=True)
class DailySample:
    """One day's observation: which files changed since the previous day."""

    day: int
    changed: frozenset[str]


@dataclass(frozen=True)
class LifespanEstimate:
    """Per-type aggregate the Table 2 BU columns report.

    Attributes:
        file_type: the type label.
        files: number of files of this type in the population.
        observed_change_days: total change-day observations.
        avg_age_days: mean age at window end, in days.
        median_lifespan_days: median estimated life-span, in days.
        mean_lifespan_days: mean estimated life-span, in days.
    """

    file_type: str
    files: int
    observed_change_days: int
    avg_age_days: float
    median_lifespan_days: float
    mean_lifespan_days: float


class DailySampler:
    """Sample a population's modifications at one-day granularity.

    Args:
        histories: the population to observe.
        window: measurement window in seconds; sampling happens at the
            end of each whole day in ``[1, window/DAY]``.

    Raises:
        ValueError: for a window shorter than one day.
    """

    def __init__(
        self, histories: Iterable[ObjectHistory], window: float
    ) -> None:
        self.histories = list(histories)
        if window < DAY:
            raise ValueError(
                f"window must cover at least one day, got {window} s"
            )
        self.window = float(window)
        self.days = int(self.window // DAY)

    def run(self) -> list[DailySample]:
        """Produce the day-by-day observation log: day ``d`` holds the
        files with a change in ``((d - 1) * DAY, d * DAY]``.  Each
        schedule's changes are put into their days once."""
        bounds = [day * DAY for day in range(self.days + 1)]
        changed: list[list[str]] = [[] for _ in bounds]
        for h in self.histories:
            for t in h.schedule.times:
                # The first bound at or past t closes t's day.
                day = bisect_left(bounds, t)
                if 0 < day <= self.days:
                    changed[day].append(h.object_id)
        return [DailySample(day=day, changed=frozenset(changed[day]))
                for day in range(1, self.days + 1)]

    def observed_change_days(
        self, samples: Sequence[DailySample]
    ) -> dict[str, int]:
        """Change-day count per file (the masked change count)."""
        counts = {h.object_id: 0 for h in self.histories}
        for sample in samples:
            for oid in sample.changed:
                counts[oid] += 1
        return counts

    def last_observed_change(
        self, samples: Sequence[DailySample]
    ) -> dict[str, int]:
        """Last day (1-based) each file was seen changing; 0 if never."""
        last = {h.object_id: 0 for h in self.histories}
        for sample in samples:
            for oid in sample.changed:
                last[oid] = sample.day
        return last

    def estimate_lifespans(
        self, samples: Sequence[DailySample]
    ) -> dict[str, LifespanEstimate]:
        """Per-type life-span and age estimates with the paper's bias."""
        window_days = float(self.days)
        counts = self.observed_change_days(samples)
        last = self.last_observed_change(samples)
        by_type: dict[str, list[ObjectHistory]] = {}
        for h in self.histories:
            by_type.setdefault(h.obj.file_type, []).append(h)

        estimates: dict[str, LifespanEstimate] = {}
        for file_type, members in sorted(by_type.items()):
            lifespans, ages, total_obs = [], [], 0
            for h in members:
                observed = counts[h.object_id]
                total_obs += observed
                # Conservative bias: never-changed files are treated as
                # having changed exactly once over the window.
                lifespan = window_days / max(observed, 1)
                lifespans.append(min(lifespan, window_days))
                last_day = last[h.object_id]
                age = window_days - last_day if last_day else window_days
                ages.append(min(age, window_days))
            estimates[file_type] = LifespanEstimate(
                file_type=file_type,
                files=len(members),
                observed_change_days=total_obs,
                avg_age_days=statistics.fmean(ages),
                median_lifespan_days=statistics.median(lifespans),
                mean_lifespan_days=statistics.fmean(lifespans),
            )
        return estimates

    def masking_loss(self, samples: Sequence[DailySample]) -> float:
        """Fraction of true changes hidden by day granularity.

        Compares observed change-days against the schedules' ground
        truth; the paper conjectures this masking is small ("it is
        unlikely" to hide an order of magnitude).
        """
        true_changes = sum(
            h.schedule.changes_in(0.0, self.days * DAY)
            for h in self.histories
        )
        observed = sum(self.observed_change_days(samples).values())
        if true_changes == 0:
            return 0.0
        return 1.0 - observed / true_changes

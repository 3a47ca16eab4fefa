"""Worrell's synthetic workload — the base/optimized simulator input.

Worrell "modeled the file lifetime distribution as a flat distribution
between the minimum and maximum observed lifetimes" and "used a uniform
distribution to generate file requests" (Sections 2.0/3.0).  Each file
draws one lifetime L from U(min, max) and is modified every L seconds
(phase randomized); requests pick files uniformly at random at uniform
times.

Default parameters are calibrated to the run the paper describes:
"one run of the base simulator included accesses to 2085 files over a 56
day simulated run.  Those 2085 files changed 19,898 times yielding a 17%
average probability that on any given day a particular file changed."
With L ~ U(1 day, 18 days), the expected number of changes is
``files * duration * E[1/L] = 2085 * 56 * ln(18)/17 ≈ 19.9k`` — the
paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import DAY
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.workload.base import Workload, sorted_request_times


@dataclass
class WorrellWorkload:
    """Builder for the flat-lifetime, uniform-access workload.

    Attributes:
        files: population size (paper run: 2085).
        requests: number of client requests across the window.
        duration: simulated period in seconds (paper run: 56 days).
        min_lifetime / max_lifetime: bounds of the flat lifetime
            distribution; the defaults reproduce the paper's ≈19.9k
            changes.
        mean_size: mean body size in bytes ("each file averages several
            thousand bytes").
        size_sigma: lognormal shape for sizes (0 = constant size).
        seed: RNG seed; every build is deterministic given the seed.
    """

    files: int = 2085
    requests: int = 100_000
    duration: float = 56 * DAY
    min_lifetime: float = 1 * DAY
    max_lifetime: float = 18 * DAY
    mean_size: int = 10_000
    size_sigma: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.files <= 0:
            raise ValueError(f"files must be positive: {self.files}")
        if self.requests < 0:
            raise ValueError(f"requests must be non-negative: {self.requests}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if not 0 < self.min_lifetime <= self.max_lifetime:
            raise ValueError(
                "need 0 < min_lifetime <= max_lifetime, got "
                f"[{self.min_lifetime}, {self.max_lifetime}]"
            )
        if self.mean_size <= 0:
            raise ValueError(f"mean_size must be positive: {self.mean_size}")

    def expected_changes(self) -> float:
        """Analytic expectation of in-window modifications.

        Files modified every L with L ~ U(a, b) produce duration/L changes
        each; E[1/L] = ln(b/a)/(b-a).
        """
        a, b = self.min_lifetime, self.max_lifetime
        if a == b:
            mean_rate = 1.0 / a
        else:
            mean_rate = float(np.log(b / a) / (b - a))
        return self.files * self.duration * mean_rate

    def build(self) -> Workload:
        """Generate the workload deterministically from the seed."""
        rng = np.random.default_rng(self.seed)
        histories: list[ObjectHistory] = []
        if self.size_sigma > 0:
            mu = np.log(self.mean_size) - 0.5 * self.size_sigma**2
            sizes = rng.lognormal(mean=mu, sigma=self.size_sigma,
                                  size=self.files)
            sizes = np.maximum(64, np.round(sizes)).astype(int)
        else:
            sizes = np.full(self.files, self.mean_size, dtype=int)
        lifetimes = rng.uniform(self.min_lifetime, self.max_lifetime,
                                size=self.files)
        phases = rng.uniform(0.0, lifetimes)
        for i in range(self.files):
            lifetime = float(lifetimes[i])
            phase = float(phases[i])
            times = np.arange(phase, self.duration, lifetime)
            created = phase - lifetime
            obj = WebObject(
                object_id=f"/worrell/f{i:05d}",
                size=int(sizes[i]),
                file_type="html",
                created=created,
            )
            histories.append(
                ObjectHistory(obj, ModificationSchedule(created, times))
            )
        times = sorted_request_times(rng, self.requests, self.duration)
        picks = rng.integers(0, self.files, size=self.requests)
        # Python's floats and the histories' own ids, gathered in C.
        ids = np.array([history.obj.object_id for history in histories],
                       dtype=object)
        request_list = list(zip(np.asarray(times).tolist(), ids[picks].tolist()))
        return Workload(
            histories=histories,
            requests=request_list,
            duration=self.duration,
            name=f"worrell(files={self.files}, requests={self.requests})",
        )

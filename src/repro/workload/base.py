"""Common workload containers.

A workload is everything one simulation run needs: the object population
with modification schedules (the origin server's contents) and the
time-ordered client request stream.  Generators in this package build
:class:`Workload` instances; the experiments feed them straight into
:func:`repro.core.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Optional, Sequence

from repro.core.objects import ObjectHistory
from repro.core.server import OriginServer


@dataclass
class Workload:
    """One generated workload.

    Attributes:
        histories: the object population with modification schedules.
        requests: time-ordered ``(time, object_id)`` pairs.
        duration: length of the simulated period in seconds; requests and
            in-window modifications all fall in ``[0, duration]``.
        clients: optional per-request client hostnames, aligned with
            ``requests`` (used by trace synthesis and the % - remote
            statistic of Table 1).
        name: label for reports.
    """

    histories: list[ObjectHistory]
    requests: list[tuple[float, str]]
    duration: float
    clients: Optional[list[str]] = None
    name: str = "workload"
    _server: Optional[OriginServer] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be non-negative: {self.duration}")
        if self.clients is not None and len(self.clients) != len(self.requests):
            raise ValueError(
                f"clients ({len(self.clients)}) must align with requests "
                f"({len(self.requests)})"
            )
        for earlier, later in pairwise(self.requests):
            if later[0] < earlier[0]:
                raise ValueError("requests must be sorted by time")

    def server(self) -> OriginServer:
        """Build (once) and return the origin server for this workload."""
        if self._server is None:
            self._server = OriginServer(self.histories)
        return self._server

    @property
    def total_changes(self) -> int:
        """Modifications scheduled inside the simulated window."""
        return sum(
            h.schedule.changes_in(0.0, self.duration) for h in self.histories
        )

    @property
    def file_count(self) -> int:
        """Number of objects in the population."""
        return len(self.histories)

    def request_counts(self) -> dict[str, int]:
        """Requests per object id (popularity profile of the stream)."""
        counts: dict[str, int] = {}
        for _, oid in self.requests:
            counts[oid] = counts.get(oid, 0) + 1
        return counts


def sorted_request_times(rng, count: int, duration: float) -> Sequence[float]:
    """Draw ``count`` request timestamps uniformly over ``(0, duration)``.

    Uniform order statistics are equivalent to a conditioned Poisson
    process, which is how both Worrell's simulator and our trace
    synthesizer spread requests over the measurement window.
    """
    import numpy as np

    times = rng.uniform(0.0, duration, size=count)
    times.sort()
    return np.asarray(times, dtype=float)


def diurnal_request_times(
    rng,
    count: int,
    duration: float,
    peak_hour: float = 14.0,
    amplitude: float = 0.8,
) -> Sequence[float]:
    """Request timestamps with a daily intensity cycle.

    Real proxy traffic is strongly diurnal (the Microsoft numbers are
    quoted per *weekday*).  Arrival intensity is modulated as
    ``1 + amplitude * cos(2*pi*(t - peak)/DAY)`` and sampled by thinning
    a uniform proposal, so the marginal count is exact and the draw is
    reproducible.

    Args:
        rng: randomness source.
        count: number of timestamps.
        duration: window length in seconds.
        peak_hour: local hour of peak intensity (default mid-afternoon).
        amplitude: modulation depth in [0, 1); 0 degenerates to uniform.

    Raises:
        ValueError: for out-of-range amplitude or non-positive duration.
    """
    import numpy as np

    from repro.core.clock import DAY, HOUR

    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1): {amplitude}")
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration}")
    if count == 0:
        return np.empty(0, dtype=float)
    peak = peak_hour * HOUR
    accepted: list[float] = []
    # Thinning: accept proposals with probability intensity/max_intensity.
    while len(accepted) < count:
        need = count - len(accepted)
        proposals = rng.uniform(0.0, duration, size=max(need * 2, 16))
        intensity = 1.0 + amplitude * np.cos(
            2.0 * np.pi * (proposals - peak) / DAY
        )
        keep = rng.random(len(proposals)) < intensity / (1.0 + amplitude)
        accepted.extend(proposals[keep][:need].tolist())
    times = np.asarray(accepted, dtype=float)
    times.sort()
    return times

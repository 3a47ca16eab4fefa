"""The Microsoft proxy workload — Table 2's access mix as a drivable load.

"The Microsoft proxy cache sits between all Microsoft employees and
anything outside of Microsoft. ... On an average week day, the Microsoft
proxy cache server receives approximately 150,000 requests for web
objects.  Of these, 65% are for image files (gif and jpg)." and "10% of
the requests were for dynamically generated pages."  (Sections 4.2/5.0)

Unlike the campus workloads (one origin server each), this is a *proxy*
workload: requests fan out across many origin sites, the type mix and
sizes follow Table 2, a configurable fraction of requests is dynamic,
and — because the window is a single weekday against objects whose
life-spans are measured in months — almost nothing changes in-window.
That regime is exactly where weak consistency shines, and it is the
substrate for the capacity-planning example (bounded caches, replacement
policies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.clock import DAY
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.workload.base import Workload, sorted_request_times
from repro.workload.filetypes import FileTypeModel
from repro.workload.zipf import ZipfSampler

_LN2 = float(np.log(2.0))
_EXTENSIONS = {"gif": "gif", "html": "html", "jpg": "jpg",
               "cgi": "cgi", "other": "dat"}


@dataclass
class MicrosoftProxyWorkload:
    """Builder for the corporate-proxy weekday workload.

    Attributes:
        sites: number of distinct origin sites behind the proxy.
        files_per_site: static objects per site.
        requests: request volume over the window (paper: ~150,000 per
            weekday).
        duration: window length (one day by default).
        dynamic_fraction: share of requests answered by dynamic pages
            (paper: 10%).
        zipf_s: popularity skew across the whole object population.
        seed: RNG seed.
        type_model: Table 2 registry override.
    """

    sites: int = 40
    files_per_site: int = 120
    requests: int = 150_000
    duration: float = 1 * DAY
    dynamic_fraction: float = 0.10
    zipf_s: float = 0.9
    seed: int = 0
    type_model: Optional[FileTypeModel] = None
    _model: FileTypeModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sites <= 0 or self.files_per_site <= 0:
            raise ValueError("sites and files_per_site must be positive")
        if self.requests < 0:
            raise ValueError(f"requests must be non-negative: {self.requests}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if not 0.0 <= self.dynamic_fraction < 1.0:
            raise ValueError(
                f"dynamic_fraction must be in [0, 1): {self.dynamic_fraction}"
            )
        self._model = self.type_model or FileTypeModel(include_dynamic=False)

    @property
    def total_static_files(self) -> int:
        """Static object population size across all sites."""
        return self.sites * self.files_per_site

    def build(self) -> Workload:
        """Generate the workload deterministically from the seed."""
        rng = np.random.default_rng(self.seed)
        model = self._model
        histories: list[ObjectHistory] = []
        for site in range(self.sites):
            host = f"site{site:02d}.example.com"
            for i in range(self.files_per_site):
                tname = model.sample_types(rng, 1)[0]
                spec = model.spec(tname)
                age = model.sample_initial_age(rng, tname)
                created = -float(age)
                # Month-scale life-spans: in a one-day window, changes
                # are rare Poisson events.
                times: list[float] = []
                if spec.median_lifespan_days is not None:
                    mean_interval = spec.median_lifespan_days * DAY / _LN2
                    t = float(rng.exponential(mean_interval))
                    while t < self.duration:
                        times.append(t)
                        t += float(rng.exponential(mean_interval))
                histories.append(
                    ObjectHistory(
                        WebObject(
                            object_id=(
                                f"/{host}/f{i:04d}.{_EXTENSIONS[tname]}"
                            ),
                            size=model.sample_size(rng, tname),
                            file_type=tname,
                            created=created,
                        ),
                        ModificationSchedule(created, times),
                    )
                )
        static_count = len(histories)

        dynamic_ids: list[str] = []
        if self.dynamic_fraction > 0:
            n_dynamic = max(1, self.total_static_files // 10)
            for j in range(n_dynamic):
                host = f"site{j % self.sites:02d}.example.com"
                size = max(64, int(round(rng.lognormal(
                    mean=np.log(5980) - 0.5 * 0.8**2, sigma=0.8))))
                obj = WebObject(
                    object_id=f"/{host}/cgi-bin/app{j:04d}.cgi",
                    size=size, file_type="cgi", created=-DAY,
                    cacheable=False,
                )
                histories.append(ObjectHistory(obj))
                dynamic_ids.append(obj.object_id)

        times = sorted_request_times(rng, self.requests, self.duration)
        # The Microsoft numbers are a property of the *request* stream
        # (55% of accesses are gif, ...), so draw each request's type
        # from the access mix first, then a Zipf-popular object within
        # that type.  A single global Zipf would let the handful of head
        # objects' types swing the measured mix by several points.
        by_type: dict[str, list[str]] = {}
        for h in histories[:static_count]:
            by_type.setdefault(h.obj.file_type, []).append(h.object_id)
        type_names = model.sample_types(rng, self.requests)
        samplers = {
            tname: ZipfSampler(len(ids), self.zipf_s)
            for tname, ids in by_type.items()
        }
        # Shuffle within each type so popularity is independent of site.
        for ids in by_type.values():
            rng.shuffle(ids)
        is_dynamic = (
            rng.random(self.requests) < self.dynamic_fraction
            if dynamic_ids else np.zeros(self.requests, dtype=bool)
        )
        dyn_sampler = (
            ZipfSampler(len(dynamic_ids), self.zipf_s) if dynamic_ids else None
        )
        dyn_picks = (
            dyn_sampler.sample(rng, self.requests) if dyn_sampler else None
        )
        request_list = []
        for k, t in enumerate(times):
            if is_dynamic[k]:
                request_list.append(
                    (float(t), dynamic_ids[int(dyn_picks[k])])
                )
                continue
            tname = type_names[k]
            if tname not in by_type:
                tname = max(by_type, key=lambda name: len(by_type[name]))
            ids = by_type[tname]
            rank = int(samplers[tname].sample(rng, 1)[0])
            request_list.append((float(t), ids[rank]))
        clients = [
            f"ws{int(c):04d}.corp.microsoft.com"
            for c in rng.integers(0, 2000, size=self.requests)
        ]
        return Workload(
            histories=histories,
            requests=request_list,
            duration=self.duration,
            clients=clients,
            name=(
                f"microsoft-proxy({self.sites} sites, "
                f"{self.requests} requests)"
            ),
        )

"""Synthetic campus-server workloads matching Table 1.

The modified-workload simulator (Figures 6-8) is driven by traces of
three Harvard campus Web servers.  We cannot obtain the 1995 logs, so
this module synthesizes workloads that reproduce every statistic the
paper gives about them (Table 1) together with the structural
observations the paper says matter:

* request popularity is Zipf-skewed, not uniform;
* mutability is anti-correlated with popularity (Bestavros);
* lifetimes are bimodal — most files never change, a few change in
  bursts;
* per-type sizes and pre-trace ages follow Table 2.

A note on Table 1's arithmetic: with "mutable" read as "changed at least
once" and "very mutable" as "changed more than 5 times", the HCS row is
slightly over-constrained (133 mutable files of which 30 change ≥6 times
forces ≥283 changes, but the row reports 260).  The generator therefore
treats the change total as a floor-respecting target: DAS and FAS are
matched exactly; HCS lands at the feasible minimum (≈9% above the
reported total).  EXPERIMENTS.md records the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.clock import DAY
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.workload.base import Workload, sorted_request_times
from repro.workload.bestavros import choose_mutable_files_banded
from repro.workload.bimodal import mixed_change_times, stable_change_times
from repro.workload.filetypes import FileTypeModel, lognormal_with_mean
from repro.workload.zipf import ZipfSampler

#: Number of changes above which a file is "very mutable" (Table 1:
#: "observed to change more than 5 times").
VERY_MUTABLE_CHANGES: int = 6


@dataclass(frozen=True)
class CampusServerSpec:
    """One Table 1 row: the target statistics for a campus server."""

    name: str
    files: int
    requests: int
    duration: float
    pct_remote: float
    total_changes: int
    pct_mutable: float
    pct_very_mutable: float

    def __post_init__(self) -> None:
        if self.files <= 0 or self.requests < 0:
            raise ValueError("files must be positive, requests non-negative")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        for pct in (self.pct_remote, self.pct_mutable, self.pct_very_mutable):
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"percentage outside [0, 100]: {pct}")
        if self.pct_very_mutable > self.pct_mutable:
            raise ValueError("pct_very_mutable cannot exceed pct_mutable")

    @property
    def n_mutable(self) -> int:
        """Number of files that change at least once."""
        return int(round(self.files * self.pct_mutable / 100.0))

    @property
    def n_very_mutable(self) -> int:
        """Number of files that change more than 5 times."""
        return min(
            int(round(self.files * self.pct_very_mutable / 100.0)),
            self.n_mutable,
        )

    @property
    def min_feasible_changes(self) -> int:
        """Smallest change total consistent with the mutability counts."""
        plain = self.n_mutable - self.n_very_mutable
        return plain + VERY_MUTABLE_CHANGES * self.n_very_mutable

    @property
    def target_changes(self) -> int:
        """The change total the generator will actually produce."""
        return max(self.total_changes, self.min_feasible_changes)


#: DAS — the Division of Applied Sciences server ("think, 'College of
#: Engineering'").
DAS = CampusServerSpec(
    "DAS", files=1403, requests=30_093, duration=30 * DAY,
    pct_remote=84.0, total_changes=321, pct_mutable=6.83,
    pct_very_mutable=2.61,
)
#: FAS — the university web server (most popular, fewest mutable files).
FAS = CampusServerSpec(
    "FAS", files=290, requests=56_660, duration=30 * DAY,
    pct_remote=39.0, total_changes=11, pct_mutable=2.41,
    pct_very_mutable=0.0,
)
#: HCS — the Harvard Computer Society server; the paper's text analyses
#: it over 25 days ("573 files changing 260 times over 25 days").
HCS = CampusServerSpec(
    "HCS", files=573, requests=32_546, duration=25 * DAY,
    pct_remote=50.0, total_changes=260, pct_mutable=23.3,
    pct_very_mutable=5.22,
)

#: All three campus servers, in the order Table 1 lists them.
CAMPUS_SERVERS: tuple[CampusServerSpec, ...] = (DAS, FAS, HCS)

_EXTENSIONS = {"gif": "gif", "html": "html", "jpg": "jpg",
               "cgi": "cgi", "other": "dat"}


@dataclass
class CampusWorkload:
    """Builder for one synthetic campus-server workload.

    Attributes:
        spec: the Table 1 row to match.
        seed: RNG seed.
        zipf_s: request popularity exponent.
        mutability_bias: strength of the within-band popularity↔mutability
            anti-correlation (0 disables it; see
            :func:`repro.workload.bestavros.choose_mutable_files_banded`).
        type_model: file-type registry; defaults to Table 2 with dynamic
            (cgi) content excluded, since the Table 1 statistics cover
            the servers' file populations.
        request_scale: multiplier on the spec's request count, letting
            tests and benchmarks run the same shape at reduced volume.
        mean_mutable_age: mean pre-trace age of ordinary mutable files.
        mean_very_mutable_age: mean pre-trace age of very mutable files.
        burst_span: window over which a very-mutable file's burst of
            edits spreads.  The default (60% of the trace, capped at 18
            days) spaces burst edits a couple of days apart, so a file
            with routine traffic is requested between edits — the regime
            in which the invalidation protocol retransmits per edit while
            an adaptive cache coalesces them.
        top_exclude / bottom_exclude: popularity bands never made
            mutable (most-popular files change least; changes to
            never-requested files are unobservable in a request log).
        dynamic_fraction: fraction of requests redirected to dynamically
            generated (non-cacheable cgi) pages.  The paper's Microsoft
            trace measured 10% and called the trend out as future work
            (Section 5); the default of 0 reproduces the paper's
            file-only simulations.  Dynamic objects are extra objects on
            top of the Table 1 file population, so the static-file
            statistics are unaffected.
    """

    spec: CampusServerSpec
    seed: int = 0
    zipf_s: float = 0.9
    mutability_bias: float = 0.6
    type_model: Optional[FileTypeModel] = None
    request_scale: float = 1.0
    mean_mutable_age: float = 90 * DAY
    mean_very_mutable_age: float = 40 * DAY
    burst_span: Optional[float] = None
    top_exclude: float = 0.08
    bottom_exclude: float = 0.30
    dynamic_fraction: float = 0.0
    _model: FileTypeModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.request_scale <= 0:
            raise ValueError(
                f"request_scale must be positive: {self.request_scale}"
            )
        if not 0.0 <= self.dynamic_fraction < 1.0:
            raise ValueError(
                f"dynamic_fraction must be in [0, 1): {self.dynamic_fraction}"
            )
        self._model = self.type_model or FileTypeModel(include_dynamic=False)

    def _change_counts(self, rng: np.random.Generator) -> np.ndarray:
        """Per-mutable-file change counts meeting the Table 1 constraints."""
        spec = self.spec
        n_mut, n_very = spec.n_mutable, spec.n_very_mutable
        counts = np.ones(n_mut, dtype=int)
        counts[:n_very] = VERY_MUTABLE_CHANGES
        surplus = spec.target_changes - int(counts.sum())
        if surplus > 0 and n_mut > 0:
            # Spread extra changes, favouring the very-mutable files, while
            # keeping plain-mutable files below the very-mutable cutoff.
            weights = np.ones(n_mut)
            weights[:n_very] = 3.0
            weights /= weights.sum()
            extra = rng.multinomial(surplus, weights)
            if n_very < n_mut:
                plain = extra[n_very:]
                cap = VERY_MUTABLE_CHANGES - 1 - counts[n_very:]
                overflow = int(np.maximum(plain - cap, 0).sum())
                extra[n_very:] = np.minimum(plain, cap)
                if overflow and n_very:
                    extra[:n_very] += rng.multinomial(
                        overflow, np.full(n_very, 1.0 / n_very)
                    )
                elif overflow:
                    extra[0] += overflow  # no very-mutable bucket: accept
            counts += extra
        return counts

    def build(self) -> Workload:
        """Generate the workload deterministically from the seed."""
        return self._assemble(self._draw())

    def build_fractions(self, fractions: Iterable[float]) -> Iterator[Workload]:
        """Per fraction, the workload ``build()`` gives at that
        ``dynamic_fraction``, one at a time.

        Every positive fraction consumes the generator alike — it only
        moves the ``uniforms < fraction`` cut of the dynamic draw — so
        they share one draw; a zero fraction draws no dynamic objects
        and gets its own.
        """
        shared: Optional[_Draw] = None
        for fraction in fractions:
            builder = replace(self, dynamic_fraction=fraction)
            if fraction == 0:
                yield builder.build()
                continue
            if shared is None:
                shared = builder._draw()
            yield builder._assemble(shared)

    def _draw(self) -> "_Draw":
        """Everything the seed's generator gives ``build()``; the dynamic
        draws only when ``dynamic_fraction`` is positive."""
        rng = np.random.default_rng(self.seed)
        spec = self.spec
        model = self._model

        type_index = model.sample_type_indices(rng, spec.files)
        type_names = [model.specs[i].name for i in type_index]
        sizes = model.sample_sizes(rng, type_index).tolist()

        n_mut = spec.n_mutable
        mutable_ranks = choose_mutable_files_banded(
            rng, spec.files, n_mut,
            top_exclude=self.top_exclude,
            bottom_exclude=self.bottom_exclude,
            bias=self.mutability_bias,
        )
        # Slot 0..n_very-1 of the change-count vector are the very-mutable
        # files; give them the most popular mutable ranks.  Actively
        # edited pages are also actively read — and a change the request
        # stream never straddles would be invisible to Table 1's
        # observation method in the first place.
        change_count = np.zeros(spec.files, dtype=int)
        change_count[mutable_ranks] = self._change_counts(rng)

        histories: list[ObjectHistory] = []
        for i in range(spec.files):
            tname = type_names[i]
            n_changes = int(change_count[i])
            if n_changes >= VERY_MUTABLE_CHANGES:
                age = max(
                    lognormal_with_mean(rng, self.mean_very_mutable_age, 0.6),
                    DAY,
                )
                span = self.burst_span or min(0.6 * spec.duration, 18 * DAY)
                times = mixed_change_times(
                    rng, n_changes, spec.duration,
                    burst_fraction=0.7, burst_span=span,
                )
            elif n_changes > 0:
                age = max(
                    lognormal_with_mean(rng, self.mean_mutable_age, 0.6), DAY
                )
                times = stable_change_times(rng, n_changes, spec.duration)
            else:
                age = model.sample_initial_age(rng, tname)
                times = []
            created = -float(age)
            obj = WebObject(
                object_id=(
                    f"/{spec.name.lower()}/doc{i:04d}.{_EXTENSIONS[tname]}"
                ),
                size=sizes[i],
                file_type=tname,
                created=created,
            )
            histories.append(
                ObjectHistory(obj, ModificationSchedule(created, times))
            )

        # Dynamic (cgi) pages, if requested, are additional objects on
        # top of the static file population.
        dynamic_ids: list[str] = []
        if self.dynamic_fraction > 0:
            n_dynamic = max(1, int(round(spec.files * 0.1)))
            for j in range(n_dynamic):
                size = max(64, int(round(rng.lognormal(
                    mean=np.log(5980) - 0.5 * 0.8**2, sigma=0.8))))
                obj = WebObject(
                    object_id=f"/{spec.name.lower()}/cgi-bin/gen{j:03d}.cgi",
                    size=size,
                    file_type="cgi",
                    created=-DAY,
                    cacheable=False,
                )
                histories.append(ObjectHistory(obj))
                dynamic_ids.append(obj.object_id)

        n_requests = int(round(spec.requests * self.request_scale))
        sampler = ZipfSampler(spec.files, self.zipf_s)
        times = sorted_request_times(rng, n_requests, spec.duration)
        ranks = sampler.sample(rng, n_requests)
        uniforms = dynamic_picks = None
        if dynamic_ids:
            uniforms = rng.random(n_requests)
            dynamic_picks = ZipfSampler(len(dynamic_ids), self.zipf_s).sample(
                rng, n_requests)
        remote = rng.random(n_requests) < spec.pct_remote / 100.0
        remote_pool = [f"host{j:03d}.remote-isp.net" for j in range(97)]
        local_pool = [
            f"ws{j:02d}.{spec.name.lower()}.harvard.edu" for j in range(41)
        ]
        # One draw per request from its side's pool: broadcasting ``high``
        # consumes the generator exactly as one scalar
        # ``integers(len(pool))`` call per request would.
        hosts = rng.integers(
            0, np.where(remote, len(remote_pool), len(local_pool))
        )
        hosts[~remote] += len(remote_pool)
        pool = remote_pool + local_pool
        return _Draw(
            histories=histories,
            times=times.tolist(),
            ranks=ranks,
            uniforms=uniforms,
            dynamic_picks=dynamic_picks,
            clients=list(map(pool.__getitem__, hosts.tolist())),
        )

    def _assemble(self, draw: "_Draw") -> Workload:
        """The workload of ``draw`` with ``dynamic_fraction`` of its
        requests sent to the dynamic objects (their uniform draw under
        it)."""
        spec = self.spec
        ranks = draw.ranks
        # Map popularity rank -> file index.  Identity keeps rank 0 as
        # file 0; mutability was assigned against these same ranks.
        # Dynamic picks index the objects after the static files.
        if draw.uniforms is not None:
            ranks = np.where(draw.uniforms < self.dynamic_fraction,
                             spec.files + draw.dynamic_picks, ranks)
        object_ids = [h.object_id for h in draw.histories]
        return Workload(
            histories=draw.histories,
            requests=list(zip(
                draw.times, map(object_ids.__getitem__, ranks.tolist())
            )),
            duration=spec.duration,
            clients=draw.clients,
            name=spec.name,
        )


@dataclass(frozen=True)
class _Draw:
    """What :meth:`CampusWorkload._draw` took from the generator: the
    population, per request its time, popularity rank and client, and
    with dynamic objects per request a uniform and a dynamic pick."""

    histories: list[ObjectHistory]
    times: list[float]
    ranks: np.ndarray
    uniforms: Optional[np.ndarray]
    dynamic_picks: Optional[np.ndarray]
    clients: list[str]


def build_campus_workloads(
    seed: int = 0, request_scale: float = 1.0, **kwargs
) -> dict[str, Workload]:
    """Build all three campus workloads (DAS, FAS, HCS).

    Each server gets a distinct derived seed so the three traces are
    independent, as the real logs were.
    """
    workloads = {}
    for offset, spec in enumerate(CAMPUS_SERVERS):
        builder = CampusWorkload(
            spec, seed=seed * 1000 + offset, request_scale=request_scale,
            **kwargs,
        )
        workloads[spec.name] = builder.build()
    return workloads

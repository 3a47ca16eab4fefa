"""Extension: fault injection — what lost invalidations actually cost.

The paper names the invalidation protocol's open weakness but never
measures it: the protocol "is not resilient in the face of network
partition or server crashes" (Section 4.0) — a cache that misses a
callback serves the stale copy forever.  This experiment injects
message loss into the invalidation channel (:mod:`repro.faults`) and
sweeps the loss rate against three recovery policies:

* **none** — the paper's protocol as-is; every lost callback is a
  permanently stale copy (until the next miss or eviction refreshes it).
* **retry** — bounded retransmission: each invalidation is retried with
  exponential backoff, so only messages whose *every* attempt is lost
  go undelivered.
* **retry+lease** — retries plus :class:`LeasedInvalidationProtocol`:
  copies additionally expire ``LEASE_HOURS`` after their last
  validation, so even an undelivered invalidation can produce stale
  hits only inside one lease term.

All three policies at a given loss rate share one fault seed, so they
face the *same* per-message loss draws — the comparison is paired.  The
expected shape: staleness is zero without faults, rises unboundedly
with loss for the bare protocol, drops with retries (paid for in
invalidation control bandwidth), and is age-bounded by the lease.
"""

from __future__ import annotations


from repro.analysis.plots import Series, ascii_chart
from repro.analysis.report import ExperimentReport, ShapeCheck, format_table, pct
from repro.core.clock import hours
from repro.core.metrics import INVALIDATION
from repro.core.protocols import InvalidationProtocol, LeasedInvalidationProtocol
from repro.core.protocols.base import ConsistencyProtocol
from repro.core.results import SimulationResult
from repro.core.simulator import SimulatorMode
from repro.experiments.common import worrell_workload
from repro.fastpath import resolve_engine
from repro.faults import FaultPlan
from repro.obs import clock as obs_clock
from repro.runtime import RunStats, derive_seed, map_ordered, record, resolve_workers
from repro.verify.oracle import checked_simulate, counted_runs

EXPERIMENT_ID = "ext-faults"
TITLE = "Extension: staleness under faulty invalidation delivery"

#: Invalidation-loss probabilities swept (0.0 is the control column).
LOSS_RATES: tuple[float, ...] = (0.0, 0.2, 0.5, 0.8)
#: Recovery policies compared at every loss rate, in presentation order.
POLICIES: tuple[str, ...] = ("none", "retry", "retry+lease")
#: Retransmissions per invalidation under the retry policies.
RETRIES = 3
#: Exponential-backoff base between retransmissions (seconds).
BACKOFF_SECONDS = 300.0
#: Lease term of the leased protocol (hours).
LEASE_HOURS = 24.0


def _protocol(policy: str) -> ConsistencyProtocol:
    if policy == "retry+lease":
        return LeasedInvalidationProtocol(hours(LEASE_HOURS))
    return InvalidationProtocol()


def _plan(policy: str, loss: float, plan_seed: int) -> FaultPlan:
    retries = RETRIES if policy in ("retry", "retry+lease") else 0
    return FaultPlan(
        loss_rate=loss, retries=retries, backoff=BACKOFF_SECONDS,
        seed=plan_seed,
    )


def _cell_metrics(result: SimulationResult) -> dict[str, float]:
    counters = result.counters
    return {
        "stale_hit_rate": result.stale_hit_rate,
        "mean_stale_age_hours": counters.mean_stale_age / 3600.0,
        "invalidations_sent": float(counters.server_invalidations_sent),
        "invalidation_control_kb":
            result.bandwidth.control_bytes[INVALIDATION] / 1024.0,
        "total_mb": result.total_megabytes,
    }


def run(scale: float = 1.0, seed: int = 0) -> ExperimentReport:
    """Sweep invalidation-loss rate against the three recovery policies."""
    workload = worrell_workload(scale, seed)
    started = obs_clock.monotonic()
    resolved = resolve_workers(None)

    # Plans are built in the parent so the loss draws are fixed before
    # any fan-out; the seed depends only on the loss index, so the three
    # policies at one loss rate face identical per-attempt draws.
    cells = [
        (loss, policy, _plan(policy, loss, derive_seed(seed, i)))
        for i, loss in enumerate(LOSS_RATES)
        for policy in POLICIES
    ]

    def run_cell(cell: tuple) -> dict[str, float]:
        loss, policy, plan = cell
        result = checked_simulate(
            workload.server(), _protocol(policy), workload.requests,
            SimulatorMode.OPTIMIZED,
            end_time=workload.duration, faults=plan,
        )
        return _cell_metrics(result)

    with counted_runs() as verified:
        outcomes = map_ordered(run_cell, cells)
    by_policy: dict[str, dict[float, dict[str, float]]] = {
        policy: {} for policy in POLICIES
    }
    rows = []
    for (loss, policy, _), metrics in zip(cells, outcomes):
        by_policy[policy][loss] = metrics
        rows.append((
            f"{loss:.1f}", policy,
            pct(metrics["stale_hit_rate"]),
            f"{metrics['mean_stale_age_hours']:.2f}",
            round(metrics["invalidations_sent"]),
            f"{metrics['invalidation_control_kb']:.1f}",
            f"{metrics['total_mb']:.3f}",
        ))

    table = format_table(
        ("loss", "policy", "stale rate", "stale age h", "invals sent",
         "inval KB", "total MB"),
        rows,
        title=f"Invalidation under injected loss (retries={RETRIES}, "
              f"backoff={BACKOFF_SECONDS:g}s, lease={LEASE_HOURS:g}h):",
    )
    chart = ascii_chart(
        [
            Series("no recovery", LOSS_RATES,
                   [by_policy["none"][rate]["stale_hit_rate"] * 100
                    for rate in LOSS_RATES], glyph="*"),
            Series(f"retry x{RETRIES}", LOSS_RATES,
                   [by_policy["retry"][rate]["stale_hit_rate"] * 100
                    for rate in LOSS_RATES], glyph="o"),
            Series(f"retry + {LEASE_HOURS:g}h lease", LOSS_RATES,
                   [by_policy["retry+lease"][rate]["stale_hit_rate"] * 100
                    for rate in LOSS_RATES], glyph="+"),
        ],
        title="Stale-hit rate vs invalidation loss rate",
        xlabel="per-message loss probability",
        ylabel="stale hits (percent of requests)",
    )

    stale = {
        policy: [
            by_policy[policy][rate]["stale_hit_rate"] for rate in LOSS_RATES
        ]
        for policy in POLICIES
    }
    lossy = [i for i, rate in enumerate(LOSS_RATES) if rate > 0.0]
    checks = [
        ShapeCheck(
            "no-faults-no-staleness",
            all(stale[policy][0] == 0.0 for policy in POLICIES),
            "stale rate 0.00% for every policy at loss 0.0",
        ),
        ShapeCheck(
            "loss-makes-bare-invalidation-stale",
            all(stale["none"][i] > 0.0 for i in lossy),
            "bare protocol stale at every loss > 0: " + ", ".join(
                pct(stale["none"][i]) for i in lossy
            ),
        ),
        ShapeCheck(
            "retries-recover-lost-invalidations",
            all(stale["retry"][i] <= stale["none"][i] for i in lossy)
            and sum(stale["retry"][i] for i in lossy)
            < sum(stale["none"][i] for i in lossy),
            "retry stale rate at/below no-recovery at every loss, "
            f"summed {pct(sum(stale['retry'][i] for i in lossy))} vs "
            f"{pct(sum(stale['none'][i] for i in lossy))}",
        ),
        ShapeCheck(
            "lease-bounds-stale-age",
            all(
                by_policy["retry+lease"][rate]["mean_stale_age_hours"]
                < LEASE_HOURS
                for rate in LOSS_RATES
            ),
            "mean stale age under lease policy "
            + ", ".join(
                f"{by_policy['retry+lease'][r]['mean_stale_age_hours']:.2f}h"
                for r in LOSS_RATES
            )
            + f" — all under the {LEASE_HOURS:g}h lease",
        ),
        ShapeCheck(
            "retries-cost-control-bandwidth",
            by_policy["retry"][0.5]["invalidation_control_kb"]
            > by_policy["none"][0.5]["invalidation_control_kb"],
            f"at loss 0.5: retry "
            f"{by_policy['retry'][0.5]['invalidation_control_kb']:.1f} KB "
            f"vs none "
            f"{by_policy['none'][0.5]['invalidation_control_kb']:.1f} KB "
            "of invalidation control traffic",
        ),
    ]

    stats = RunStats(
        wall_seconds=obs_clock.monotonic() - started,
        simulated_requests=len(cells) * len(workload.requests),
        workers=resolved,
        grid_points=len(cells),
        peak_grid_size=len(cells),
        verified_runs=verified(),
        engine=resolve_engine(),
    )
    record(stats)
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rendered=f"{table}\n\n{chart}",
        checks=checks,
        data={
            "loss_rates": list(LOSS_RATES),
            # Dict-of-columns layout so --csv / --svg pick it up as a
            # chart: stale rate (%) per recovery policy vs loss rate.
            "stale_rate": {
                "loss": list(LOSS_RATES),
                **{
                    policy: [
                        by_policy[policy][loss]["stale_hit_rate"] * 100.0
                        for loss in LOSS_RATES
                    ]
                    for policy in POLICIES
                },
            },
            "policies": {
                policy: {
                    f"{loss:.1f}": metrics
                    for loss, metrics in by_policy[policy].items()
                }
                for policy in POLICIES
            },
        },
    )

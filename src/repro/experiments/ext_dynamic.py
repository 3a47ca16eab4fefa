"""Extension: the cost of dynamically generated content (paper Section 5).

"The Microsoft trace logs revealed that 10% of the requests were for
dynamically generated pages.  This represents a tenfold increase from
only six months ago.  As the number of dynamic objects increases it will
become critical to devise ways to cache the actual scripts that generate
dynamic pages."

Dynamic pages defeat every consistency protocol equally: they cannot be
cached at all, so each such request is a full origin round trip and a
full body transfer.  This experiment sweeps the dynamic request fraction
over an HCS-shaped workload and measures how fast the benefits of weak
consistency erode — quantifying why the paper flags the trend as
critical.
"""

from __future__ import annotations

from repro.analysis.plots import Series, ascii_chart
from repro.analysis.report import ExperimentReport, ShapeCheck, format_table, pct
from repro.core.protocols import AlexProtocol
from repro.core.simulator import SimulatorMode
from repro.verify import checked_simulate
from repro.workload.campus import HCS, CampusWorkload

EXPERIMENT_ID = "ext-dynamic"
TITLE = "Extension: impact of the dynamic-content fraction (Section 5 trend)"

FRACTIONS = (0.0, 0.01, 0.05, 0.10, 0.20, 0.30)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentReport:
    """Sweep the dynamic request fraction on an HCS-shaped workload."""
    rows, series = [], {"mb": [], "rtt": [], "ops": [], "stale": []}
    # One workload per fraction, built one at a time; the positive
    # fractions share one draw (CampusWorkload.build_fractions).
    workloads = CampusWorkload(
        HCS, seed=seed + 1, request_scale=scale,
    ).build_fractions(FRACTIONS)
    for fraction, workload in zip(FRACTIONS, workloads):
        result = checked_simulate(
            workload.server(), AlexProtocol.from_percent(10),
            workload.requests, SimulatorMode.OPTIMIZED,
            end_time=workload.duration,
        )
        rows.append(
            (
                pct(fraction),
                f"{result.total_megabytes:.3f}",
                f"{result.mean_round_trips:.4f}",
                result.server_operations,
                pct(result.stale_hit_rate),
            )
        )
        series["mb"].append(result.total_megabytes)
        series["rtt"].append(result.mean_round_trips)
        series["ops"].append(float(result.server_operations))
        series["stale"].append(result.stale_hit_rate)

    table = format_table(
        ("dynamic fraction", "bandwidth MB", "round trips/request",
         "server ops", "stale rate"),
        rows,
        title="Alex(10%) on HCS as dynamic content grows:",
    )
    xs = [100 * f for f in FRACTIONS]
    chart = ascii_chart(
        [Series("bandwidth (MB)", xs, series["mb"], glyph="*")],
        title="Consistency bandwidth vs dynamic request share",
        xlabel="dynamic requests (percent)",
        ylabel="MB",
    )

    at_zero = series["mb"][0]
    at_ten = series["mb"][FRACTIONS.index(0.10)]
    checks = [
        ShapeCheck(
            "bandwidth-grows-with-dynamic-fraction",
            all(b >= a * 0.999
                for a, b in zip(series["mb"], series["mb"][1:])),
            f"{series['mb'][0]:.3f} MB at 0% -> {series['mb'][-1]:.3f} MB "
            f"at {pct(FRACTIONS[-1])}",
        ),
        ShapeCheck(
            "server-load-grows-with-dynamic-fraction",
            series["ops"][-1] > series["ops"][0],
            f"{series['ops'][0]:.0f} ops at 0% -> {series['ops'][-1]:.0f} "
            f"at {pct(FRACTIONS[-1])}",
        ),
        ShapeCheck(
            "papers-10pct-already-dominates-consistency-traffic",
            at_ten > 2 * at_zero,
            f"at the Microsoft trace's 10% dynamic share, total traffic is "
            f"{at_ten / at_zero:.1f}x the static-only figure — caching the "
            "generating scripts is indeed 'critical'",
        ),
        ShapeCheck(
            "staleness-not-worsened-by-dynamic-content",
            series["stale"][-1] <= series["stale"][0] + 0.001,
            f"stale rate {pct(series['stale'][0])} at 0% vs "
            f"{pct(series['stale'][-1])} at {pct(FRACTIONS[-1])} (dynamic "
            "responses are never stale, only expensive)",
        ),
    ]
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rendered=f"{table}\n\n{chart}",
        checks=checks,
        data={"fractions": list(FRACTIONS), **series},
    )

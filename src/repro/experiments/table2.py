"""Table 2 — Microsoft access mix and Boston University life-spans.

"The Microsoft data provides information on file access patterns while
the Boston University data provides information on file type lifetimes."
Headline observations the checks enforce: 65% of accesses are images
(gif + jpg); images are relatively small and have the longest lifetimes;
jpg files have the shortest median life-span of the measured types.

The Microsoft side synthesizes a proxy access stream from the Table 2
mix and measures it back.  The BU side builds the synthetic population
(:class:`repro.workload.boston.BostonPopulation`), runs the 186-day daily
sampler with the paper's conservative bias, and reports the recovered
per-type ages and life-spans.  The paper's exact estimator formulas are
unspecified, so the life-span comparisons are shape checks (ordering and
ballpark), not digit matches; see EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import ExperimentReport, ShapeCheck, format_table
from repro.trace.sampler import DailySampler
from repro.workload.boston import BU_WINDOW, BostonPopulation
from repro.workload.filetypes import TABLE2_TYPES, FileTypeModel

EXPERIMENT_ID = "table2"
TITLE = "Microsoft access mix and Boston University life-spans"

#: Requests synthesized for the Microsoft-side measurement at scale 1.0
#: ("On an average week day, the Microsoft proxy cache server receives
#: approximately 150,000 requests").
MICROSOFT_REQUESTS = 150_000


def run(scale: float = 1.0, seed: int = 0) -> ExperimentReport:
    """Regenerate Table 2 from the synthetic Microsoft/BU substrates."""
    rng = np.random.default_rng(seed)
    checks: list[ShapeCheck] = []

    # --- Microsoft side: access mix and sizes -----------------------------
    model = FileTypeModel()
    n_requests = max(1000, int(round(MICROSOFT_REQUESTS * scale)))
    drawn_types = model.sample_type_indices(rng, n_requests)
    sizes = model.sample_sizes(rng, drawn_types)
    counts: dict[str, int] = {}
    sizes_by_type: dict[str, np.ndarray] = {}
    for i, spec in enumerate(model.specs):
        drawn = drawn_types == i
        if drawn.any():
            counts[spec.name] = int(drawn.sum())
            sizes_by_type[spec.name] = sizes[drawn]

    ms_rows = []
    for spec in TABLE2_TYPES:
        share = counts.get(spec.name, 0) / n_requests
        mean_size = (
            float(np.mean(sizes_by_type[spec.name]))
            if spec.name in sizes_by_type
            else 0.0
        )
        ms_rows.append(
            (spec.name, f"{100 * share:.1f}%", f"{100 * spec.access_share:.0f}%",
             round(mean_size), spec.mean_size)
        )
        checks.append(
            ShapeCheck(
                f"microsoft-{spec.name}-access-share",
                abs(share - spec.access_share) <= 0.02,
                f"measured {100 * share:.1f}% vs paper "
                f"{100 * spec.access_share:.0f}%",
            )
        )
    image_share = (
        counts.get("gif", 0) + counts.get("jpg", 0)
    ) / n_requests
    checks.append(
        ShapeCheck(
            "images-are-65pct-of-accesses",
            abs(image_share - 0.65) <= 0.03,
            f"gif+jpg share {100 * image_share:.1f}% (paper: 65%)",
        )
    )
    mean_gif = float(np.mean(sizes_by_type.get("gif", [0])))
    mean_jpg = float(np.mean(sizes_by_type.get("jpg", [0])))
    checks.append(
        ShapeCheck(
            "type-mean-sizes-near-paper",
            abs(mean_gif - 7791) <= 0.2 * 7791
            and abs(mean_jpg - 21608) <= 0.2 * 21608,
            f"gif mean {mean_gif:.0f} B (paper 7791), "
            f"jpg mean {mean_jpg:.0f} B (paper 21608)",
        )
    )

    # --- BU side: daily sampling and life-span recovery --------------------
    # Keep at least ~600 files: per-type medians (especially jpg's ~10%
    # slice) are too noisy below that to test anything meaningful.
    population = BostonPopulation(
        files=max(600, int(round(2500 * scale))), seed=seed + 1
    )
    histories = population.build()
    sampler = DailySampler(histories, BU_WINDOW)
    samples = sampler.run()
    estimates = sampler.estimate_lifespans(samples)
    masking = sampler.masking_loss(samples)

    bu_rows = []
    paper_lifespans = {"gif": 146.0, "html": 146.0, "jpg": 72.0}
    paper_ages = {"gif": 85.0, "html": 50.0, "jpg": 100.0}
    for tname in ("gif", "html", "jpg", "other"):
        est = estimates.get(tname)
        if est is None:
            continue
        bu_rows.append(
            (
                tname,
                est.files,
                est.observed_change_days,
                round(est.avg_age_days, 1),
                paper_ages.get(tname, float("nan")),
                round(est.median_lifespan_days, 1),
                paper_lifespans.get(tname, float("nan")),
            )
        )

    jpg = estimates.get("jpg")
    gif = estimates.get("gif")
    html = estimates.get("html")
    if jpg and gif and html:
        checks.append(
            ShapeCheck(
                "jpg-shortest-median-lifespan",
                jpg.median_lifespan_days < gif.median_lifespan_days
                and jpg.median_lifespan_days < html.median_lifespan_days,
                f"median lifespans: jpg {jpg.median_lifespan_days:.0f}d, "
                f"gif {gif.median_lifespan_days:.0f}d, "
                f"html {html.median_lifespan_days:.0f}d",
            )
        )
        checks.append(
            ShapeCheck(
                "lifespans-in-table2-ballpark",
                abs(gif.median_lifespan_days - 146) <= 60
                and abs(jpg.median_lifespan_days - 72) <= 40,
                f"gif median {gif.median_lifespan_days:.0f}d (paper 146), "
                f"jpg median {jpg.median_lifespan_days:.0f}d (paper 72)",
            )
        )
    total_changes = population.total_changes(histories)
    checks.append(
        ShapeCheck(
            "bu-change-volume-ballpark",
            0.3 * 14000 * scale <= total_changes <= 2.5 * 14000 * max(scale, 0.1),
            f"population changes {total_changes} over 186 days "
            f"(paper: ~14,000 at 2,500 files; scale {scale:g})",
        )
    )
    checks.append(
        ShapeCheck(
            "day-granularity-masks-some-changes",
            0.0 <= masking < 0.9,
            f"daily sampling hides {100 * masking:.1f}% of true changes "
            "(the paper's acknowledged masking effect)",
        )
    )

    rendered = "\n\n".join(
        [
            format_table(
                ("type", "measured share", "paper share",
                 "measured mean size", "paper mean size"),
                ms_rows,
                title="Microsoft proxy access mix (synthesized and "
                      "measured back):",
            ),
            format_table(
                ("type", "files", "change-days", "avg age (d)",
                 "paper age", "median lifespan (d)", "paper lifespan"),
                bu_rows,
                title="Boston University daily-sampling recovery "
                      "(conservative estimators):",
            ),
            f"day-granularity masking: {100 * masking:.1f}% of true changes "
            "collapse into change-days",
        ]
    )
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rendered=rendered,
        checks=checks,
        data={
            "microsoft": ms_rows,
            "boston": bu_rows,
            "masking_loss": masking,
            "bu_total_changes": total_changes,
        },
    )

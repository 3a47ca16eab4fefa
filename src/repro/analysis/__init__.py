"""Analysis: parameter sweeps, shape checks, reports, ASCII figures, CSV export."""

from repro.analysis.export import read_csv_rows, write_rows_csv
from repro.analysis.plots import Series, ascii_chart, assign_glyphs
from repro.analysis.replication import Replication, all_hold, replicate
from repro.analysis.theory import (
    alex_check_times,
    alex_validation_count,
    invalidation_message_bytes,
    ttl_stale_fraction,
    ttl_validation_rate,
)
from repro.analysis.report import (
    ExperimentReport,
    ShapeCheck,
    format_table,
    pct,
)
from repro.analysis.svg import dump_experiment_svg, render_svg, write_svg
from repro.analysis.sweep import (
    ALEX_THRESHOLDS_PERCENT,
    TTL_HOURS,
    SweepPoint,
    SweepResult,
    crossover_parameter,
    run_protocol,
    sweep_alex,
    sweep_protocol,
    sweep_ttl,
)

__all__ = [
    "ALEX_THRESHOLDS_PERCENT",
    "read_csv_rows",
    "write_rows_csv",
    "Replication",
    "all_hold",
    "replicate",
    "alex_check_times",
    "alex_validation_count",
    "invalidation_message_bytes",
    "ttl_stale_fraction",
    "ttl_validation_rate",
    "dump_experiment_svg",
    "render_svg",
    "write_svg",
    "TTL_HOURS",
    "ExperimentReport",
    "Series",
    "ShapeCheck",
    "SweepPoint",
    "SweepResult",
    "ascii_chart",
    "assign_glyphs",
    "crossover_parameter",
    "format_table",
    "pct",
    "run_protocol",
    "sweep_alex",
    "sweep_protocol",
    "sweep_ttl",
]

"""Trace infrastructure: records, extended CLF, Table 1/2 statistics.

* :class:`Trace` / :class:`TraceRecord` — the paper's modified server
  logs (Last-Modified recorded per request) as data.
* :mod:`repro.trace.clf` — extended Common-Log-Format reader/writer.
* :func:`mutability_from_histories` / :func:`mutability_from_trace` —
  the Table 1 computation, from ground truth or from what a log shows.
* :class:`DailySampler` — Bestavros' daily modification sampling and the
  conservative life-span estimators behind Table 2.
"""

from repro.trace.clf import (
    CLFParseError,
    format_record,
    iter_clf,
    parse_record,
    read_clf,
    write_clf,
)
from repro.trace.reconstruct import (
    histories_from_trace,
    server_from_trace,
    workload_from_trace,
)
from repro.trace.records import Trace, TraceRecord
from repro.trace.sampler import (
    DailySample,
    DailySampler,
    LifespanEstimate,
)
from repro.trace.stats import (
    VERY_MUTABLE_THRESHOLD,
    MutabilityStats,
    daily_change_probability,
    default_is_remote,
    mutability_from_histories,
    mutability_from_trace,
)
from repro.trace.synthesis import (
    DEFAULT_CLIENT,
    read_trace,
    trace_from_workload,
    write_trace,
)

__all__ = [
    "CLFParseError",
    "histories_from_trace",
    "server_from_trace",
    "workload_from_trace",
    "DEFAULT_CLIENT",
    "DailySample",
    "DailySampler",
    "LifespanEstimate",
    "MutabilityStats",
    "Trace",
    "TraceRecord",
    "VERY_MUTABLE_THRESHOLD",
    "daily_change_probability",
    "default_is_remote",
    "format_record",
    "iter_clf",
    "mutability_from_histories",
    "mutability_from_trace",
    "parse_record",
    "read_clf",
    "read_trace",
    "trace_from_workload",
    "write_clf",
    "write_trace",
]

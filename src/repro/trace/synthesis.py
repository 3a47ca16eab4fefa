"""Turning workloads into on-disk traces and back.

The reproduction's workload generators produce in-memory
:class:`~repro.workload.base.Workload` objects; this module renders them
as the extended Common-Log-Format files the paper's servers produced
(Last-Modified on every satisfied request), and loads such files back
into simulator inputs.  The round trip is exact to one-second timestamp
granularity — the granularity of the real log format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.fastpath.arrays import (
    CompiledServer,
    compile_server,
    encode_requests,
    stream_columns,
)
from repro.trace.clf import read_clf, write_clf
from repro.trace.records import Trace, TraceRecord
from repro.trace.stats import MutabilityStats, mutability_from_columns
from repro.workload.base import Workload

#: Client name used when a workload carries no per-request client info.
DEFAULT_CLIENT = "client.example.net"


def _logged_clients(workload: Workload) -> list[str]:
    """Per request, the client host its log line names: the workload's
    own, or :data:`DEFAULT_CLIENT` when it carries none."""
    return workload.clients or [DEFAULT_CLIENT] * len(workload.requests)


def _logged_columns(
    workload: Workload,
) -> tuple[CompiledServer, list[int], Sequence[float]]:
    """The workload's compiled server and, per request, its object's
    index and that object's Last-Modified then
    (:func:`repro.fastpath.arrays.stream_columns`; one trailing sentinel
    row).  Encoded from 0.0, the sweeps' memo entry, unless the stream
    starts earlier."""
    compiled = compile_server(workload.server())
    requests = workload.requests
    start = min(0.0, requests[0][0]) if requests else 0.0
    times, objs = encode_requests(compiled, requests, start)
    return compiled, objs, stream_columns(compiled, times, objs)[1]


def trace_from_workload(workload: Workload) -> Trace:
    """Render a workload as the access trace its server would have logged.

    Every record carries the object's true Last-Modified at request time
    (the paper's log extension) and the object's size, except dynamic
    objects, which log size but no Last-Modified.  Both are read off the
    compiled server and the stream's Last-Modified column.
    """
    compiled, objs, stamps = _logged_columns(workload)
    sizes, cacheable = compiled.sizes, compiled.cacheable
    records = [
        TraceRecord(
            timestamp=t,
            client=client,
            path=oid,
            status=200,
            size=sizes[i],
            last_modified=stamp if cacheable[i] else None,
        )
        for (t, oid), i, stamp, client in zip(
            workload.requests, objs, stamps, _logged_clients(workload))
    ]
    return Trace(records, name=workload.name)


def observed_mutability(workload: Workload) -> MutabilityStats:
    """``mutability_from_trace(trace_from_workload(workload))``: the
    Table 1 row the workload's log shows, counted from the same columns
    with no record built."""
    compiled, objs, stamps = _logged_columns(workload)
    return mutability_from_columns(
        objs, stamps, compiled.cacheable, _logged_clients(workload),
        name=workload.name,
    )


def write_trace(trace: Trace, path: Union[str, Path]) -> int:
    """Write a trace to ``path`` in extended CLF; returns lines written."""
    path = Path(path)
    with path.open("w", encoding="ascii") as stream:
        stream.write(f"# extended CLF trace: {trace.name}\n")
        stream.write("# client - - [time] \"GET path HTTP/1.0\" status size"
                     " \"last-modified\"\n")
        return write_clf(iter(trace), stream)


def read_trace(path: Union[str, Path], name: Optional[str] = None) -> Trace:
    """Load an extended-CLF file written by :func:`write_trace`.

    Raises:
        FileNotFoundError: when ``path`` does not exist.
        CLFParseError: on malformed lines.
    """
    path = Path(path)
    with path.open("r", encoding="ascii") as stream:
        return read_clf(stream, name=name or path.stem)

"""Workload → trace rendering and on-disk round trips."""

from dataclasses import replace

import pytest

from repro.core.clock import days
from repro.trace.records import Trace, TraceRecord
from repro.trace.stats import mutability_from_trace
from repro.trace.synthesis import (
    DEFAULT_CLIENT,
    observed_mutability,
    read_trace,
    trace_from_workload,
    write_trace,
)
from repro.workload.base import Workload
from repro.workload.campus import DAS, FAS, HCS, CampusWorkload
from tests.conftest import make_history


def tiny_workload(clients=None) -> Workload:
    return Workload(
        histories=[
            make_history("/a", size=500, changes=(days(2),)),
            make_history("/dyn", cacheable=False, size=100),
        ],
        requests=[(days(1), "/a"), (days(3), "/a"), (days(4), "/dyn")],
        duration=days(10),
        clients=clients,
        name="tiny",
    )


class TestTraceFromWorkload:
    def test_record_per_request(self):
        trace = trace_from_workload(tiny_workload())
        assert len(trace) == 3
        assert trace.name == "tiny"

    def test_last_modified_tracks_schedule(self):
        trace = trace_from_workload(tiny_workload())
        assert trace[0].last_modified == -days(30)   # before the change
        assert trace[1].last_modified == days(2)     # after the change

    def test_dynamic_objects_log_no_lm(self):
        trace = trace_from_workload(tiny_workload())
        assert trace[2].last_modified is None

    def test_sizes_recorded(self):
        trace = trace_from_workload(tiny_workload())
        assert trace[0].size == 500

    def test_default_client_when_absent(self):
        trace = trace_from_workload(tiny_workload())
        assert trace[0].client == DEFAULT_CLIENT

    def test_clients_preserved(self):
        trace = trace_from_workload(tiny_workload(clients=["c1", "c2", "c3"]))
        assert [r.client for r in trace] == ["c1", "c2", "c3"]


class TestDiskRoundTrip:
    def test_write_read(self, tmp_path):
        trace = trace_from_workload(tiny_workload())
        path = tmp_path / "tiny.log"
        assert write_trace(trace, path) == 3
        loaded = read_trace(path)
        assert len(loaded) == 3
        assert loaded.requests() == trace.requests()
        assert [r.size for r in loaded] == [r.size for r in trace]

    def test_written_file_has_header_comment(self, tmp_path):
        path = tmp_path / "t.log"
        write_trace(trace_from_workload(tiny_workload()), path)
        assert path.read_text().startswith("# extended CLF trace: tiny")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trace(tmp_path / "nope.log")

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "fas-march.log"
        write_trace(trace_from_workload(tiny_workload()), path)
        assert read_trace(path).name == "fas-march"


class TestEndToEndStatistics:
    def test_campus_trace_statistics_survive_disk(self, tmp_path):
        """Synthesize FAS, write to disk, read back, recompute Table 1
        observables — the full paper pipeline."""
        workload = CampusWorkload(FAS, seed=5, request_scale=0.2).build()
        trace = trace_from_workload(workload)
        path = tmp_path / "fas.log"
        write_trace(trace, path)
        loaded = read_trace(path)

        stats = mutability_from_trace(loaded)
        assert stats.requests == len(workload.requests)
        assert stats.files <= FAS.files       # only requested files appear
        assert abs(stats.pct_remote - FAS.pct_remote) < 6.0
        # Observed changes never exceed scheduled ones.
        truth = sum(
            h.schedule.changes_in(0.0, workload.duration)
            for h in workload.histories
        )
        assert stats.total_changes <= truth


def per_request_trace(workload: Workload) -> list[TraceRecord]:
    """The records as a per-request walk derives them: each object's size
    off the server and its Last-Modified off its schedule."""
    server = workload.server()
    records = []
    for index, (t, oid) in enumerate(workload.requests):
        obj = server.object(oid)
        records.append(TraceRecord(
            timestamp=t,
            client=(workload.clients[index] if workload.clients
                    else DEFAULT_CLIENT),
            path=oid,
            status=200,
            size=obj.size,
            last_modified=(server.schedule(oid).last_modified_at(t)
                           if obj.cacheable else None),
        ))
    return records


#: DAS, FAS and HCS at seeds 0-2; HCS with dynamic pages, whose paths
#: log no Last-Modified; a workload without clients.
CAMPUS_CASES = [
    *(pytest.param(spec, seed, 0.0, True, id=f"{spec.name}-seed{seed}")
      for spec in (DAS, FAS, HCS) for seed in range(3)),
    pytest.param(HCS, 1, 0.1, True, id="HCS-dynamic"),
    pytest.param(FAS, 2, 0.0, False, id="FAS-no-clients"),
]


def campus(spec, seed, dynamic_fraction, with_clients) -> Workload:
    workload = CampusWorkload(spec, seed=seed, request_scale=0.1,
                              dynamic_fraction=dynamic_fraction).build()
    if not with_clients:
        workload = replace(workload, clients=None)
    return workload


@pytest.mark.parametrize("spec, seed, dynamic_fraction, with_clients",
                         CAMPUS_CASES)
class TestFromTheColumns:
    """``trace_from_workload`` reads sizes and Last-Modified off the
    compiled server and the stream's columns, and ``table1`` counts its
    observed row off the same columns: both equal the per-request
    derivation."""

    def test_the_records_are_the_per_request_walks(
            self, spec, seed, dynamic_fraction, with_clients):
        workload = campus(spec, seed, dynamic_fraction, with_clients)
        assert list(trace_from_workload(workload)) == per_request_trace(
            workload)

    def test_the_columns_row_is_the_logs_row(
            self, spec, seed, dynamic_fraction, with_clients):
        workload = campus(spec, seed, dynamic_fraction, with_clients)
        row = observed_mutability(workload)
        expected = mutability_from_trace(Trace(per_request_trace(workload),
                                               name=workload.name))
        assert row == expected
        if dynamic_fraction:  # dynamic paths count, as files never changed
            static = {oid for _, oid in workload.requests
                      if workload.server().object(oid).cacheable}
            assert row.files > len(static)
        if not with_clients:
            assert row.pct_remote == 100.0

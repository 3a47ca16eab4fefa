"""The CLI surface of the obs layer: flags, renderers, failure paths."""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.verify import ConsistencyViolation
from repro.verify.oracle import OracleReport


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("clf") / "tiny.log"
    status = cli.main([
        "synthesize", "worrell", str(path), "--seed", "7", "--scale", "0.005",
    ])
    assert status == 0
    return path


class TestSimulateFlags:
    def test_trace_and_metrics_written(self, trace_file, tmp_path, capsys):
        trace_out = tmp_path / "run.jsonl"
        metrics_out = tmp_path / "run.metrics.json"
        status = cli.main([
            "simulate", str(trace_file), "--protocol", "alex",
            "--parameter", "10",
            "--trace", str(trace_out), "--metrics", str(metrics_out),
        ])
        assert status == 0
        captured = capsys.readouterr()
        assert "trace: wrote" in captured.err
        assert "metrics: wrote" in captured.err

        lines = trace_out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"type": "header", "schema": obs_trace.SCHEMA}
        records = [json.loads(line) for line in lines[1:]]
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert kinds  # the tee saw the simulator's observer stream

        dump = json.loads(metrics_out.read_text())
        assert dump["schema"] == obs_registry.SCHEMA
        event_total = sum(
            value for name, value in dump["counters"].items()
            if name.startswith("sim.event.")
        )
        assert event_total > 0
        assert {f"sim.event.{kind}" for kind in kinds} <= set(
            dump["counters"]
        )

    def test_nothing_installed_without_flags(self, trace_file):
        status = cli.main([
            "simulate", str(trace_file), "--protocol", "ttl",
            "--parameter", "5",
        ])
        assert status == 0
        assert obs_registry.active() is None
        assert obs_trace.active() is None

    def test_simulate_output_identical_with_tracing(
        self, trace_file, tmp_path, capsys
    ):
        cli.main(["simulate", str(trace_file)])
        bare = capsys.readouterr().out
        cli.main([
            "simulate", str(trace_file),
            "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.json"),
        ])
        traced = capsys.readouterr().out
        assert traced == bare


class TestSweepFlags:
    def test_sweep_workers_metrics_verify(self, trace_file, tmp_path, capsys):
        metrics_out = tmp_path / "sweep.metrics.json"
        status = cli.main([
            "sweep", str(trace_file), "--protocol", "alex", "--step", "50",
            "--workers", "2", "--verify", "--metrics", str(metrics_out),
        ])
        assert status == 0
        captured = capsys.readouterr()
        # Diagnostics land on stderr; the result table on stdout is
        # byte-identical with and without --verify.
        assert "verified, zero divergence" in captured.err
        dump = json.loads(metrics_out.read_text())
        # 3 alex points (0/50/100) + the invalidation baseline, each
        # oracle-checked — worker increments merged into the parent dump.
        assert dump["counters"]["verify.runs"] == 4.0

    def test_sweep_output_identical_across_worker_counts(
        self, trace_file, capsys
    ):
        cli.main(["sweep", str(trace_file), "--step", "50", "--workers", "1"])
        serial = capsys.readouterr().out
        cli.main(["sweep", str(trace_file), "--step", "50", "--workers", "3"])
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestVerifyFailurePath:
    """Satellite: the failure path must report verified_runs too."""

    def _raise_violation(self, *args, **kwargs):
        raise ConsistencyViolation(OracleReport(
            protocol_name="alex-0.10", mode="optimized",
            divergences=["counter mismatch: stale_hits 3 != 4"],
        ))

    def test_simulate_failure_reports_verified_runs(
        self, trace_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "checked_simulate", self._raise_violation)
        status = cli.main([
            "simulate", str(trace_file), "--verify",
            "--faults", "loss=0.2,retries=2,seed=3",
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert "oracle divergence for alex-0.10" in err
        assert "0 run(s) verified before the divergence" in err
        assert "fault spec in effect" in err
        assert "retries=2" in err

    def test_sweep_failure_reports_verified_runs(
        self, trace_file, capsys, monkeypatch
    ):
        import repro.analysis.sweep as sweep_module

        calls = {"n": 0}
        real = sweep_module.checked_simulate

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                self._raise_violation()
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "checked_simulate", flaky)
        status = cli.main([
            "sweep", str(trace_file), "--step", "50", "--verify",
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert "2 run(s) verified before the divergence" in err


class TestMetricsSubcommand:
    def write_dump(self, tmp_path):
        registry = obs_registry.MetricsRegistry()
        registry.counter("cache.stores").add(7.0)
        registry.histogram("sim.transfer_bytes").observe(1024.0)
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(registry.as_dict()))
        return path

    def test_prom_rendering(self, tmp_path, capsys):
        status = cli.main([
            "metrics", str(self.write_dump(tmp_path)), "--format", "prom",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "repro_cache_stores 7\n" in out
        assert 'repro_sim_transfer_bytes_bucket{le="+Inf"} 1' in out

    def test_json_rendering_roundtrips(self, tmp_path, capsys):
        status = cli.main([
            "metrics", str(self.write_dump(tmp_path)), "--format", "json",
        ])
        assert status == 0
        rendered = json.loads(capsys.readouterr().out)
        assert rendered["counters"]["cache.stores"] == 7.0

    def test_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "not/metrics"}')
        for fmt in ("json", "prom"):
            status = cli.main(["metrics", str(bad), "--format", fmt])
            assert status == 2
        assert "not/metrics" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        status = cli.main(["metrics", str(tmp_path / "absent.json")])
        assert status == 2
        assert "absent.json" in capsys.readouterr().err


class TestProfileSubcommand:
    def test_parallel_profile_report(self, capsys):
        status = cli.main([
            "profile", "--protocol", "alex", "--scale", "0.02",
            "--workers", "2", "--step", "50",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "engine phase breakdown:" in out
        for phase in ("fork", "dispatch", "harvest", "reassembly"):
            assert phase in out
        assert "AlexProtocol.is_fresh" in out

    def test_serial_profile_report(self, capsys):
        status = cli.main([
            "profile", "--protocol", "ttl", "--scale", "0.02",
            "--workers", "1", "--step", "250",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "serial" in out
        assert "TTLProtocol.is_fresh" in out

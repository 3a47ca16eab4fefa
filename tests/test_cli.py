"""The repro command-line tool."""

import pytest

from repro.cli import build_protocol, main, server_from_trace
from repro.core.clock import hours
from repro.core.protocols import (
    AlexProtocol,
    CERNPolicyProtocol,
    InvalidationProtocol,
    LeasedInvalidationProtocol,
    PollEveryRequestProtocol,
    SelfTuningProtocol,
    TTLProtocol,
)
from repro.trace.records import Trace, TraceRecord


class TestBuildProtocol:
    def test_alex_percent(self):
        proto = build_protocol("alex", 25)
        assert isinstance(proto, AlexProtocol)
        assert proto.percent == pytest.approx(25)

    def test_ttl_hours(self):
        proto = build_protocol("ttl", 125)
        assert isinstance(proto, TTLProtocol)
        assert proto.ttl == hours(125)

    def test_parameterless_protocols(self):
        assert isinstance(build_protocol("invalidation", 0),
                          InvalidationProtocol)
        assert isinstance(build_protocol("poll", 0),
                          PollEveryRequestProtocol)

    def test_cern_fraction(self):
        proto = build_protocol("cern", 10)
        assert isinstance(proto, CERNPolicyProtocol)
        assert proto.lm_fraction == pytest.approx(0.1)

    def test_leased_hours(self):
        proto = build_protocol("leased", 24)
        assert isinstance(proto, LeasedInvalidationProtocol)
        assert proto.lease == hours(24)

    def test_selftuning(self):
        proto = build_protocol("SelfTuning", 20)
        assert isinstance(proto, SelfTuningProtocol)
        assert proto.initial_threshold == pytest.approx(0.2)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_protocol("nfs", 1)


class TestServerFromTrace:
    def _record(self, t, path, lm, size=100):
        return TraceRecord(timestamp=t, client="h", path=path, size=size,
                           last_modified=lm)

    def test_reconstructs_modifications(self):
        trace = Trace([
            self._record(1.0, "/a", lm=-50.0),
            self._record(2.0, "/a", lm=1.5),
            self._record(3.0, "/a", lm=2.5),
        ])
        server = server_from_trace(trace)
        assert server.schedule("/a").created == -50.0
        assert server.schedule("/a").times == (1.5, 2.5)

    def test_duplicate_lm_collapses(self):
        trace = Trace([
            self._record(1.0, "/a", lm=-50.0),
            self._record(2.0, "/a", lm=-50.0),
        ])
        server = server_from_trace(trace)
        assert server.schedule("/a").total_changes == 0

    def test_dynamic_paths_marked_uncacheable(self):
        trace = Trace([self._record(1.0, "/cgi-bin/x", lm=None)])
        server = server_from_trace(trace)
        assert not server.object("/cgi-bin/x").cacheable

    def test_file_type_from_extension(self):
        trace = Trace([
            self._record(1.0, "/img/a.gif", lm=0.5),
            self._record(2.0, "/b.weird", lm=0.5),
        ])
        server = server_from_trace(trace)
        assert server.object("/img/a.gif").file_type == "gif"
        assert server.object("/b.weird").file_type == "other"

    def test_size_takes_maximum(self):
        trace = Trace([
            self._record(1.0, "/a", lm=0.5, size=100),
            self._record(2.0, "/a", lm=0.5, size=300),
        ])
        assert server_from_trace(trace).object("/a").size == 300


class TestEndToEnd:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "fas.log"
        assert main(["synthesize", "fas", str(path), "--scale", "0.05",
                     "--seed", "2"]) == 0
        return path

    def test_synthesize_creates_parseable_file(self, tmp_path, capsys):
        path = tmp_path / "out.log"
        assert main(["synthesize", "fas", str(path), "--scale", "0.05"]) == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out and "290 objects" in out

    def test_synthesize_unknown_workload(self, tmp_path, capsys):
        assert main(["synthesize", "nope", str(tmp_path / "x.log")]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_stats(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "% Mutable" in out
        assert "change probability" in out

    def test_simulate(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--protocol", "alex",
                     "--parameter", "10"]) == 0
        out = capsys.readouterr().out
        assert "alex(10%)" in out
        assert "round trips" in out

    def test_simulate_base_mode(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--protocol", "ttl",
                     "--parameter", "48", "--mode", "base"]) == 0
        assert "base" in capsys.readouterr().out

    def test_sweep(self, trace_file, capsys):
        assert main(["sweep", str(trace_file), "--protocol", "ttl",
                     "--step", "250"]) == 0
        out = capsys.readouterr().out
        assert "inval" in out
        assert "TTL hours" in out

    def test_sweep_rejects_other_protocols(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", str(trace_file), "--protocol", "poll"])

    def test_simulate_with_faults_and_leased_protocol(
        self, trace_file, capsys
    ):
        assert main(["simulate", str(trace_file), "--protocol", "leased",
                     "--parameter", "24",
                     "--faults", "loss=0.4,seed=3", "--verify"]) == 0
        assert "leased-invalidation(24h)" in capsys.readouterr().out

    def test_faults_make_invalidation_stale(self, trace_file, capsys):
        assert main(["simulate", str(trace_file),
                     "--protocol", "invalidation"]) == 0
        clean = capsys.readouterr().out
        assert main(["simulate", str(trace_file),
                     "--protocol", "invalidation",
                     "--faults", "loss=1.0"]) == 0
        lossy = capsys.readouterr().out
        assert "0.00%" in clean   # perfect consistency without faults
        assert clean != lossy

    def test_sweep_with_faults(self, trace_file, capsys):
        assert main(["sweep", str(trace_file), "--protocol", "alex",
                     "--step", "50",
                     "--faults", "loss=0.3,downtime=2h,seed=1"]) == 0
        assert "inval" in capsys.readouterr().out

    def test_simulation_from_reconstructed_server_is_sane(self, trace_file):
        """Invalidation over a reconstructed server still never stale."""
        from repro.cli import _simulate_trace
        from repro.core.simulator import SimulatorMode
        from repro.trace.synthesis import read_trace

        trace = read_trace(trace_file)
        result = _simulate_trace(
            trace, InvalidationProtocol(), SimulatorMode.OPTIMIZED
        )
        assert result.counters.stale_hits == 0
        assert result.counters.requests == len(trace)


class TestArgumentErrors:
    """Bad arguments must fail fast (status 2), never mid-simulation."""

    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "fas.log"
        assert main(["synthesize", "fas", str(path), "--scale", "0.05",
                     "--seed", "2"]) == 0
        return path

    def test_non_integer_workers_rejected(self, trace_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(trace_file), "--protocol", "ttl",
                  "--workers", "two"])
        assert excinfo.value.code == 2

    def test_nonpositive_workers_clamp_to_serial(self, trace_file, capsys):
        # Documented clamp: workers <= 0 resolves to 1 (serial), not a
        # crash, and output is identical to an explicit serial run.
        assert main(["sweep", str(trace_file), "--protocol", "ttl",
                     "--step", "250", "--workers", "-3"]) == 0
        clamped = capsys.readouterr().out
        assert main(["sweep", str(trace_file), "--protocol", "ttl",
                     "--step", "250", "--workers", "1"]) == 0
        assert clamped == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["sweep", "TRACE", "--step", "-5"],
        ["sweep", "TRACE", "--protocol", "ttl", "--step", "0"],
        ["profile", "--protocol", "alex", "--step", "-1"],
    ])
    def test_nonpositive_step_rejected(self, trace_file, capsys, argv):
        # range(0, 101, -5) is an empty grid: the sweep used to print
        # an inval-only table (and the profiler "no hooks timed") and
        # exit 0.
        argv = [str(trace_file) if arg == "TRACE" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--step" in err and "positive integer" in err

    def test_bad_workers_env_var_rejected(self, monkeypatch):
        from repro.runtime import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_unknown_protocol_rejected_by_parser(self, trace_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(trace_file), "--protocol", "nfs"])
        assert excinfo.value.code == 2

    def test_unknown_protocol_returns_two_from_handler(
        self, trace_file, capsys
    ):
        # The handler's own guard (reached when build_protocol is driven
        # programmatically, past argparse's choices= gate).
        import argparse

        from repro.cli import cmd_simulate

        args = argparse.Namespace(
            trace=trace_file, protocol="nfs", parameter=1.0,
            mode="optimized", verify=False,
        )
        assert cmd_simulate(args) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_malformed_faults_spec_returns_two(self, trace_file, capsys):
        assert main(["simulate", str(trace_file),
                     "--faults", "loss=banana"]) == 2
        assert "loss rate" in capsys.readouterr().err
        assert main(["sweep", str(trace_file), "--protocol", "ttl",
                     "--faults", "turbulence=0.5"]) == 2
        assert "unknown --faults field" in capsys.readouterr().err

    def test_unknown_experiment_id_rejected(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["warp9"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_lint_is_an_unknown_subcommand(self, capsys):
        # The linter was retired into tier-1 checks (docs/DEVELOPING.md,
        # "Retired: RPR002, RPR007"); its subcommand went with it.
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--", "--list-codes"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestVerifyScaleCombos:
    """--verify composes with --scale / --workers on every entry point."""

    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "fas.log"
        assert main(["synthesize", "fas", str(path), "--scale", "0.05",
                     "--seed", "2"]) == 0
        return path

    def test_simulate_verify(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--protocol", "ttl",
                     "--parameter", "48", "--verify"]) == 0
        assert "ttl" in capsys.readouterr().out

    def test_sweep_verify_parallel_matches_serial(self, trace_file, capsys):
        assert main(["sweep", str(trace_file), "--protocol", "ttl",
                     "--step", "250", "--verify", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["sweep", str(trace_file), "--protocol", "ttl",
                     "--step", "250", "--workers", "1"]) == 0
        assert parallel == capsys.readouterr().out

    def test_experiment_verify_scale(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        assert experiments_main(
            ["figure2", "--scale", "0.05", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle:" in out
        assert "zero divergence" in out

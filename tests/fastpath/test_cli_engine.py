"""The ``--engine`` flag: identical CLI output under either engine."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.trace.synthesis import trace_from_workload, write_trace
from repro.workload.worrell import WorrellWorkload


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    workload = WorrellWorkload(files=10, requests=400, seed=5).build()
    path = tmp_path_factory.mktemp("traces") / "worrell.log"
    write_trace(trace_from_workload(workload), path)
    return path


def _run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestEngineFlag:
    @pytest.mark.parametrize("protocol", ["alex", "ttl", "invalidation"])
    def test_simulate_output_engine_invariant(
        self, trace_path, capsys, protocol
    ):
        base = ["simulate", str(trace_path), "--protocol", protocol]
        fast = _run([*base, "--engine", "fast"], capsys)
        reference = _run([*base, "--engine", "reference"], capsys)
        assert fast == reference
        assert protocol in fast

    def test_simulate_verify_passes_under_fast_engine(
        self, trace_path, capsys
    ):
        out = _run(
            ["simulate", str(trace_path), "--protocol", "alex",
             "--engine", "fast", "--verify"],
            capsys,
        )
        assert "alex" in out

    def test_sweep_output_engine_invariant(self, trace_path, capsys):
        base = ["sweep", str(trace_path), "--protocol", "ttl",
                "--step", "250"]
        fast = _run([*base, "--engine", "fast"], capsys)
        reference = _run([*base, "--engine", "reference"], capsys)
        assert fast == reference

    def test_profile_accepts_engine_flag(self, capsys):
        out = _run(
            ["profile", "--protocol", "alex", "--scale", "0.01",
             "--step", "50", "--engine", "fast"],
            capsys,
        )
        assert "engine fast" in out
        assert "fastpath.simulate" in out

    def test_profile_defaults_to_reference(self, capsys):
        out = _run(
            ["profile", "--protocol", "alex", "--scale", "0.01",
             "--step", "50"],
            capsys,
        )
        assert "engine reference" in out

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_ext_faults_stats_line_names_the_selected_engine(
        self, capsys, engine
    ):
        """``ext-faults`` builds its own ``RunStats``; it used to leave
        ``engine`` at the dataclass default and always print ``fast``."""
        from repro.experiments.__main__ import main as experiments_main

        experiments_main(["ext-faults", "--scale", "0.02", "--engine", engine])
        (stats_line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  (")
        ]
        assert stats_line.endswith(f"engine {engine})")

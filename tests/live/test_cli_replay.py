"""End-to-end tests for ``repro replay`` (and ``repro serve`` parsing).

The replay command is the entry point of the CI live gate (``make live``): synthesize a
trace, replay it through real sockets, and (with ``--verify``) require
exact agreement with the simulator.  These tests run the real command
functions against a reduced synthesized trace.
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("live") / "hcs.log"
    assert main(["synthesize", "hcs", str(path), "--seed", "7",
                 "--scale", "0.01"]) == 0
    return path


class TestReplayCommand:
    def test_replay_verify_matches_simulator(self, trace_path, capsys):
        code = main(["replay", str(trace_path), "--protocol", "alex",
                     "--parameter", "10", "--verify"])
        captured = capsys.readouterr()
        assert code == 0
        assert "replayed live" in captured.out
        assert "alex(10%)" in captured.out
        # The default one-connection replay is event-checked too: one
        # live event per request at the least (325 requests here).
        assert ("live-vs-sim: 13 counters + 15 ledger cells + 325 events "
                "identical" in captured.err)

    def test_replay_without_verify(self, trace_path, capsys):
        code = main(["replay", str(trace_path), "--protocol", "ttl",
                     "--parameter", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "live-vs-sim" not in captured.err

    def test_replay_table_matches_simulate_table(self, trace_path, capsys):
        assert main(["replay", str(trace_path), "--protocol", "invalidation",
                     "--verify"]) == 0
        replay_out = capsys.readouterr().out
        assert main(["simulate", str(trace_path), "--protocol",
                     "invalidation"]) == 0
        simulate_out = capsys.readouterr().out
        # Identical data rows: same protocol, bandwidth, miss/stale
        # rates, server ops, round trips — live and simulated.
        assert replay_out.splitlines()[-1] == simulate_out.splitlines()[-1]

    def test_crash_restart_reports_the_fault_plan_numbers(
        self, trace_path, tmp_path, capsys
    ):
        """``--crash-after`` composes with ``--faults``: the row is
        the faulted simulation's, not the fault-free one the second
        driver used to print (stale 0.00 %) while calling it
        identical."""
        faults = ["--protocol", "invalidation", "--faults", "loss=1.0,seed=3"]
        assert main(["replay", str(trace_path), *faults, "--journal",
                     str(tmp_path / "j.jsonl"), "--crash-after", "100",
                     "--verify"]) == 0
        replayed = capsys.readouterr()
        assert "live-vs-sim: 13 counters + 15 ledger cells" in replayed.err
        assert main(["simulate", str(trace_path), *faults]) == 0
        simulated = capsys.readouterr().out
        assert replayed.out.splitlines()[-1] == simulated.splitlines()[-1]
        assert main(["simulate", str(trace_path), "--protocol",
                     "invalidation"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] != (
            simulated.splitlines()[-1]
        )

    def test_crash_after_without_journal_is_usage_error(
        self, trace_path, capsys
    ):
        assert main(["replay", str(trace_path), "--crash-after", "3"]) == 2
        assert "journal" in capsys.readouterr().err

    def test_non_wire_exact_replay_is_usage_error_even_when_traced(
        self, trace_path, tmp_path, capsys
    ):
        """A replay that cannot be wire-exact (here a half-second
        fault-plan delay) is refused with exit 2 — with ``--trace``
        too, where it used to be an ``AssertionError`` traceback."""
        assert main(["replay", str(trace_path), "--protocol",
                     "invalidation", "--faults", "delay=1.5s,seed=1",
                     "--trace", str(tmp_path / "t.jsonl")]) == 2
        assert "whole second" in capsys.readouterr().err

    def test_unknown_protocol_is_usage_error(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(trace_path), "--protocol", "bogus"])
        assert excinfo.value.code == 2

    def test_trace_help_describes_the_per_role_files(self, capsys):
        """``replay --trace`` goes to the live stack (three per-role
        files to join with ``repro trace merge``); it used to show the
        simulator commands' "every simulator event" help."""
        helps = {}
        for command in ("replay", "simulate"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            helps[command] = " ".join(capsys.readouterr().out.split())
        assert "one JSONL file per role" in helps["replay"]
        assert ".proxy / .origin companions" in helps["replay"]
        assert "repro trace merge" in helps["replay"]
        assert "every simulator event" not in helps["replay"]
        assert "every simulator event" in helps["simulate"]


class TestServeParsing:
    def test_serve_rejects_unknown_protocol(self, trace_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(trace_path), "--protocol", "bogus"])
        assert excinfo.value.code == 2

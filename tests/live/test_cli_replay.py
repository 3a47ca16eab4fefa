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

    def test_unknown_protocol_is_usage_error(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(trace_path), "--protocol", "bogus"])
        assert excinfo.value.code == 2


class TestServeParsing:
    def test_serve_rejects_unknown_protocol(self, trace_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(trace_path), "--protocol", "bogus"])
        assert excinfo.value.code == 2

"""Cross-process causal tracing: per-role files, merge, and the CLI.

The PR-10 acceptance pins: a chaotic traced replay writes one
``repro.trace/1`` JSONL file per role (driver / proxy / origin), the
three merge into a ``repro.trace/2`` timeline whose happens-before
edges (driver-send ≤ proxy-recv, commit ≤ reply, kill ≤ restore) all
validate, and
``repro trace summarize`` reports retry/chaos counts equal to the
run's :class:`MetricsRegistry` counters — the marks are emitted in the
very same branches as the counter bumps, so any drift is a bug.
"""

import asyncio
import json

import pytest

from tests.live.test_differential import _FACTORIES, _REQUESTS, _histories
from repro.cli import main
from repro.core.server import OriginServer
from repro.live import parse_chaos
from repro.live.driver import run_replay
from repro.obs import registry as obs_metrics
from repro.obs import timeline
from repro.obs import trace as obs_trace

_CHAOS = "loss=0.3,truncate=0.2,seed=7"


def _traced_chaos_replay(tmp_path, protocol="alex"):
    """One chaotic traced pooled replay; returns (trace base, registry)."""
    base = tmp_path / "TRACE.jsonl"
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.installed(registry):
        report = asyncio.run(run_replay(
            OriginServer(_histories()), _FACTORIES[protocol](), _REQUESTS,
            end_time=120.0, connections=2, keepalive=True,
            chaos=parse_chaos(_CHAOS), trace_path=base,
        ))
    return base, registry, report


class TestTracedChaosReplay:
    def test_three_role_files_merge_and_validate(self, tmp_path):
        base, _, _ = _traced_chaos_replay(tmp_path)
        paths = timeline.role_trace_paths(base)
        for role, path in paths.items():
            assert path.exists(), role
            header, _ = obs_trace.load_jsonl(path)
            assert header["proc"] == role
        merged = timeline.merge(base)
        assert merged["schema"] == "repro.trace/2"
        assert set(merged["roles"]) == {"driver", "proxy", "origin"}
        assert timeline.validate(merged) == []

    def test_summarize_counts_match_registry_exactly(self, tmp_path):
        base, registry, _ = _traced_chaos_replay(tmp_path)
        summary = timeline.summarize(timeline.merge(base))
        assert summary["retries"] == registry.counter("live.retries").value
        assert summary["chaos_injected"] == registry.counter(
            "live.chaos.injected"
        ).value
        assert summary["retries"] > 0  # the plan must actually bite
        assert summary["exchanges"] == len(_REQUESTS)

    def test_every_exchange_is_traced_end_to_end(self, tmp_path):
        base, _, _ = _traced_chaos_replay(tmp_path)
        merged = timeline.merge(base)
        expected = {f"r{i}" for i in range(len(_REQUESTS))}
        for kind, proc in (
            ("live.trace.send", "driver"),
            ("live.trace.done", "driver"),
            ("live.trace.recv", "proxy"),
        ):
            seen = {
                record["trace"]
                for record in merged["records"]
                if record["type"] == "mark"
                and record["kind"] == kind
                and record["proc"] == proc
            }
            assert expected <= seen, kind
        commits = {
            record["meta"]["trace"]
            for record in merged["records"]
            if record["type"] == "span"
            and record["name"] == "live.trace.commit"
        }
        assert commits == expected

    def test_hit_ages_cover_live_hits(self, tmp_path):
        """Every unvalidated cache HIT contributes an age-at-delivery.

        (Revalidated serves are excluded: their age is zero by
        construction, the origin just re-stamped them.)
        """
        base, _, _ = _traced_chaos_replay(tmp_path)
        merged = timeline.merge(base)
        hits = [
            record
            for record in merged["records"]
            if record.get("type") == "span"
            and record.get("name") == "live.trace.exchange"
            and record["meta"].get("verdict") == "HIT"
        ]
        summary = timeline.summarize(merged)
        assert summary["hit_ages"]["count"] == len(hits)
        assert len(hits) > 0

    def test_serial_traced_replay(self, tmp_path):
        """The ``connections=1`` one-shot default traces too (no chaos
        needed)."""
        base = tmp_path / "TRACE.jsonl"
        asyncio.run(run_replay(
            OriginServer(_histories()), _FACTORIES["ttl"](), _REQUESTS,
            end_time=120.0, trace_path=base,
        ))
        merged = timeline.merge(base)
        assert timeline.validate(merged) == []
        summary = timeline.summarize(merged)
        assert summary["exchanges"] == len(_REQUESTS)
        assert summary["retries"] == 0

    def test_untraced_replay_writes_nothing(self, tmp_path):
        asyncio.run(run_replay(
            OriginServer(_histories()), _FACTORIES["ttl"](), _REQUESTS,
            end_time=120.0,
        ))
        assert list(tmp_path.iterdir()) == []


class TestTraceCli:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tracecli")
        log = tmp / "hcs.log"
        assert main(["synthesize", "hcs", str(log), "--seed", "7",
                     "--scale", "0.01"]) == 0
        base = tmp / "TRACE.jsonl"
        assert main(["replay", str(log), "--protocol", "alex",
                     "--parameter", "10", "--connections", "2",
                     "--keepalive", "--chaos", _CHAOS,
                     "--trace", str(base)]) == 0
        return base

    def test_replay_writes_per_role_files(self, traced, capsys):
        for path in timeline.role_trace_paths(traced).values():
            assert path.exists()

    def test_merge_json_validates(self, traced, capsys):
        assert main(["trace", "merge", str(traced)]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["schema"] == "repro.trace/2"
        assert merged["violations"] == []
        assert len(merged["records"]) > 0

    def test_summarize_json_schema(self, traced, capsys):
        assert main(["trace", "summarize", str(traced)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.trace.summary/1"
        assert summary["retries"] == summary["marks"]["live.trace.retry"]
        assert summary["exchanges"] > 0

    def test_grep_filters_by_kind_and_trace_id(self, traced, capsys):
        assert main(["trace", "grep", str(traced),
                     "--kind", "live.trace.exchange",
                     "--trace-id", "r0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "live.trace.exchange"
        assert record["meta"]["trace"] == "r0"

    def test_critical_path_json(self, traced, capsys):
        assert main(["trace", "critical-path", str(traced)]) == 0
        critical = json.loads(capsys.readouterr().out)
        assert critical["schema"] == "repro.trace.critical/1"
        assert critical["wall"] > 0.0
        assert critical["unattributed"] >= 0.0
        assert set(critical["phases"]) == set(timeline.PROXY_PHASES)
        assert critical["trace"].startswith("r")

    def test_merge_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["trace", "merge", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_crash_mode_traces(self, traced, tmp_path, capsys):
        """``--crash-after`` composes with ``--trace``: the killed
        proxy's records survive, the merge validates, and the crash is
        one kill followed by one restore."""
        log = traced.parent / "hcs.log"
        base = tmp_path / "t.jsonl"
        assert main(["replay", str(log), "--journal",
                     str(tmp_path / "j.jsonl"), "--crash-after", "3",
                     "--trace", str(base)]) == 0
        capsys.readouterr()
        assert main(["trace", "merge", str(base)]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["violations"] == []
        assert [
            record["kind"] for record in merged["records"]
            if record.get("kind") in ("live.trace.kill", "live.trace.restore")
        ] == ["live.trace.kill", "live.trace.restore"]


class TestCrashEdge:
    """``validate``'s kill ≤ restore rule, on hand-built timelines."""

    @staticmethod
    def _timeline(*marks):
        return {"records": [
            {"type": "mark", "proc": proc, "kind": kind, "trace": None,
             "clk": clk}
            for proc, kind, clk in marks
        ]}

    def test_kill_then_restore_is_healthy(self):
        assert timeline.validate(self._timeline(
            ("driver", "live.trace.kill", 1.0),
            ("proxy", "live.trace.restore", 1.5),
        )) == []

    def test_restore_before_its_kill_is_a_violation(self):
        (violation,) = timeline.validate(self._timeline(
            ("proxy", "live.trace.restore", 0.5),
            ("driver", "live.trace.kill", 1.0),
        ))
        assert "after proxy restore" in violation

    def test_kill_without_restore_is_a_violation(self):
        (violation,) = timeline.validate(self._timeline(
            ("driver", "live.trace.kill", 1.0),
        ))
        assert "no proxy restore" in violation

    def test_restore_without_kill_is_a_plain_restart(self):
        assert timeline.validate(self._timeline(
            ("proxy", "live.trace.restore", 0.5),
        )) == []

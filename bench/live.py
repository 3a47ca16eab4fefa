"""The live workloads: ``live-hits``, ``live-validate``, ``live-invalidation``.

One FAS trace, taken through the user's path (``trace_from_workload`` →
``write_trace`` → ``read_trace`` → ``workload_from_trace``), replayed by
one whole ``run_replay`` call per round: closed loop, two keep-alive
connections on loopback, origin + proxy + driver on one event loop.
The three protocols put the work in three places: the hit path, the
upstream exchange plus journal commit, and the invalidation-feed sync.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.protocols import (
    AlexProtocol,
    InvalidationProtocol,
    PollEveryRequestProtocol,
)
from repro.core.results import result_to_dict
from repro.core.simulator import SimulatorMode, simulate
from repro.http.datefmt import format_http_date, parse_http_date
from repro.http.messages import make_get, make_ok, parse_request, parse_response
from repro.live import Journal, LiveReplayReport, diff_live_vs_sim, run_replay
from repro.obs import registry as obs_metrics
from repro.obs import timeline
from repro.obs import trace as obs_trace
from repro.trace.reconstruct import workload_from_trace
from repro.trace.synthesis import read_trace, trace_from_workload, write_trace
from repro.workload.campus import build_campus_workloads

from harness import Clock, now, percentile

OPTIMIZED = SimulatorMode.OPTIMIZED
CONNECTIONS = 2

#: Proxy phase spans, in the order they run inside one exchange.
_PHASES = ("parse", "decision", "commit", "reply")


class _StampingSink(obs_trace.TraceSink):
    """An ambient sink that notes *when* each span was reported.

    ``live.warmup`` and ``live.replay`` are reported without a clock
    reading; a span is reported the moment it ends, so stamping the
    report time places them on the same axis as the roles' own spans.
    """

    def span(self, name: str, wall: float, meta: Optional[dict[str, Any]] = None) -> None:
        super().span(name, wall, {**(meta or {}), "clk": now()})


class LiveReplay:
    REQUEST_SCALE = 0.025

    def __init__(
        self, name: str, make_protocol: Callable[[], Any], out_dir: Path,
        journal: bool = False, request_scale: float = REQUEST_SCALE,
    ) -> None:
        self.name = name
        self.make_protocol = make_protocol
        self.out_dir = out_dir
        self.journal_path = out_dir / f"{name}.journal" if journal else None
        self.trace_path = out_dir / f"{name}.trace.jsonl"
        self.request_scale = request_scale
        self.problems: list[str] = []
        self.summaries: list[tuple[float, dict[str, Any], dict[str, float]]] = []

    def prepare(self, seed: int, clock: Clock, full_oracle: bool = False) -> None:
        clf = self.out_dir / f"{self.name}.clf"
        with clock.slice("setup.campus_build"):
            fas = build_campus_workloads(
                seed=seed, request_scale=self.request_scale
            )["FAS"]
        with clock.slice("setup.trace_from_workload"):
            trace = trace_from_workload(fas)
        with clock.slice("setup.write_trace"):
            write_trace(trace, clf)
        with clock.slice("setup.read_trace"):
            parsed = read_trace(clf)
        with clock.slice("setup.workload_from_trace"):
            workload = workload_from_trace(parsed)
        clf.unlink()
        with clock.slice("setup.server_build"):
            self.server = workload.server()
        self.stream, self.duration = workload.requests, workload.duration
        with clock.slice("setup.oracle"):
            self.expected = simulate(
                self.server, self.make_protocol(), self.stream, OPTIMIZED,
                end_time=self.duration,
            )
            self.expected.counters.check_invariants()
        with clock.slice("setup.reference_round"):
            report = self.round(Clock())
        self.problems += diff_live_vs_sim(report.result, self.expected)
        self.ops_per_round = len(self.stream)
        self.requests_per_round = len(self.stream)

    def round(self, clock: Clock) -> LiveReplayReport:
        if self.journal_path is not None:
            self.journal_path.unlink(missing_ok=True)
        replay = run_replay(
            self.server, self.make_protocol(), self.stream, OPTIMIZED,
            end_time=self.duration, connections=CONNECTIONS, keepalive=True,
            journal_path=self.journal_path,
            trace_path=self.trace_path if clock.tracing else None,
        )
        if not clock.tracing:
            with clock.slice("run_replay", layer="live.run_replay"):
                return asyncio.run(replay)
        sink, registry = _StampingSink(), obs_metrics.MetricsRegistry()
        with obs_trace.installed(sink), obs_metrics.installed(registry):
            with clock.slice("run_replay", layer="live.run_replay") as root:
                report = asyncio.run(replay)
        with clock.layer("bench.trace_ingest"):
            self._ingest(clock, root, sink, registry, report)
        return report

    def check(self, report: LiveReplayReport) -> tuple[int, int]:
        differs = diff_live_vs_sim(report.result, self.expected)
        return len(self.stream), len(self.stream) if differs else 0

    def pinned(self) -> Any:
        return result_to_dict(self.expected)

    # -- the traced round's artifacts ---------------------------------------

    def _ingest(
        self, clock: Clock, root: dict[str, Any], sink: obs_trace.TraceSink,
        registry: obs_metrics.MetricsRegistry, report: LiveReplayReport,
    ) -> None:
        """Turn the round's own trace files into spans under ``root`` (the
        ``run_replay`` slice) and a summary."""
        merged = timeline.merge(self.trace_path)
        for path in timeline.role_trace_paths(self.trace_path).values():
            path.unlink(missing_ok=True)
        wall = root["end"] - root["start"]
        round_op = f"round{len(self.summaries)}"
        ambient = {r["name"]: r for r in sink.records if r["type"] == "span"}

        def place(name: str, parent: int) -> int:
            record = ambient.get(name)
            if record is None:
                return parent
            end = record["meta"]["clk"]
            return clock.add_span(name, end - record["wall"], end, parent, round_op)

        replay_id = place("live.replay", root["id"])
        place("live.warmup", replay_id)

        by_trace: dict[str, dict[str, list[dict[str, Any]]]] = {}
        for record in merged["records"]:
            meta = record.get("meta") or {}
            if record.get("type") == "span" and "trace" in meta:
                by_trace.setdefault(meta["trace"], {}).setdefault(
                    record["name"], []
                ).append(record)
        for tid, spans in by_trace.items():
            for exchange in spans.get("live.trace.exchange", []):
                end = exchange["meta"]["clk"]
                op = f"{round_op}.{tid}"
                exchange_id = clock.add_span(
                    "live.driver.exchange", end - exchange["wall"], end,
                    replay_id, op,
                )
                self._add_proxy_phases(clock, spans, exchange_id, op)

        counters = registry.as_dict()["counters"]
        latencies = sorted(
            r["wall"] for r in merged["records"]
            if r.get("type") == "span" and r.get("name") == "live.trace.exchange"
        )
        requests = len(self.stream)
        result = report.result.counters
        extras = {
            "live.upstream_exchanges_per_req":
                (report.origin_gets + report.origin_ims_queries) / requests,
            "live.wire_bytes_per_req": report.wire_bytes / requests,
            "live.upstream_share":
                (result.validations + result.misses) / requests,
            "live.retries": counters.get("live.retries", 0.0),
            "live.connection_errors": counters.get("live.connection_errors", 0.0),
        }
        p50, _ = percentile(latencies, 0.50)
        p99, beyond = percentile(latencies, 0.99)
        extras.update({
            "live.driver.exchange_p50_us": 1e6 * p50,
            "live.driver.exchange_p99_us": 1e6 * p99,
            "live.driver.exchange_beyond_p99": float(beyond),
        })
        self.summaries.append((wall, timeline.summarize(merged), extras))

    @staticmethod
    def _add_proxy_phases(
        clock: Clock, spans: dict[str, list[dict[str, Any]]],
        exchange_id: int, op: str,
    ) -> None:
        """One exchange's proxy spans under its driver span.

        The proxy reports the upstream wait of a decision as a total,
        not as instants, so the decision span is widened by that total
        and the upstream span (with the origin's service spans laid end
        to end inside it) is placed at its tail: durations are as
        recorded, positions inside a decision are not.
        """
        upstream = sum(s["wall"] for s in spans.get("live.trace.upstream", []))
        for phase in _PHASES:
            for record in spans.get(f"live.trace.{phase}", []):
                end = record["meta"]["clk"]
                wall = record["wall"] + (upstream if phase == "decision" else 0.0)
                phase_id = clock.add_span(
                    f"live.proxy.{phase}", end - wall, end, exchange_id, op
                )
                if phase == "decision" and upstream:
                    upstream_id = clock.add_span(
                        "live.proxy.upstream", end - upstream, end, phase_id, op
                    )
                    cursor = end - upstream
                    for served in spans.get("live.trace.origin", []):
                        clock.add_span(
                            "live.origin.service", cursor,
                            cursor + served["wall"], upstream_id, op,
                        )
                        cursor += served["wall"]

    def layer_metrics(
        self, setup: Clock, untraced: Clock, traced: Clock, probes: Clock
    ) -> dict[str, float]:
        # The fastest traced round speaks for the per-exchange means; they
        # are the program's own readings, scaled like the bench's.
        _, summary, extras = min(self.summaries, key=lambda item: item[0])
        speed = traced.speed()

        def mean_us(name: str) -> float:
            entry = summary["spans"].get(name)
            return 1e6 * entry["wall_mean"] / speed if entry else 0.0

        overhead = traced.normalised_seconds() / untraced.normalised_seconds()
        metrics = {
            "live.proxy.parse_us": mean_us("live.trace.parse"),
            "live.proxy.decision_us": mean_us("live.trace.decision"),
            "live.proxy.reply_us": mean_us("live.trace.reply"),
            "live.proxy.upstream_us": mean_us("live.trace.upstream"),
            "live.proxy.commit_us": mean_us("live.trace.commit"),
            "live.origin.service_us": mean_us("live.trace.origin"),
            "live.exchanges": float(summary["exchanges"]),
            "live.warmup_s": traced.layer_seconds("live.warmup"),
            "obs.live_trace_overhead_ratio": overhead,
            "workload.campus_build_s": setup.seconds("setup.campus_build"),
            "core.server_build_s": setup.seconds("setup.server_build"),
        }
        metrics.update(extras)
        metrics["live.driver.exchange_p50_us"] /= speed
        metrics["live.driver.exchange_p99_us"] /= speed
        metrics.update(_http_metrics(probes))
        if self.journal_path is not None:
            metrics["live.journal.append_us"] = _journal_append_us(
                self.out_dir / f"{self.name}.probe.journal", probes
            )
        return metrics


def _per_call_us(
    probes: Clock, key: str, fn: Callable[[], None], calls: int, repeats: int = 5
) -> float:
    """Normalised mean of ``repeats`` batches of ``calls`` calls, per call."""
    for _ in range(repeats):
        with probes.slice(key):
            for _ in range(calls):
                fn()
    return 1e6 * probes.seconds(key) / calls


def _http_metrics(probes: Clock) -> dict[str, float]:
    """Round trips of the wire formats every live exchange pays for."""
    body = "x" * 8192
    request = make_get("/fas/object-1.html")
    response = make_ok(len(body), last_modified=86_400.0)

    def messages() -> None:
        parse_request(request.serialize())
        parse_response(response.serialize(body))

    return {
        "http.date_roundtrip_us": _per_call_us(
            probes, "http.date",
            lambda: parse_http_date(format_http_date(1_234_567.0)), calls=2000,
        ),
        "http.message_roundtrip_us": _per_call_us(
            probes, "http.message", messages, calls=500
        ),
    }


def _journal_append_us(path: Path, probes: Clock, records: int = 2000) -> float:
    """``Journal.append`` of a transaction-sized record, per append."""
    journal = Journal(path)
    record = {"kind": "txn", "seq": "r0", "reply": "x" * 256,
              "counters": {"requests": 1, "hits": 1}, "now": 1.0}
    try:
        return _per_call_us(probes, "journal.append",
                            lambda: journal.append(record), calls=records,
                            repeats=1)
    finally:
        path.unlink(missing_ok=True)


def build(out_dir: Path, request_scale: float) -> list[LiveReplay]:
    return [
        LiveReplay("live-hits", lambda: AlexProtocol.from_percent(10.0), out_dir,
                   request_scale=request_scale),
        LiveReplay("live-validate", PollEveryRequestProtocol, out_dir,
                   journal=True, request_scale=request_scale),
        LiveReplay("live-invalidation", InvalidationProtocol, out_dir,
                   request_scale=request_scale),
    ]

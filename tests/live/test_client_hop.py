"""The driver→proxy hop rides :class:`repro.live.wire.ConnectionPool`.

Both hops of a live replay send through the same pool class and are
retried by its one loop.  What that must not change: ``keepalive=False``
keeps the historical wire bytes, and retry marks from both hops still
sum to the ``live.retries`` counter.  (One key is one socket, and a
failing worker leaves no socket behind: ``test_concurrency``.)
"""

import asyncio
from collections import Counter

from tests.live.test_trace_live import _traced_chaos_replay
from repro.cli import main
from repro.core.protocols.factory import build_protocol
from repro.live import run_replay
from repro.obs import timeline
from repro.trace.reconstruct import workload_from_trace
from repro.trace.synthesis import read_trace


class TestOneShotWireBytes:
    def test_make_live_trace_moves_the_historical_bytes(self, tmp_path):
        """``keepalive=False`` through the pool is ``wire.exchange`` per
        request, no ``Connection`` header: `make live`'s first leg
        moves exactly the bytes it moved when the driver called
        ``exchange`` itself (8,132,490, read off the parent commit)."""
        log = tmp_path / "live.log"
        assert main(["synthesize", "hcs", str(log), "--seed", "7",
                     "--scale", "0.02"]) == 0
        workload = workload_from_trace(read_trace(log))
        report = asyncio.run(run_replay(
            workload.server(), build_protocol("alex", 10.0),
            workload.requests, end_time=workload.duration,
        ))
        assert report.result.counters.requests == 651
        assert report.wire_bytes == 8_132_490


class TestRetryMarksFromBothHops:
    def test_summary_retries_equal_the_counter(self, tmp_path):
        base, registry, _ = _traced_chaos_replay(tmp_path)
        merged = timeline.merge(base)
        hops = Counter(
            record["meta"]["hop"] for record in merged["records"]
            if record.get("kind") == "live.trace.retry"
        )
        assert set(hops) == {"client", "upstream"}
        retries = registry.counter("live.retries").value
        assert sum(hops.values()) == retries
        assert timeline.summarize(merged)["retries"] == retries

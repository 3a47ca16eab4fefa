"""Crash persistence: the journal, restore, and the SIGKILL leg.

The proxy's journal is commit-before-reply: every acknowledged request
is on disk before the client hears about it, so a SIGKILLed proxy can
be restarted and re-warmed into exactly the state its clients already
observed.  These tests pin the journal's torn-line tolerance, the
in-process restore round-trip, the child process's contracts, and named
cells of the crash axis (``live_vs_sim(..., crash_after=)``; the grid is
``test_differential.TestCrashAxis``).
"""

import asyncio
import os
import pickle
import subprocess
import sys

import pytest

from tests.live.test_differential import _FACTORIES, _REQUESTS, _histories
from repro.core.protocols.factory import build_protocol
from repro.core.server import OriginServer
from repro.faults.plan import FaultPlan
from repro.live import (
    Journal,
    LiveOrigin,
    LiveProxy,
    live_vs_sim,
    run_replay,
)
from repro.live.wire import LiveReplayError


class TestJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        records = [{"kind": "config", "protocol": "ttl"},
                   {"kind": "txn", "seq": "r0", "hits": 1}]
        for record in records:
            journal.append(record)
        assert journal.load() == records

    def test_missing_file_loads_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").load() == []

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"kind": "config"})
        journal.append({"kind": "txn", "seq": "r0"})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "txn", "seq": "r1", "hi')  # SIGKILL here
        assert journal.load() == [
            {"kind": "config"}, {"kind": "txn", "seq": "r0"},
        ]

    def test_torn_line_with_newline_is_discarded(self, tmp_path):
        """A line can also tear *after* its newline was cut in — only
        records that parse are real."""
        path = tmp_path / "j.jsonl"
        Journal(path).append({"kind": "config"})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "txn", "truncated\n')
        assert Journal(path).load() == [{"kind": "config"}]

    def test_short_os_writes_do_not_tear_the_file(self, tmp_path, monkeypatch):
        """``os.write`` may write fewer bytes than asked; append must
        loop, or a mid-file torn line silently swallows every record
        after it on load."""
        import types

        import repro.obs.trace as log_mod

        real_write = os.write
        shim = types.SimpleNamespace(
            open=os.open,
            close=os.close,
            write=lambda fd, data: real_write(fd, data[:3]),
            O_WRONLY=os.O_WRONLY,
            O_CREAT=os.O_CREAT,
            O_APPEND=os.O_APPEND,
        )
        monkeypatch.setattr(log_mod, "os", shim)
        journal = Journal(tmp_path / "j.jsonl")
        records = [{"kind": "config", "protocol": "ttl"},
                   {"kind": "txn", "seq": "r0", "hits": 1}]
        for record in records:
            journal.append(record)
        assert journal.load() == records

    def test_appends_after_a_torn_tail_are_not_swallowed(self, tmp_path):
        """Commit, tear a line (SIGKILL mid-write), restart, commit
        twice more: the restarted writer cuts the fragment off first.
        Glued onto it, ``r2`` would fail to parse and take ``r3`` with
        it — two committed, replied-to transactions lost on the *next*
        restart."""
        path = tmp_path / "j.jsonl"
        first = Journal(path)
        first.append({"kind": "config"})
        first.append({"kind": "txn", "seq": "r1"})
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "txn", "se')
        second = Journal(path)
        second.append({"kind": "txn", "seq": "r2"})
        second.append({"kind": "txn", "seq": "r3"})
        assert [r.get("seq") for r in Journal(path).load()] == [
            None, "r1", "r2", "r3",
        ]

    def test_a_file_torn_before_its_first_newline_restarts_empty(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"kind": "con')
        Journal(path).append({"kind": "config"})
        assert Journal(path).load() == [{"kind": "config"}]


class TestRestoreRoundTrip:
    def _replay_some(self, journal_path, upto):
        """Warm a journaled proxy and serve the first ``upto`` requests."""

        async def run():
            origin = LiveOrigin(OriginServer(_histories()))
            await origin.start()
            proxy = LiveProxy(
                origin.host, origin.port, _FACTORIES["invalidation"](),
                journal=Journal(journal_path),
            )
            await proxy.start()
            try:
                await proxy.warm(0.0)
                from repro.live.wire import DATE, SEQ_HEADER, exchange
                from repro.http.messages import Request

                for index, (t, object_id) in enumerate(_REQUESTS[:upto]):
                    request = Request("GET", object_id)
                    request.headers.set_date(DATE, t)
                    request.headers.set(SEQ_HEADER, f"r{index}")
                    await exchange(proxy.host, proxy.port, request)
                return proxy
            finally:
                await proxy.close()
                await origin.close()

        return asyncio.run(run())

    def test_restore_rebuilds_counters_cache_and_replies(self, tmp_path):
        path = tmp_path / "j.jsonl"
        before = self._replay_some(path, upto=6)

        async def restore():
            restored = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            assert await restored.restore()
            return restored

        after = asyncio.run(restore())
        assert after.counters == before.counters
        assert after.bandwidth == before.bandwidth
        assert after.events == before.events
        assert sorted(after._done) == sorted(before._done)
        from repro.live.proxy import _entry_dict

        assert {
            oid: _entry_dict(after.cache.peek(oid))
            for oid in ("/a", "/b", "/exp")
        } == {
            oid: _entry_dict(before.cache.peek(oid))
            for oid in ("/a", "/b", "/exp")
        }

    def test_restore_under_a_fault_plan_needs_no_origin(self, tmp_path):
        """The plan's schedule is compiled from the feed by the first
        delivery, like the fault-free queues — not by ``restore``."""
        path = tmp_path / "j.jsonl"
        self._replay_some(path, upto=2)

        async def restore():
            proxy = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                faults=FaultPlan(loss_rate=0.5, seed=1),
                journal=Journal(path),
            )
            return await proxy.restore()

        assert asyncio.run(restore()) is True

    def test_empty_journal_restores_nothing(self, tmp_path):
        async def restore():
            proxy = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                journal=Journal(tmp_path / "empty.jsonl"),
            )
            return await proxy.restore()

        assert asyncio.run(restore()) is False

    def test_config_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._replay_some(path, upto=2)

        async def restore_wrong():
            proxy = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["ttl"](),
                journal=Journal(path),
            )
            await proxy.restore()

        with pytest.raises(LiveReplayError, match="journal"):
            asyncio.run(restore_wrong())

    def test_global_watermark_record_is_rejected(self, tmp_path):
        """A ``last_sync`` record was written by the removed
        global-watermark invalidation sync.  Restoring it onto
        per-object cursors (all still at warm-up) would re-deliver and
        double-charge every invalidation since then, so restore must
        refuse the journal instead."""
        journal = Journal(tmp_path / "old.jsonl")
        journal.append({
            "kind": "config", "protocol": "invalidation",
            "mode": "optimized", "charge_per_modification": True,
            "concurrent": False,
        })
        journal.append({"kind": "warm", "t": 0.0, "entries": []})
        journal.append({
            "kind": "txn", "payload": "", "now": 45.0, "last_sync": 45.0,
            "counters": {"invalidations_received": 1},
        })

        async def restore_old():
            proxy = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                journal=journal,
            )
            await proxy.restore()

        with pytest.raises(LiveReplayError, match="last_sync"):
            asyncio.run(restore_old())


    def test_records_written_before_the_shared_codec_still_restore(
        self, tmp_path
    ):
        """The txn record schema (sparse ``counters`` / ``ledger``
        deltas, zero cells stripped) predates ``core.results`` owning
        the codec.  This record is the parent commit's own output for
        ``GET /a`` at t=45 under invalidation; it must restore to the
        same totals."""
        journal = Journal(tmp_path / "parent.jsonl")
        journal.append({
            "kind": "config", "protocol": "invalidation",
            "mode": "optimized", "charge_per_modification": True,
        })
        journal.append({"kind": "warm", "t": 0.0, "entries": []})
        journal.append({
            "kind": "txn", "seq": "r3", "payload": "", "now": 45.0,
            "obj_now": ["/a", 45.0], "cursors": {"/a": 45.0},
            "counters": {
                "invalidations_received": 1, "misses": 1, "requests": 1,
                "server_invalidations_sent": 1, "validations": 1,
            },
            "ledger": {
                "body_bytes": {"validation_200": 1000},
                "control_bytes": {"invalidation": 43, "validation_200": 86},
                "exchanges": {"invalidation": 1, "validation_200": 1},
            },
            "events": [["invalidation", 40.0, "/a"],
                       ["validation_200", 45.0, "/a"]],
        })

        async def restore():
            proxy = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](), journal=journal,
            )
            assert await proxy.restore()
            return proxy

        proxy = asyncio.run(restore())
        from repro.core.results import SimulationResult, result_to_dict

        totals = result_to_dict(
            SimulationResult("", "", proxy.counters, proxy.bandwidth),
            sparse=True,
        )
        record = journal.load()[-1]
        assert totals["counters"] == record["counters"]
        assert totals["bandwidth"] == record["ledger"]
        assert proxy.bandwidth.total_bytes == 1000 + 43 + 86
        assert proxy.events == [("invalidation", 40.0, "/a"),
                                ("validation_200", 45.0, "/a")]

    def test_txn_records_keep_their_sparse_schema(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._replay_some(path, upto=6)
        txns = [r for r in Journal(path).load() if r["kind"] == "txn"]
        assert txns and all("bandwidth" not in r for r in txns)
        assert all(all(r.get("counters", {1: 1}).values()) for r in txns)
        for record in txns:
            for table, cells in record.get("ledger", {}).items():
                assert table in ("control_bytes", "body_bytes", "exchanges")
                assert cells and all(cells.values())


class TestUpstreamIdempotency:
    """The crash window the journal cannot cover: a SIGKILL after the
    origin counted a fetch but before the transaction committed.  The
    restarted proxy *re-executes* that request, so its origin fetches
    must carry the same deterministic sequence ids — always, not only
    when this process itself retries."""

    def _exchange(self, host, port, object_id, t, seq):
        from repro.http.messages import Request
        from repro.live.wire import DATE, SEQ_HEADER, exchange

        request = Request("GET", object_id)
        request.headers.set_date(DATE, t)
        request.headers.set(SEQ_HEADER, seq)
        return exchange(host, port, request)

    def test_reexecution_after_uncommitted_crash_does_not_double_count(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"

        async def run():
            origin = LiveOrigin(OriginServer(_histories()))
            await origin.start()
            first = LiveProxy(
                origin.host, origin.port, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            await first.start()
            try:
                await first.warm(0.0)
                response, _, _ = await self._exchange(
                    first.host, first.port, "/dyn", 5.0, "r0"
                )
                assert response.status == 200
                # Upstream ids are stamped even with the default
                # single-attempt budget — the origin saw one.
                assert "/dyn@0" in origin._seen
                assert origin.gets == 1
            finally:
                await first.close()

            # Simulate the SIGKILL landing before the commit reached
            # disk: drop the request's transaction record, keeping the
            # origin (which already counted the fetch) alive.
            records = Journal(path).load()
            assert records[-1]["kind"] == "txn"
            os.unlink(path)
            rewritten = Journal(path)
            for record in records[:-1]:
                rewritten.append(record)

            second = LiveProxy(
                origin.host, origin.port, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            try:
                assert await second.restore()
                await second.start()
                # The retried request re-executes (its reply was never
                # committed) under the same upstream id; the origin
                # dedups and its counter must not move.
                response, _, _ = await self._exchange(
                    second.host, second.port, "/dyn", 5.0, "r0"
                )
                assert response.status == 200
                assert origin.gets == 1
            finally:
                await second.close()
                await origin.close()

        asyncio.run(run())

    def test_txn_records_journal_only_their_own_upstream_ids(self, tmp_path):
        """A transaction's journal record must carry only the upstream
        counters it advanced itself — snapshotting the shared dict
        would capture siblings' uncommitted increments, and a restore
        from such a record over-advances the ids."""
        path = tmp_path / "j.jsonl"

        async def run():
            origin = LiveOrigin(OriginServer(_histories()))
            await origin.start()
            proxy = LiveProxy(
                origin.host, origin.port, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            await proxy.start()
            try:
                await proxy.warm(0.0)
                from repro.http.messages import Request
                from repro.live.wire import DATE, SEQ_HEADER, exchange

                # Three fetch-causing requests across two objects: the
                # dynamic object twice, plus a revalidation of /a after
                # its t=40 modification.
                stream = [
                    (20.0, "/dyn"), (45.0, "/a"), (100.0, "/dyn"),
                ]
                for index, (t, object_id) in enumerate(stream):
                    request = Request("GET", object_id)
                    request.headers.set_date(DATE, t)
                    request.headers.set(SEQ_HEADER, f"r{index}")
                    await exchange(proxy.host, proxy.port, request)
            finally:
                await proxy.close()
                await origin.close()

        asyncio.run(run())
        upstreams = [
            record["upstream"] for record in Journal(path).load()
            if record["kind"] == "txn" and "upstream" in record
        ]
        assert len(upstreams) == 3
        # Each of these transactions fetched exactly one object; a
        # shared-dict snapshot would accumulate earlier objects too.
        assert [sorted(u) for u in upstreams] == [
            ["/dyn"], ["/a"], ["/dyn"],
        ]
        assert upstreams[0]["/dyn"] == 1
        assert upstreams[2]["/dyn"] == 2


class TestRetryPause:
    """Riding through a restart: behind a chaos relay a dead proxy is a
    cleanly closed connection (a wire error), not a refused one, and
    must be waited out all the same."""

    @pytest.mark.parametrize("pause,expected", [
        (0.05, [0.05, 0.05]), (0.0, []),
    ])
    def test_every_failed_attempt_pauses(self, monkeypatch, pause, expected):
        import repro.live.wire as wire
        from repro.http.messages import Request

        pauses = []
        sent = []
        failures = [wire.LiveConnectionClosed("relay hung up"),
                    ConnectionRefusedError()]

        async def fake_sleep(seconds):
            pauses.append(seconds)

        async def fake_exchange(host, port, request):
            sent.append(request)
            if failures:
                raise failures.pop(0)
            return "reply"

        monkeypatch.setattr(wire.asyncio, "sleep", fake_sleep)
        monkeypatch.setattr(wire, "exchange", fake_exchange)
        pool = wire.ConnectionPool("127.0.0.1", 1, keepalive=False)
        request = Request("GET", "/a")
        assert asyncio.run(
            pool.request(request, attempts=3, pause=pause)
        ) == "reply"
        assert pauses == expected
        # A retry resends the same request object (same X-Repro-Seq).
        assert len(sent) == 3 and all(r is request for r in sent)


class TestChildProcess:
    """``python -m repro.live.standalone``'s contracts with its parent."""

    def _spawn(self, tmp_path):
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.live.standalone"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        kwargs = {
            "origin_host": "127.0.0.1", "origin_port": 1,
            "protocol": _FACTORIES["alex"](),
            "journal": Journal(tmp_path / "j.jsonl"),
        }
        child.stdin.write(pickle.dumps((kwargs, 0)))
        child.stdin.flush()
        return child

    def test_configuration_arrives_on_stdin_and_eof_ends_the_child(
        self, tmp_path
    ):
        """A driver that dies any death closes the pipe: no orphaned
        proxy may outlive it."""
        child = self._spawn(tmp_path)
        try:
            assert child.stdout.readline().startswith(b"PORT ")
            assert child.poll() is None
            child.stdin.close()
            assert child.wait(timeout=10) == 0
        finally:
            child.kill()
            child.wait()
            child.stdout.close()


class TestCrashRestartDifferential:
    @pytest.mark.parametrize("protocol,parameter", [
        ("invalidation", 0.0),
        ("selftuning", 4.0),
    ])
    def test_sigkill_restart_reconciles_exactly(
        self, tmp_path, protocol, parameter
    ):
        _, _, report = live_vs_sim(
            OriginServer(_histories()),
            lambda: build_protocol(protocol, parameter), _REQUESTS,
            start_time=0.0, end_time=120.0,
            charge_per_modification=True, connections=2, keepalive=True,
            journal_path=tmp_path / "j.jsonl", crash_after=4,
        )
        assert report.ok
        assert report.counters_checked == 13
        assert report.ledger_cells_checked == 15
        assert report.events_checked >= len(_REQUESTS)

    def test_each_proxy_lifetime_reads_the_feed_once(self, tmp_path):
        """The killed proxy subscribed on its first request; its
        successor restores without the origin and subscribes again on
        its own first delivery — two reads, and the journaled cursors
        keep the second from re-delivering anything."""
        report = asyncio.run(run_replay(
            OriginServer(_histories()), _FACTORIES["invalidation"](),
            _REQUESTS, end_time=120.0, connections=2, keepalive=True,
            journal_path=tmp_path / "j.jsonl", crash_after=4,
        ))
        assert report.origin_feed_reads == 2

    def test_the_journal_survived_a_real_kill(self, tmp_path):
        """The journal left behind holds the config plus committed
        transactions — evidence the restart actually re-warmed rather
        than recomputed."""
        path = tmp_path / "j.jsonl"
        live_vs_sim(
            OriginServer(_histories()), _FACTORIES["invalidation"],
            _REQUESTS, start_time=0.0, end_time=120.0,
            charge_per_modification=True, connections=2, keepalive=True,
            journal_path=path, crash_after=4,
        )
        records = Journal(path).load()
        kinds = {record["kind"] for record in records}
        assert kinds == {"config", "warm", "txn"}
        seqs = [
            record["seq"] for record in records if record["kind"] == "txn"
            and "seq" in record
        ]
        assert len(seqs) == len(set(seqs)) >= len(_REQUESTS)

    def test_costs_reach_the_child(self, tmp_path):
        """The child is built from the in-process proxy's own
        arguments, so a non-default cost model — which the by-name
        child could not be given — reconciles too."""
        from repro.core.costs import MessageCosts

        live, _, _ = live_vs_sim(
            OriginServer(_histories()), _FACTORIES["invalidation"],
            _REQUESTS, end_time=120.0, costs=MessageCosts(97),
            journal_path=tmp_path / "j.jsonl", crash_after=4,
        )
        charged = live.bandwidth.control_bytes.values()
        assert sum(charged) > 0 and all(cell % 97 == 0 for cell in charged)

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
        from repro.core.cache import CacheEntry

        def fields(proxy):
            return {
                oid: {name: getattr(proxy.cache.peek(oid), name)
                      for name in CacheEntry.__slots__}
                for oid in ("/a", "/b", "/exp")
            }

        assert fields(after) == fields(before)

    def test_restore_rebuilds_the_replay_table_byte_for_byte(self, tmp_path):
        """A request record keeps what came in, not the reply; the
        ``X-Repro-Seq`` replay table a restore rebuilds by re-running
        the records is the live proxy's, reply for reply."""
        path = tmp_path / "j.jsonl"
        before = self._replay_some(path, upto=len(_REQUESTS))

        async def restore():
            restored = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            assert await restored.restore()
            return restored

        after = asyncio.run(restore())
        assert len(before._done) == len(_REQUESTS)
        assert after._done == before._done
        seqs = [record["seq"] for record in Journal(path).load()
                if record["kind"] == "request"]
        assert sorted(seqs) == sorted(before._done)

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

    def test_a_state_delta_journal_is_refused(self, tmp_path):
        """An older proxy journaled each transaction's effects (a
        ``txn`` record of counters, entries, cursors, ...) and its
        warmed entries, which no re-execution can run: the ``warm``
        record holds no upstream replies to warm from, and ``txn`` is
        not a kind restore knows."""
        journal = Journal(tmp_path / "old.jsonl")
        journal.append({
            "kind": "config", "protocol": "invalidation",
            "mode": "optimized", "charge_per_modification": True,
        })
        journal.append({"kind": "warm", "t": 0.0, "entries": []})
        journal.append({
            "kind": "txn", "seq": "r3", "payload": "", "body_size": 0,
            "now": 45.0, "obj_now": ["/a", 45.0], "cursors": {"/a": 45.0},
            "counters": {"invalidations_received": 1, "requests": 1},
        })

        async def restore(records):
            path = tmp_path / f"{records[-1]['kind']}.jsonl"
            for record in records:
                Journal(path).append(record)
            proxy = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            await proxy.restore()

        config, warm, txn = journal.load()
        with pytest.raises(LiveReplayError, match="lacks the upstream"):
            asyncio.run(restore([config, warm]))
        with pytest.raises(LiveReplayError, match="kind 'txn'"):
            asyncio.run(restore([config, txn]))


    def test_records_hold_inputs_only(self, tmp_path):
        """The journal holds what came in — times, objects, sequence
        ids and the upstream replies read — never what it did."""
        path = tmp_path / "j.jsonl"
        self._replay_some(path, upto=len(_REQUESTS))
        records = Journal(path).load()
        assert [r["kind"] for r in records[:2]] == ["config", "warm"]
        assert {r["kind"] for r in records[2:]} == {"feed", "request"}
        for record in records[1:]:
            assert set(record) <= {"kind", "t", "object", "seq",
                                   "replies", "body"}, record
        requests = [r for r in records if r["kind"] == "request"]
        assert [(r["t"], r["object"]) for r in requests] == _REQUESTS
        for record in requests:
            for head, body in record.get("replies", []):
                assert head.startswith("HTTP/1.0 ")
                assert head.endswith("\r\n\r\n")
                assert isinstance(body, int)


class TestEveryRecordBoundary:
    """A journal's crash states are its prefixes, so enumerate them.

    One uncrashed replay of ``_REQUESTS`` plus ``finish`` is journaled;
    then, for every prefix from the ``warm`` record on, a new proxy
    restores it, the whole stream is resent under the same sequence ids
    against the same origin, and the run finishes.  Whatever the cut,
    the proxy must end where the uncrashed one did, and the origin must
    count no fetch twice.
    """

    async def _send(self, proxy):
        from repro.http.messages import Request
        from repro.live.wire import CONTROL_PREFIX, DATE, SEQ_HEADER, exchange

        for index, (t, object_id) in enumerate(_REQUESTS):
            request = Request("GET", object_id)
            request.headers.set_date(DATE, t)
            request.headers.set(SEQ_HEADER, f"r{index}")
            response, _, _ = await exchange(proxy.host, proxy.port, request)
            assert response.status == 200
        finish = Request("GET", CONTROL_PREFIX + "finish")
        finish.headers.set_date(DATE, 120.0)
        response, _, _ = await exchange(proxy.host, proxy.port, finish)
        assert response.status == 200

    @staticmethod
    def _state(proxy):
        return (proxy.counters, proxy.bandwidth, proxy.events, proxy._done)

    @pytest.mark.parametrize("name,faults", [
        ("invalidation", None),
        ("invalidation-eager", "cache-crash"),
        ("selftuning", "loss-retries"),
    ])
    def test_every_prefix_restores_to_the_uncrashed_end(
        self, tmp_path, name, faults
    ):
        from tests.live.test_differential import _FAULTS

        plan = _FAULTS[faults] if faults is not None else None
        full = tmp_path / "full.jsonl"

        async def run():
            origin = LiveOrigin(OriginServer(_histories()))
            await origin.start()
            try:
                proxy = LiveProxy(
                    origin.host, origin.port, _FACTORIES[name](),
                    faults=plan, journal=Journal(full),
                )
                await proxy.start()
                try:
                    await proxy.warm(0.0)
                    await self._send(proxy)
                finally:
                    await proxy.close()
                expected, gets = self._state(proxy), origin.gets
                lines = full.read_bytes().splitlines(keepends=True)
                kinds = [record["kind"] for record in Journal(full).load()]
                assert len(kinds) == len(lines)
                first = kinds.index("warm") + 1
                assert len(lines) > first + len(_REQUESTS)
                for cut in range(first, len(lines) + 1):
                    path = tmp_path / f"cut{cut}.jsonl"
                    path.write_bytes(b"".join(lines[:cut]))
                    restored = LiveProxy(
                        origin.host, origin.port, _FACTORIES[name](),
                        faults=plan, journal=Journal(path),
                    )
                    assert await restored.restore()
                    await restored.start()
                    try:
                        await self._send(restored)
                    finally:
                        await restored.close()
                    assert self._state(restored) == expected, cut
                    assert origin.gets == gets, cut
            finally:
                await origin.close()

        asyncio.run(run())


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
            assert records[-1]["kind"] == "request"
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
        """The journal keeps no upstream ids: re-executing its records
        derives them again, so the restored per-object counters are
        the live proxy's, each advanced only by its own object's
        committed fetches."""
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
            restored = LiveProxy(
                "127.0.0.1", 1, _FACTORIES["invalidation"](),
                journal=Journal(path),
            )
            assert await restored.restore()
            return proxy._upstream, restored._upstream

        live, restored = asyncio.run(run())
        assert live == {"/dyn": 2, "/a": 1}
        assert restored == live


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
        """The killed proxy subscribed on its first request and
        journaled the feed; its successor restores without the origin
        and takes the feed from its journal — one read for the run."""
        report = asyncio.run(run_replay(
            OriginServer(_histories()), _FACTORIES["invalidation"](),
            _REQUESTS, end_time=120.0, connections=2, keepalive=True,
            journal_path=tmp_path / "j.jsonl", crash_after=4,
        ))
        assert report.origin_feed_reads == 1

    def test_the_journal_survived_a_real_kill(self, tmp_path):
        """The journal left behind holds the config, warm-up, the feed,
        every committed request and the finish — evidence the restart
        re-ran the killed proxy's requests rather than starting cold."""
        path = tmp_path / "j.jsonl"
        live_vs_sim(
            OriginServer(_histories()), _FACTORIES["invalidation"],
            _REQUESTS, start_time=0.0, end_time=120.0,
            charge_per_modification=True, connections=2, keepalive=True,
            journal_path=path, crash_after=4,
        )
        records = Journal(path).load()
        kinds = {record["kind"] for record in records}
        assert kinds == {"config", "warm", "feed", "request", "finish"}
        seqs = [
            record["seq"] for record in records
            if record["kind"] == "request" and "seq" in record
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

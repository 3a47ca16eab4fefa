"""Retired RPR007: async safety, now a tripwire and a tier-1 walk.

A blocking call on a running event loop raises when it runs: the
tripwire ``tests/conftest.py`` installs for every test.  Lock
discipline is not visible in any run (a critical section with no
``await`` is atomic on every interleaving), so it stays a check on the
source: :func:`tests.lint.locks.lock_findings`, one module's ``ast`` at
a time.
"""

import asyncio
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import live, runtime
from repro.live import proxy
from tests.lint.locks import lock_findings


RACY_PROXY = '''
import asyncio

class Proxy:
    def __init__(self):
        self._lock = asyncio.Lock()
        self.hits = 0
        self.wire_bytes = 0

    async def start(self):
        self._listener = await asyncio.start_server(self._handle, "h", 0)

    async def _handle(self, reader, writer):
        data = await reader.read(100)
        self.hits += 1
        body = await self._fetch(data)
        self.wire_bytes += len(body)

    async def _fetch(self, data):
        return data
'''


class TestUnlockedTransactions:
    def test_write_after_await_flagged(self):
        diags = lock_findings(RACY_PROXY)
        assert len(diags) == 1
        d = diags[0]
        assert "self.wire_bytes" in d.message
        assert "self._lock" in d.message
        # The because chain cites the transaction start and the await.
        notes = list(d.because)
        assert any("self.hits" in n for n in notes)
        assert any("await" in n for n in notes)

    def test_same_shape_under_lock_is_clean(self):
        safe = RACY_PROXY.replace(
            """        data = await reader.read(100)
        self.hits += 1
        body = await self._fetch(data)
        self.wire_bytes += len(body)""",
            """        data = await reader.read(100)
        async with self._lock:
            self.hits += 1
            body = await self._fetch(data)
            self.wire_bytes += len(body)""",
        )
        assert lock_findings(safe) == []

    def test_method_not_handed_to_event_loop_is_not_analyzed(self):
        # No start_server/create_task: nothing can interleave, so the
        # same racy body draws no finding (documented imprecision).
        no_entry = RACY_PROXY.replace(
            'self._listener = await asyncio.start_server(self._handle, "h", 0)',
            "pass",
        )
        assert lock_findings(no_entry) == []

    def test_touch_via_helper_method_counts(self):
        source = '''
import asyncio

class Proxy:
    def __init__(self):
        self.count = 0

    async def start(self):
        await asyncio.start_server(self._handle, "h", 0)

    def _bump(self):
        self.count += 1

    async def _handle(self, reader, writer):
        self._bump()
        await writer.drain()
        self._bump()
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "self.count" in diags[0].message

    def test_helper_called_only_under_lock_is_clean(self):
        source = '''
import asyncio

class Proxy:
    def __init__(self):
        self._lock = asyncio.Lock()
        self.count = 0

    async def start(self):
        await asyncio.start_server(self._handle, "h", 0)

    async def _respond(self):
        self.count += 1
        await self._refetch()
        self.count += 1

    async def _refetch(self):
        return None

    async def _handle(self, reader, writer):
        async with self._lock:
            await self._respond()
'''
        assert lock_findings(source) == []

    def test_read_modify_write_straddling_await(self):
        source = '''
import asyncio

class Counter:
    def __init__(self):
        self.total = 0

    def spawn(self):
        asyncio.create_task(self.bump())

    async def bump(self):
        self.total += await self._cost()

    async def _cost(self):
        return 1
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "read-modify-write" in diags[0].message

    def test_mutating_container_call_counts_as_touch(self):
        source = '''
import asyncio

class Feed:
    def __init__(self):
        self.pending = []

    def spawn(self):
        asyncio.create_task(self.drain())

    async def drain(self):
        self.pending.append(1)
        await self._flush()
        self.pending.clear()

    async def _flush(self):
        return None
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "self.pending" in diags[0].message

    def test_branch_that_returns_does_not_leak_state(self):
        # The error path mutates then returns; the main path mutates
        # once — no transaction spans an await on any single path.
        source = '''
import asyncio

class Proxy:
    def __init__(self):
        self.wire_bytes = 0

    async def start(self):
        await asyncio.start_server(self._handle, "h", 0)

    async def _handle(self, reader, writer):
        try:
            data = await reader.read(100)
        except ConnectionError:
            self.wire_bytes += 1
            return
        sent = await self._send(writer, data)
        self.wire_bytes += sent

    async def _send(self, writer, data):
        return len(data)
'''
        assert lock_findings(source) == []

    def test_loop_carries_transaction_across_iterations(self):
        source = '''
import asyncio

class Feed:
    def __init__(self):
        self.seen = 0

    def spawn(self):
        asyncio.create_task(self.pump())

    async def pump(self):
        for _ in range(3):
            self.seen += 1
            await self._tick()

    async def _tick(self):
        return None
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "self.seen" in diags[0].message


class TestBlockingCalls:
    def test_blocking_call_two_hops_from_async_def(self, seed_module):
        chain = seed_module(live, "poller", """
            import time

            def _backoff(n):
                time.sleep(n)

            def _retry(n):
                _backoff(n)

            async def poll_origin(n):
                _retry(n)
        """)
        with pytest.raises(AssertionError, match=(
                "repro.live.poller called time.sleep: a blocking call on a "
                "running event loop")):
            asyncio.run(chain.poll_origin(0))
        # The same chain with no loop running blocks no one.
        chain._retry(0)

    def test_blocking_call_not_reachable_from_async_is_clean(
            self, seed_module):
        clean = seed_module(live, "sleeper", """
            import time

            def sync_only(n):
                time.sleep(n)

            async def handler(n):
                return n
        """)
        clean.sync_only(0)
        assert asyncio.run(clean.handler(3)) == 3

    def test_out_of_scope_async_def_is_not_a_root(self, seed_module):
        elsewhere = seed_module(repro.core, "simulator2", """
            import time

            async def handler(n):
                time.sleep(n)
        """)
        asyncio.run(elsewhere.handler(0))

    def test_subprocess_and_socket_flagged(self, seed_module):
        # Every guarded call raises before it does anything.
        calls = seed_module(runtime, "blocking", """
            import os
            import socket
            import subprocess
            import urllib.request

            CALLS = {
                "subprocess.run": lambda: subprocess.run(["true"]),
                "subprocess.Popen": lambda: subprocess.Popen(["true"]),
                "subprocess.call": lambda: subprocess.call(["true"]),
                "subprocess.check_call": lambda: subprocess.check_call(
                    ["true"]),
                "subprocess.check_output": lambda: subprocess.check_output(
                    ["true"]),
                "socket.create_connection": lambda: socket.create_connection(
                    ("h", 80)),
                "os.system": lambda: os.system("true"),
                "urllib.request.urlopen": lambda: urllib.request.urlopen(
                    "http://h/"),
                "builtins.open": lambda: open(os.devnull),
            }

            async def handler(name):
                CALLS[name]()
        """)
        for name in calls.CALLS:
            with pytest.raises(AssertionError, match=(
                    f"repro.runtime.blocking called {name}: a blocking")):
                asyncio.run(calls.handler(name))


class TestLockNesting:
    def test_await_under_sync_lock(self):
        source = '''
import threading

_pool_lock = threading.Lock()

async def drain(queue):
    with _pool_lock:
        await queue.get()
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "synchronous lock" in diags[0].message

    def test_nested_async_lock_acquisition(self):
        source = '''
async def nested(a_lock, b_lock):
    async with a_lock:
        async with b_lock:
            pass
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "nested lock acquisition" in diags[0].message

    def test_single_lock_with_await_inside_is_fine(self):
        source = '''
async def serialized(a_lock, queue):
    async with a_lock:
        await queue.get()
'''
        assert lock_findings(source) == []


    # -- three defects the rule shipped with, one bad / clean pair each ------

    CLASS_LOCKS = '''
import asyncio

class Proxy:
    def __init__(self):
        self._gate = asyncio.Lock()
        self._state = asyncio.Lock()

    async def update(self):
        async with self._gate:
            async with self._state:
                pass
'''

    def test_class_lock_attribute_without_lock_in_its_name(self):
        # Neither name says "lock"; the class's Lock() assignments do.
        diags = lock_findings(self.CLASS_LOCKS)
        assert len(diags) == 1
        assert "acquires self._state while already holding self._gate" in (
            diags[0].message
        )

    def test_class_lock_attributes_taken_in_turn_are_fine(self):
        in_turn = self.CLASS_LOCKS.replace(
            "            async with self._state:\n                pass",
            "            pass\n        async with self._state:\n            pass",
        )
        assert in_turn != self.CLASS_LOCKS
        assert lock_findings(in_turn) == []

    NESTED_DEF = '''
import threading

_pool_lock = threading.Lock()

def schedule(queue):
    with _pool_lock:
        async def later():
            await queue.get()
    return later
'''

    def test_nested_def_does_not_run_under_the_enclosing_lock(self):
        # ``later`` is only defined under the lock; it awaits after the
        # ``with`` block has long been left.
        assert lock_findings(self.NESTED_DEF) == []

    def test_await_beside_a_nested_def_is_still_flagged(self):
        beside = self.NESTED_DEF.replace(
            "def schedule(queue):", "async def schedule(queue):"
        ).replace(
            "    return later", "        await queue.join()\n    return later"
        )
        diags = lock_findings(beside)
        assert [d.line for d in diags] == [10]
        assert "synchronous lock" in diags[0].message

    def test_hazard_inside_a_nested_function_is_reported_once(self):
        source = '''
import threading

_pool_lock = threading.Lock()

def schedule(queue):
    async def later():
        with _pool_lock:
            await queue.get()
    return later
'''
        diags = lock_findings(source)
        assert len(diags) == 1
        assert "synchronous lock" in diags[0].message
        released = source.replace(
            "            await queue.get()",
            "            pending = queue\n        await pending.get()",
        )
        assert lock_findings(released) == []


class TestShippedTree:
    def test_live_and_runtime_are_clean_as_shipped(self):
        modules = [
            importlib.import_module(info.name)
            for package in (live, runtime)
            for info in pkgutil.walk_packages(
                package.__path__, package.__name__ + ".")
        ]
        assert proxy in modules
        assert {module.__name__: lock_findings(inspect.getsource(module))
                for module in modules} == {
                    module.__name__: [] for module in modules}


class TestShippedProxy:
    """The walk against the file it guards: one-line mutations of
    ``src/repro/live/proxy.py``, applied in memory, must each draw a
    finding that names the state left unprotected."""

    @staticmethod
    def _mutated(old: str, new: str):
        source = inspect.getsource(proxy)
        assert source.count(old) == 1
        return lock_findings(source.replace(old, new))

    def test_account_wire_without_the_state_lock(self):
        found = self._mutated(
            "        async with self._state_lock:\n"
            "            self.wire_bytes += nbytes\n",
            "        if nbytes:\n"
            "            self.wire_bytes += nbytes\n",
        )
        assert found and all("self.wire_bytes" in d.message for d in found)

    def test_process_object_without_its_key_lock(self):
        found = self._mutated(
            "        async with lock:\n"
            "            seq = request.headers.get(SEQ_HEADER)\n",
            "        if lock:\n"
            "            seq = request.headers.get(SEQ_HEADER)\n",
        )
        # The request clock, the fault cursor and the wire tally are all
        # written across an upstream exchange once the key lock is gone.
        flagged = {d.message.split(" ", 1)[0] for d in found}
        assert flagged == {"self._now", "self._fault_idx", "self.wire_bytes"}

"""RPR007 — async-safety / lock-discipline checker."""

from repro.lint.checkers.asyncsafety import AsyncSafetyChecker
from repro.lint.project import ModuleInfo, Project


def _project(source: str, name: str = "repro.live.fixture") -> Project:
    path = "src/" + name.replace(".", "/") + ".py"
    return Project([ModuleInfo.from_source(source, path=path, name=name)])


def _run(source: str, name: str = "repro.live.fixture"):
    return list(AsyncSafetyChecker().check_project(_project(source, name)))


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
        diags = _run(RACY_PROXY)
        assert len(diags) == 1
        d = diags[0]
        assert d.code == "RPR007"
        assert "self.wire_bytes" in d.message
        assert "self._lock" in d.message
        # The because chain cites the transaction start and the await.
        notes = [b.note for b in d.because]
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
        assert _run(safe) == []

    def test_method_not_handed_to_event_loop_is_not_analyzed(self):
        # No start_server/create_task: nothing can interleave, so the
        # same racy body draws no finding (documented imprecision).
        no_entry = RACY_PROXY.replace(
            'self._listener = await asyncio.start_server(self._handle, "h", 0)',
            "pass",
        )
        assert _run(no_entry) == []

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
        diags = _run(source)
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
        assert _run(source) == []

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
        diags = _run(source)
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
        diags = _run(source)
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
        assert _run(source) == []

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
        diags = _run(source)
        assert len(diags) == 1
        assert "self.seen" in diags[0].message


class TestBlockingCalls:
    def test_blocking_call_two_hops_from_async_def(self):
        source = '''
import time

def _backoff(n):
    time.sleep(n)

def _retry(n):
    _backoff(n)

async def poll_origin(n):
    _retry(n)
'''
        diags = _run(source)
        assert len(diags) == 1
        d = diags[0]
        assert "time.sleep" in d.message
        assert "poll_origin" in d.message
        # Proof path: async root, then each call hop.
        assert len(d.because) == 3

    def test_blocking_call_not_reachable_from_async_is_clean(self):
        source = '''
import time

def sync_only(n):
    time.sleep(n)

async def handler(n):
    return n
'''
        assert _run(source) == []

    def test_out_of_scope_async_def_is_not_a_root(self):
        source = '''
import time

async def handler(n):
    time.sleep(n)
'''
        assert _run(source, name="repro.core.simulator2") == []

    def test_subprocess_and_socket_flagged(self):
        source = '''
import socket
import subprocess

async def handler():
    subprocess.run(["ls"])
    socket.create_connection(("h", 80))
'''
        diags = _run(source)
        assert {d.line for d in diags} == {6, 7}


class TestLockNesting:
    def test_await_under_sync_lock(self):
        source = '''
import threading

_pool_lock = threading.Lock()

async def drain(queue):
    with _pool_lock:
        await queue.get()
'''
        diags = _run(source)
        assert len(diags) == 1
        assert "synchronous lock" in diags[0].message

    def test_nested_async_lock_acquisition(self):
        source = '''
async def nested(a_lock, b_lock):
    async with a_lock:
        async with b_lock:
            pass
'''
        diags = _run(source)
        assert len(diags) == 1
        assert "nested lock acquisition" in diags[0].message

    def test_single_lock_with_await_inside_is_fine(self):
        source = '''
async def serialized(a_lock, queue):
    async with a_lock:
        await queue.get()
'''
        assert _run(source) == []


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
        diags = _run(self.CLASS_LOCKS)
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
        assert _run(in_turn) == []

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
        assert _run(self.NESTED_DEF) == []

    def test_await_beside_a_nested_def_is_still_flagged(self):
        beside = self.NESTED_DEF.replace(
            "def schedule(queue):", "async def schedule(queue):"
        ).replace(
            "    return later", "        await queue.join()\n    return later"
        )
        diags = _run(beside)
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
        diags = _run(source)
        assert len(diags) == 1
        assert "synchronous lock" in diags[0].message
        released = source.replace(
            "            await queue.get()",
            "            pending = queue\n        await pending.get()",
        )
        assert _run(released) == []


class TestShippedTree:
    def test_live_and_runtime_are_clean_as_shipped(self, shipped_project):
        assert list(AsyncSafetyChecker().check_project(shipped_project)) == []


class TestShippedProxy:
    """RPR007 against the file it guards: one-line mutations of
    ``src/repro/live/proxy.py``, applied in memory, must each draw a
    finding that names the state left unprotected."""

    @staticmethod
    def _mutated(project: Project, old: str, new: str):
        proxy = project.module("repro.live.proxy")
        assert proxy is not None and proxy.source.count(old) == 1
        mutant = ModuleInfo.from_source(
            proxy.source.replace(old, new), path=proxy.path, name=proxy.name
        )
        modules = [mutant if m is proxy else m for m in project.modules]
        found = list(AsyncSafetyChecker().check_project(Project(modules)))
        assert {d.path for d in found} <= {proxy.path}
        return found

    def test_account_wire_without_the_state_lock(self, shipped_project):
        found = self._mutated(
            shipped_project,
            "        async with self._state_lock:\n"
            "            self.wire_bytes += nbytes\n",
            "        if nbytes:\n"
            "            self.wire_bytes += nbytes\n",
        )
        assert found and all("self.wire_bytes" in d.message for d in found)

    def test_process_object_without_its_key_lock(self, shipped_project):
        found = self._mutated(
            shipped_project,
            "        async with lock:\n"
            "            seq = request.headers.get(SEQ_HEADER)\n",
            "        if lock:\n"
            "            seq = request.headers.get(SEQ_HEADER)\n",
        )
        # The request clock, the fault cursor and the wire tally are all
        # written across an upstream exchange once the key lock is gone.
        flagged = {d.message.split(" ", 1)[0] for d in found}
        assert flagged == {"self._now", "self._fault_idx", "self.wire_bytes"}

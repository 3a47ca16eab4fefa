"""Run one :class:`~repro.live.proxy.LiveProxy` as its own process.

``python -m repro.live.standalone`` is the crash-restart victim of
:func:`repro.live.driver.run_replay` (``crash_after=``): the proxy must
be SIGKILL-able without taking the driver down, and must be able to
come back with nothing but its journal — so it lives behind a process
boundary with exactly four contracts:

* its whole configuration is one pickle on stdin, written by the parent
  that spawned it: ``(kwargs, port)``, where ``kwargs`` are the very
  keyword arguments an in-process ``LiveProxy(...)`` is built from
  (protocol *instance*, mode, costs, fault plan, journal, trace sink,
  …) — there are no flags to keep in step with that constructor — and
  ``port`` is 0 for an ephemeral port or the crashed instance's port;
* it prints ``PORT <n>`` on stdout once it is listening;
* an empty/missing journal means a cold start — the parent warms it
  through the ``warm`` control endpoint; a non-empty journal means a
  post-crash restart — the proxy re-warms itself from disk via
  :meth:`~repro.live.proxy.LiveProxy.restore` before accepting traffic
  (adaptive protocol state rides in the journal's transaction records);
* it serves until killed, or until stdin reaches EOF: the parent holds
  the pipe open for as long as it lives, so a driver that dies any
  death (test timeout, Ctrl-C, CI cancel) leaves no orphan behind.
"""

from __future__ import annotations

import asyncio
import pickle
import sys
from typing import Any

from repro.live.proxy import LiveProxy


async def _serve(kwargs: dict[str, Any], port: int) -> None:
    proxy = LiveProxy(**kwargs)
    # A non-empty journal is a crash restart: re-warm from disk before
    # the socket opens, so the first retried request already sees the
    # committed state.
    await proxy.restore()
    await proxy.start(port=port)
    print(f"PORT {proxy.port}", flush=True)
    # Nothing more is ever written to stdin, so this read returns at
    # EOF — on a thread, the loop keeps serving meanwhile.
    await asyncio.get_running_loop().run_in_executor(
        None, sys.stdin.buffer.read
    )
    await proxy.close()


def main() -> int:
    kwargs, port = pickle.load(sys.stdin.buffer)
    try:
        asyncio.run(_serve(kwargs, port))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

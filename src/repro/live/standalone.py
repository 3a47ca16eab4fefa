"""Run one :class:`~repro.live.proxy.LiveProxy` as its own process.

``python -m repro.live.standalone --origin-host H --origin-port P
--protocol NAME --parameter X --journal PATH [--port N] [--mode M]
[--charge-on-transition]``

This is the crash-restart harness's victim process
(:func:`repro.live.driver.run_crash_replay`): the proxy must be
SIGKILL-able without taking the driver down, and must be able to come
back with nothing but its journal — so it lives behind a process
boundary with exactly three contracts:

* it prints ``PORT <n>`` on stdout once it is listening (the parent
  reads the ephemeral port from that line);
* an empty/missing journal means a cold start — the parent warms it
  through the ``warm`` control endpoint; a non-empty journal means a
  post-crash restart — the proxy re-warms itself from disk via
  :meth:`~repro.live.proxy.LiveProxy.restore` before accepting traffic;
* it serves until killed; there is no graceful shutdown to get wrong.

The protocol is rebuilt by name through
:func:`repro.core.protocols.factory.build_protocol` — the same registry
the CLI uses — and adaptive protocol state is *not* lost across the
kill: it rides in the journal's transaction records.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.core.protocols.factory import PROTOCOLS, build_protocol
from repro.core.simulator import SimulatorMode
from repro.live.journal import Journal
from repro.live.proxy import LiveProxy


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live.standalone",
        description="Run a journaled live proxy as a standalone process.",
    )
    parser.add_argument("--origin-host", required=True)
    parser.add_argument("--origin-port", type=int, required=True)
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 picks an ephemeral one; a restart reuses "
        "the crashed instance's port)",
    )
    parser.add_argument("--protocol", required=True, choices=list(PROTOCOLS))
    parser.add_argument("--parameter", type=float, default=0.0)
    parser.add_argument(
        "--mode",
        choices=[m.value for m in SimulatorMode],
        default=SimulatorMode.OPTIMIZED.value,
    )
    parser.add_argument("--journal", required=True)
    parser.add_argument(
        "--charge-on-transition",
        action="store_true",
        help="charge invalidations only on valid->invalid transitions "
        "(charge_per_modification=False)",
    )
    return parser


async def _serve(args: argparse.Namespace) -> None:
    proxy = LiveProxy(
        args.origin_host,
        args.origin_port,
        build_protocol(args.protocol, args.parameter),
        SimulatorMode(args.mode),
        charge_per_modification=not args.charge_on_transition,
        journal=Journal(args.journal),
    )
    # A non-empty journal is a crash restart: re-warm from disk before
    # the socket opens, so the first retried request already sees the
    # committed state.
    await proxy.restore()
    await proxy.start(port=args.port)
    print(f"PORT {proxy.port}", flush=True)
    await asyncio.Event().wait()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

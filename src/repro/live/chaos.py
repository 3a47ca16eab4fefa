"""Deterministic socket-level fault injection for the live mode.

A :class:`ChaosRelay` is a transparent TCP relay placed on either side
of the live proxy (driver↔proxy and proxy↔origin).  It forwards the
HTTP/1.0 exchanges byte-for-byte, except when a seeded draw tells it to
misbehave.  The fault taxonomy is the socket-level counterpart of
:mod:`repro.faults` (which models *invalidation-message* loss inside
the simulator — see ``docs/FAULTS.md``):

* **loss** — the request is dropped before ever reaching the server;
  the client sees its connection close with no reply.  Retrying is
  always safe: the server never saw the request.
* **reset** — the request is forwarded and the server's reply is read
  in full, then thrown away and the connection closed.  The server
  *committed* the exchange; only :data:`~repro.live.wire.SEQ_HEADER`
  idempotency keeps a retry from double-counting.
* **truncate** — the reply is cut mid-stream, which the wire layer
  surfaces as :class:`~repro.live.wire.LiveTruncationError` (or a
  mid-head close).  Like a reset, the server already committed.
* **dribble** — the reply is delivered *intact* but one byte at a
  time, exercising reader segmentation; not a fault the client can
  even observe, so it never costs a retry.
* **delay** — a real ``asyncio.sleep`` before the reply.  Simulation
  time travels in ``Date`` headers, so wall-clock delay has no
  accounting effect; it exists to shake out ordering assumptions.

Every decision is a pure function of ``(seed, relay label, exchange
key, attempt number, stage)`` through :func:`repro.faults.rng.uniform01`
— two runs of the same plan inject byte-identical faults.  The exchange
key is the request's ``X-Repro-Seq`` when present (so a *retry* of a
faulted exchange is a new attempt of the *same* key), else the request
start line.  A per-key consecutive-fault cap (``cap``) forces a clean
pass-through after ``cap`` injections, which is the relay's progress
guarantee: a retry loop sized :attr:`WireFaultPlan.max_attempts` always
gets one fault-free exchange.
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.faults.rng import uniform01
from repro.live.wire import (
    SEQ_HEADER,
    TRACE_HEADER,
    LiveServer,
    LiveWireError,
    _frame,
    _head_value,
    _read_head,
)
from repro.obs import clock as obs_clock
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace

def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class WireFaultPlan:
    """A seeded description of socket-level misbehaviour.

    Attributes:
        loss_rate: probability a request is dropped before forwarding.
        reset_rate: probability a reply is discarded and the connection
            closed after the server processed the request.
        truncate_rate: probability a reply is cut at half its bytes.
        dribble_rate: probability a reply is delivered byte-at-a-time
            (intact — a segmentation stressor, not a fault).
        delay: real seconds slept before each reply (wall clock only;
            simulation time is header-borne).
        seed: keys every draw (see :mod:`repro.faults.rng`).
        max_consecutive: per-exchange-key cap on *consecutive* injected
            faults; after this many in a row, the relay passes the
            exchange through clean (and a clean pass resets the run).

    Raises:
        ValueError: for out-of-range rates, a negative delay, or a
            non-positive cap.
    """

    loss_rate: float = 0.0
    reset_rate: float = 0.0
    truncate_rate: float = 0.0
    dribble_rate: float = 0.0
    delay: float = 0.0
    seed: int = 0
    max_consecutive: int = 3

    def __post_init__(self) -> None:
        for field_name in ("loss_rate", "reset_rate", "truncate_rate",
                           "dribble_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1]: {rate}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be non-negative: {self.delay}")
        if self.max_consecutive < 1:
            raise ValueError(
                f"max_consecutive must be >= 1: {self.max_consecutive}"
            )

    @property
    def is_null(self) -> bool:
        """True when the relay would forward everything untouched."""
        return (
            self.loss_rate == 0.0
            and self.reset_rate == 0.0
            and self.truncate_rate == 0.0
            and self.dribble_rate == 0.0
            and self.delay == 0.0
        )

    @property
    def max_attempts(self) -> int:
        """Retry budget that always suffices under this plan.

        ``max_consecutive`` faults per key, one guaranteed clean pass,
        plus one spare for a connection raced into a close.
        """
        return self.max_consecutive + 2

    def draw(self, label: str, key: str, attempt: int, stage: str) -> float:
        """The deterministic uniform draw for one decision."""
        return uniform01(
            self.seed, _crc(label), _crc(key), attempt, _crc(stage)
        )


def parse_chaos(text: str) -> WireFaultPlan:
    """Parse a ``--chaos`` string into a :class:`WireFaultPlan`.

    The grammar mirrors ``--faults`` (:mod:`repro.faults.spec`): one
    comma-separated list of ``field=value`` pairs, any order::

        --chaos loss=0.2,reset=0.1,truncate=0.2,dribble=0.5,seed=3
        --chaos delay=0.005,cap=4

    ``loss``/``reset``/``truncate``/``dribble`` are rates in ``[0, 1]``;
    ``delay`` is real seconds (a float — wall clock, not simulation
    time); ``seed`` and ``cap`` are integers.

    Raises:
        ValueError: for unknown fields or malformed values (message
            names the offending field).
    """
    values: dict[str, float] = {}
    ints: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"bad --chaos field (expected name=value): {part!r}")
        try:
            if name in ("loss", "reset", "truncate", "dribble", "delay"):
                values[name] = float(raw)
            elif name in ("seed", "cap"):
                ints[name] = int(raw)
            else:
                raise ValueError(
                    f"unknown --chaos field {name!r} (expected loss, reset, "
                    "truncate, dribble, delay, seed, cap)"
                )
        except ValueError as exc:
            if "unknown --chaos field" in str(exc):
                raise
            raise ValueError(
                f"bad value for --chaos field {name!r}: {raw!r}"
            ) from None
    return WireFaultPlan(
        loss_rate=values.get("loss", 0.0),
        reset_rate=values.get("reset", 0.0),
        truncate_rate=values.get("truncate", 0.0),
        dribble_rate=values.get("dribble", 0.0),
        delay=values.get("delay", 0.0),
        seed=ints.get("seed", 0),
        max_consecutive=ints.get("cap", 3),
    )


@dataclass(frozen=True)
class _Decision:
    """The resolved fate of one relayed exchange."""

    loss: bool = False
    reset: bool = False
    truncate: bool = False
    dribble: bool = False


class ChaosRelay(LiveServer):
    """A deterministic fault-injecting TCP relay for one hop.

    Args:
        target_host: where forwarded exchanges go (the real server).
        target_port: the real server's port.
        plan: the seeded fault plan.
        label: names this hop in the draw key (``"client"`` for
            driver↔proxy, ``"upstream"`` for proxy↔origin), so the two
            relays of one replay inject independent faults from one
            seed.
        trace: a :class:`~repro.obs.trace.TraceSink` recording one
            ``live.trace.chaos`` mark per injected fault (loss, reset,
            truncate), keyed on the relayed request's ``X-Repro-Trace``
            id when it carries one.  Relays are harness-side, so the
            driver's sink is the natural home.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        plan: WireFaultPlan,
        label: str,
        *,
        trace: Optional[obs_trace.TraceSink] = None,
    ) -> None:
        super().__init__()
        self.target_host = target_host
        self.target_port = target_port
        self.plan = plan
        self.label = label
        self._trace = trace
        #: Total faults injected (loss + reset + truncate) over the
        #: relay's lifetime; dribble and delay are not faults.
        self.injected = 0
        self._attempts: dict[str, int] = {}
        self._faulted: dict[str, int] = {}
        self._state_lock = asyncio.Lock()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start relaying; ``port=0`` picks an ephemeral port."""
        await self.start_server(self._handle, host, port)

    # -- decisions -----------------------------------------------------------

    async def _decide(
        self, key: str, tid: Optional[str] = None
    ) -> _Decision:
        """Resolve (and record) the fate of one exchange for ``key``."""
        plan = self.plan
        async with self._state_lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            dribble = plan.draw(self.label, key, attempt, "dribble") < (
                plan.dribble_rate
            )
            if self._faulted.get(key, 0) >= plan.max_consecutive:
                # Progress guarantee: this key has burned its fault
                # budget — pass it through clean (dribble is harmless).
                # The clean pass resets the *consecutive* count, so a
                # key reused by later exchanges (e.g. the shared start
                # line of seq-less control pulls) stays fault-eligible.
                self._faulted[key] = 0
                return _Decision(dribble=dribble)
            if plan.draw(self.label, key, attempt, "loss") < plan.loss_rate:
                decision, fault = _Decision(loss=True), "loss"
            elif plan.draw(self.label, key, attempt, "reset") < plan.reset_rate:
                decision, fault = _Decision(reset=True), "reset"
            elif plan.draw(self.label, key, attempt, "truncate") < (
                plan.truncate_rate
            ):
                decision = _Decision(truncate=True, dribble=dribble)
                fault = "truncate"
            else:
                self._faulted[key] = 0
                return _Decision(dribble=dribble)
            self._faulted[key] = self._faulted.get(key, 0) + 1
            self.injected += 1
            obs_metrics.emit("live.chaos.injected")
            if self._trace is not None:
                self._trace.mark(
                    "live.trace.chaos",
                    tid,
                    obs_clock.monotonic(),
                    hop=self.label,
                    fault=fault,
                )
            return decision

    # -- relaying ------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Relay one client connection (possibly many exchanges)."""
        self._pin()
        upstream_reader: Optional[asyncio.StreamReader] = None
        upstream_writer: Optional[asyncio.StreamWriter] = None
        try:
            while True:
                try:
                    head = await self._idle(writer, _read_head(reader))
                except LiveWireError:
                    # Clean close between exchanges (the normal end of a
                    # keep-alive conversation) or a client that died
                    # mid-request; either way the relay just hangs up.
                    break
                key = _exchange_key(head)
                decision = await self._decide(key, _head_value(head, TRACE_HEADER))
                if decision.loss:
                    # Dropped before the server ever hears of it: the
                    # cleanest fault — a retry needs no idempotency.
                    break
                if upstream_writer is None:
                    upstream_reader, upstream_writer = (
                        await asyncio.open_connection(
                            self.target_host, self.target_port
                        )
                    )
                assert upstream_reader is not None
                upstream_writer.write(head.encode("latin-1"))
                await upstream_writer.drain()
                try:
                    reply_head = await _read_head(upstream_reader)
                    _, _, length = _frame(reply_head)
                    reply_body = (
                        await upstream_reader.readexactly(length)
                        if length
                        else b""
                    )
                except (LiveWireError, asyncio.IncompleteReadError):
                    # The server side died mid-reply (e.g. it was
                    # SIGKILLed); surface a close to the client, which
                    # retries.
                    break
                payload = reply_head.encode("latin-1") + reply_body
                if self.plan.delay > 0.0:
                    await asyncio.sleep(self.plan.delay)
                if decision.reset:
                    # The server committed; the reply evaporates.
                    break
                if decision.truncate:
                    writer.write(payload[: len(payload) // 2])
                    await writer.drain()
                    break
                if decision.dribble:
                    for i in range(len(payload)):
                        writer.write(payload[i : i + 1])
                        await writer.drain()
                else:
                    writer.write(payload)
                    await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            if upstream_writer is not None:
                upstream_writer.close()


def _exchange_key(head: str) -> str:
    """The draw key for a relayed request head.

    The ``X-Repro-Seq`` value when present — a retried exchange must be
    a new *attempt* of the same key, or the consecutive-fault cap could
    never guarantee progress — else the start line.
    """
    seq = _head_value(head, SEQ_HEADER)
    return seq if seq is not None else head.split("\r\n", 1)[0]


__all__ = ["ChaosRelay", "WireFaultPlan", "parse_chaos"]

"""The fault plan and its compiled action schedule.

A :class:`FaultPlan` is configuration, not mechanism: it describes which
faults a run should experience (loss rate, delivery delay, server
downtime windows, cache crashes) and how hard the server fights back
(bounded retries with exponential backoff).  :meth:`FaultPlan.compile`
resolves the plan against a concrete modification feed into a
time-ordered *schedule* which the production simulator, the
``repro.verify`` spec model and the fast kernel then replay.  Compiling
up front keeps the hot loop branch-free and makes the schedule itself
inspectable and property-testable.  The schedule has one implementation
(:meth:`FaultPlan.columns`) and two shapes: :class:`ActionColumns`,
parallel arrays generic over the feed's key (the fast path feeds object
indices), and the tuple of :class:`FaultAction` rows
:meth:`FaultPlan.compile` reads off those columns.

Message semantics (documented in ``docs/FAULTS.md``):

* For each modification the server makes up to ``1 + retries``
  **attempts** to notify the cache; attempt *k* leaves the server at
  ``mod_time + backoff * (2**k - 1)``.
* An attempt whose send time falls inside a **downtime window** is never
  made — the crash loses the server's pending-notification state — and
  the notice is permanently abandoned (``DROP``).
* Otherwise the attempt is either **lost** in the network (an
  independent ``loss_rate`` draw per attempt; the message was sent and
  is charged, but never arrives) or **delivered** after ``delay``
  seconds.  Losing the final attempt also abandons the notice.
* **Cache crashes** wipe the cache's entire state at the given instants;
  a crash action scheduled at the same timestamp as a delivery sorts
  after it (the sort is stable and crashes are compiled last).

Whether an action has any effect is decided at replay time against the
live cache state (the object may have been evicted, crashed away, or
refetched since compile time); the generation guard on
:meth:`repro.core.cache.Cache.invalidate` ignores deliveries that a
refetch has already superseded.

>>> plan = FaultPlan()
>>> plan.is_null
True
>>> plan.compile(((5.0, "/a"),))
(FaultAction(time=5.0, kind='attempt_sent', object_id='/a', mod_time=5.0, attempt=0), FaultAction(time=5.0, kind='deliver', object_id='/a', mod_time=5.0, attempt=0))
>>> lossy = FaultPlan(loss_rate=1.0, retries=1, backoff=10.0)
>>> [a.kind for a in lossy.compile(((5.0, "/a"),))]
['attempt_lost', 'attempt_lost', 'drop']
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Generic, Sequence, TypeVar

from repro.faults.rng import uniform01
from repro.obs import registry as obs_metrics

#: Action kinds, in the vocabulary of the schedule.
ATTEMPT_SENT = "attempt_sent"
ATTEMPT_LOST = "attempt_lost"
DELIVER = "deliver"
DROP = "drop"
CRASH = "crash"

#: The feed's key type: an object id for :meth:`FaultPlan.compile`, a
#: dense object index on the fast path.
K = TypeVar("K")


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault event.

    Attributes:
        time: when the action takes effect, in simulation seconds.
        kind: one of :data:`ATTEMPT_SENT`, :data:`ATTEMPT_LOST`,
            :data:`DELIVER`, :data:`DROP`, :data:`CRASH`.
        object_id: the object the notice concerns (``""`` for a crash).
        mod_time: the modification timestamp the notice announces (for a
            crash, the crash instant).
        attempt: zero-based attempt number within the retry sequence.
    """

    time: float
    kind: str
    object_id: str
    mod_time: float
    attempt: int


@dataclass(frozen=True)
class DowntimeWindow:
    """A half-open interval ``[start, start + length)`` of server outage.

    Raises:
        ValueError: for a non-positive length.
    """

    start: float
    length: float

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ValueError(f"downtime length must be positive: {self.length}")

    def covers(self, t: float) -> bool:
        """True when instant ``t`` falls inside the outage."""
        return self.start <= t < self.start + self.length


@dataclass(frozen=True)
class ActionColumns(Generic[K]):
    """A compiled schedule as parallel columns, one slot per action.

    Slot ``n`` of every column describes the same action — the fields of
    :class:`FaultAction`, with ``keys`` standing for ``object_id`` in
    whatever key the feed was given in.  Slots are sorted by ``times``;
    ties keep compile order.
    """

    times: Sequence[float]
    kinds: Sequence[str]
    keys: Sequence[K]
    mod_times: Sequence[float]
    attempts: Sequence[int]

    def publish_metrics(self) -> None:
        """Publish the schedule's per-kind ``faults.*`` counts.

        Zero counts are skipped so a registry only ever holds counters
        that actually incremented — the same set a parallel run's
        delta-merge reconstructs.
        """
        if obs_metrics.active() is None:
            return
        count = self.kinds.count
        totals = {
            "faults.attempts": count(ATTEMPT_SENT) + count(ATTEMPT_LOST),
            "faults.lost": count(ATTEMPT_LOST),
            "faults.dropped": count(DROP),
            "faults.delivered": count(DELIVER),
            "faults.crashes": count(CRASH),
        }
        for name, total in totals.items():
            if total:
                obs_metrics.emit(name, float(total))


@dataclass(frozen=True)
class FaultPlan:
    """A composed, seeded description of the faults a run experiences.

    Attributes:
        loss_rate: probability each individual notification attempt is
            lost in the network (independent per attempt), in ``[0, 1]``.
        delay: network latency added to every successful delivery,
            in seconds.
        downtime: server outage windows; attempts falling inside one are
            abandoned outright (server-side state loss).
        cache_crashes: instants at which the cache loses all state.
        retries: how many times the server re-sends an unacknowledged
            notice after the first attempt (0 = the paper's fire-and-
            forget behaviour).
        backoff: base of the exponential retry backoff; attempt *k*
            leaves at ``mod_time + backoff * (2**k - 1)`` seconds.
        seed: keys every loss draw (see :mod:`repro.faults.rng`).

    Raises:
        ValueError: for out-of-range rates, a negative delay, negative
            retries, or a non-positive backoff with retries enabled.
    """

    loss_rate: float = 0.0
    delay: float = 0.0
    downtime: tuple[DowntimeWindow, ...] = ()
    cache_crashes: tuple[float, ...] = ()
    retries: int = 0
    backoff: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        # A plan is a value (hashable, equal to its twin): whatever
        # sequences the caller passed become tuples.
        object.__setattr__(self, "downtime", tuple(self.downtime))
        object.__setattr__(self, "cache_crashes", tuple(self.cache_crashes))
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1]: {self.loss_rate}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be non-negative: {self.delay}")
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative: {self.retries}")
        if self.retries > 0 and self.backoff <= 0.0:
            raise ValueError(
                f"backoff must be positive when retrying: {self.backoff}"
            )

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all.

        A null plan still compiles and replays — the schedule reduces to
        immediate sent+deliver pairs whose replay is byte-identical to
        the fault-free delivery loop (the property the zero-rate tests
        pin).
        """
        return (
            self.loss_rate == 0.0
            and self.delay == 0.0
            and not self.downtime
            and not self.cache_crashes
        )

    def server_down(self, t: float) -> bool:
        """True when any downtime window covers instant ``t``."""
        for window in self.downtime:
            if window.covers(t):
                return True
        return False

    def attempt_lost(self, message_index: int, attempt: int) -> bool:
        """The deterministic loss draw for one notification attempt."""
        if self.loss_rate <= 0.0:
            return False
        if self.loss_rate >= 1.0:
            return True
        return uniform01(self.seed, message_index, attempt) < self.loss_rate

    def columns(
        self,
        feed_times: Sequence[float],
        feed_keys: Sequence[K],
        crash_key: K,
        start_time: float = 0.0,
    ) -> ActionColumns[K]:
        """Resolve the plan against a modification feed into a schedule.

        The one implementation of the attempt / backoff / downtime /
        loss semantics (module docstring).

        Args:
            feed_times: the modification times of the *whole* feed,
                sorted; loss draws are keyed by a modification's
                position here, so a caller must not pre-trim the feed.
            feed_keys: the object each modification concerns, parallel
                to ``feed_times``; pass two empty sequences for
                protocols without callbacks (crashes are still
                scheduled).
            crash_key: what a crash slot's ``keys`` entry holds.
            start_time: modifications (and crashes) at or before this
                instant are skipped, mirroring the simulator's preload
                semantics.

        Returns:
            Actions sorted by time; ties keep compile order (attempt
            before its delivery, feed order across objects, crashes
            last), so replay is deterministic.
        """
        rows: list[tuple[float, str, K, float, int]] = []
        for index, mod_time in enumerate(feed_times):
            if mod_time <= start_time:
                continue
            key = feed_keys[index]
            for attempt in range(self.retries + 1):
                send_time = mod_time + self.backoff * float((1 << attempt) - 1)
                if self.server_down(send_time):
                    rows.append((send_time, DROP, key, mod_time, attempt))
                    break
                if self.attempt_lost(index, attempt):
                    rows.append(
                        (send_time, ATTEMPT_LOST, key, mod_time, attempt)
                    )
                    if attempt == self.retries:
                        rows.append((send_time, DROP, key, mod_time, attempt))
                    continue
                rows.append((send_time, ATTEMPT_SENT, key, mod_time, attempt))
                rows.append(
                    (send_time + self.delay, DELIVER, key, mod_time, attempt)
                )
                break
        for crash_time in self.cache_crashes:
            if crash_time > start_time:
                rows.append(
                    (float(crash_time), CRASH, crash_key, float(crash_time), 0)
                )
        rows.sort(key=itemgetter(0))
        if not rows:
            return ActionColumns((), (), (), (), ())
        times, kinds, keys, mod_times, attempts = zip(*rows)
        return ActionColumns(times, kinds, keys, mod_times, attempts)

    def compile(
        self,
        feed: Sequence[tuple[float, str]],
        start_time: float = 0.0,
    ) -> tuple[FaultAction, ...]:
        """The schedule as :class:`FaultAction` rows (see :meth:`columns`).

        Args:
            feed: ``(mod_time, object_id)`` pairs sorted by time (the
                shape of :meth:`OriginServer.invalidation_feed`); pass
                an empty feed for protocols without callbacks (crash
                actions are still scheduled, with ``object_id`` ``""``).
            start_time: as for :meth:`columns`.
        """
        schedule = self.columns(
            [mod_time for mod_time, _ in feed],
            [object_id for _, object_id in feed],
            "",
            start_time,
        )
        schedule.publish_metrics()
        return tuple(
            map(
                FaultAction,
                schedule.times,
                schedule.kinds,
                schedule.keys,
                schedule.mod_times,
                schedule.attempts,
            )
        )

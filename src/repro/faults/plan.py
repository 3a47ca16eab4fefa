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

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generic, Optional, Sequence, TypeVar

import numpy as np

from repro.faults.rng import uniform01, uniform01_array
from repro.obs import registry as obs_metrics

#: Action kinds, in the vocabulary of the schedule.
ATTEMPT_SENT = "attempt_sent"
ATTEMPT_LOST = "attempt_lost"
DELIVER = "deliver"
DROP = "drop"
CRASH = "crash"

#: The kinds by the integer code :meth:`FaultPlan.columns` sorts with.
KINDS = (ATTEMPT_SENT, ATTEMPT_LOST, DELIVER, DROP, CRASH)
_KIND_NAMES = np.array(KINDS, dtype=object)
_SENT, _LOST, _DELIVER, _DROP, _CRASH = range(len(KINDS))

#: The feed's key type: an object id for :meth:`FaultPlan.compile`, a
#: dense object index on the fast path.
K = TypeVar("K")
#: The tuple columns of :class:`ActionColumns`, in field order.
_COLUMNS = ("times", "kinds", "keys", "mod_times", "attempts")


def _objects(values: Sequence[object], at: np.ndarray) -> np.ndarray:
    """``values[at]``, an object array of ``values``' own objects."""
    return np.fromiter(values, dtype=object, count=len(values)).take(at)


@dataclass(frozen=True, slots=True)
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


def _rows(feed_times: Sequence[float], feed_keys: Sequence[K], crash_key: K,
          crashes: list[float], announced: np.ndarray, at: np.ndarray,
          row_times: np.ndarray, codes: np.ndarray, attempts: np.ndarray,
          ) -> tuple[Sequence[Any], ...]:
    """:meth:`FaultPlan.columns`' tuple columns, in field order."""
    # Keys and announced times are the feed's own objects, and so is
    # every action time equal to its announced time bit for bit (a first
    # attempt's send, its delivery without delay, a crash): ``float``
    # returns a float argument itself.
    keys = _objects([*feed_keys, *[crash_key] * len(crashes)], at)
    mod_times = _objects([*feed_times, *crashes], at)
    times = _objects([*map(float, feed_times), *crashes], at)
    fresh = row_times.view(np.int64) != announced[at].view(np.int64)
    times[fresh] = row_times[fresh]
    return times, _KIND_NAMES.take(codes), keys, mod_times, attempts.tolist()


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


class ActionColumns(Generic[K]):
    """A compiled schedule as parallel columns, one slot per action.

    Slot ``n`` of every column describes the same action — the fields of
    :class:`FaultAction`, with ``keys`` standing for ``object_id`` in
    whatever key the feed was given in.  Slots are sorted by ``times``;
    ties keep compile order.  :meth:`FaultPlan.columns` keeps, as numpy
    arrays, each slot's feed line, kind code and time, and builds the
    five tuple columns from them on first read (``rows``): a run that
    takes the schedule by object reads the arrays alone.
    """

    times: tuple[float, ...]
    kinds: tuple[str, ...]
    keys: tuple[K, ...]
    mod_times: tuple[float, ...]
    attempts: tuple[int, ...]

    def __init__(self, *columns: Sequence[Any], lines: Optional[np.ndarray] = None,
                 codes: Optional[np.ndarray] = None, at: Optional[np.ndarray] = None,
                 rows: Optional[Callable[[], Sequence[Any]]] = None) -> None:
        self.lines = np.empty(0, np.int64) if lines is None else lines
        self.codes = np.empty(0, np.int64) if codes is None else codes
        self.at = np.empty(0) if at is None else at
        self._rows = rows or (lambda: columns or ((),) * len(_COLUMNS))

    def __getattr__(self, name: str) -> Any:
        if name not in _COLUMNS:
            raise AttributeError(name)
        self.__dict__.update(zip(_COLUMNS, map(tuple, self._rows())))
        return self.__dict__[name]

    def publish_metrics(self) -> None:
        """Publish the schedule's per-kind ``faults.*`` counts.

        Zero counts are skipped so a registry only ever holds counters
        that actually incremented — the same set a parallel run's
        delta-merge reconstructs.
        """
        if obs_metrics.active() is None:
            return
        count = np.bincount(self.codes, minlength=len(KINDS)).tolist()
        totals = {
            "faults.attempts": count[_SENT] + count[_LOST],
            "faults.lost": count[_LOST],
            "faults.dropped": count[_DROP],
            "faults.delivered": count[_DELIVER],
            "faults.crashes": count[_CRASH],
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

    @property
    def schedule_key(self) -> tuple[Any, ...]:
        """What :meth:`columns` reads of the plan: two plans with equal
        keys resolve every feed into equal columns.  Where no attempt is
        lost only the first is made, and it leaves at its modification's
        own time for a positive, finite ``backoff`` (``backoff * 0``), so
        ``retries`` and ``backoff`` drop out; only a rate strictly between
        0 and 1 draws, so only there does ``seed`` count.  Plan equality
        is unchanged: a key is for memoising schedules."""
        lossy = self.loss_rate > 0.0
        return (self.loss_rate, self.delay, self.downtime, self.cache_crashes,
                self.retries if lossy else 0,
                self.backoff if lossy or not 0.0 < self.backoff < math.inf
                else None,
                self.seed if 0.0 < self.loss_rate < 1.0 else None)

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
            Actions sorted by time; ties keep compile order (feed order
            across notices, attempts in order, an attempt before its
            delivery or drop, crashes last), so replay is deterministic.

        The notices are resolved one attempt level at a time, as arrays:
        attempt *k*'s send times for every notice still undelivered, the
        downtime windows and loss draws as masks over them, and the lost
        ones carried to level *k + 1*.  Every row is tagged with its
        compile position (feed line, attempt, sub-step) before the one
        stable sort on time.
        """
        mods = np.asarray(feed_times, dtype=np.float64)
        lines = np.flatnonzero(~(mods <= start_time))
        # One block per (attempt, outcome): feed lines, times, kind code,
        # attempt, and sub-step within the attempt (0, or 1 for the drop
        # after a final loss and the delivery after a send).
        blocks: list[tuple[np.ndarray, np.ndarray, int, int, int]] = []
        for attempt in range(self.retries + 1):
            if not lines.size:
                break
            sends = mods[lines] + self.backoff * float((1 << attempt) - 1)
            down = np.zeros(lines.size, dtype=bool)
            for window in self.downtime:
                down |= (window.start <= sends) & (
                    sends < window.start + window.length
                )
            blocks.append((lines[down], sends[down], _DROP, attempt, 0))
            lines, sends = lines[~down], sends[~down]
            if self.loss_rate <= 0.0:
                lost = np.zeros(lines.size, dtype=bool)
            elif self.loss_rate >= 1.0:
                lost = np.ones(lines.size, dtype=bool)
            else:
                lost = uniform01_array(self.seed, lines, attempt) < self.loss_rate
            sent = ~lost
            blocks.append((lines[sent], sends[sent], _SENT, attempt, 0))
            blocks.append(
                (lines[sent], sends[sent] + self.delay, _DELIVER, attempt, 1)
            )
            lines, sends = lines[lost], sends[lost]
            blocks.append((lines, sends, _LOST, attempt, 0))
            if attempt == self.retries:
                blocks.append((lines, sends, _DROP, attempt, 1))
        # A crash is its own line after the feed's, announcing its instant.
        crashes = [float(t) for t in self.cache_crashes if t > start_time]
        announced = np.append(mods, crashes)
        crash_lines = np.arange(mods.size, announced.size)
        blocks.append((crash_lines, announced[crash_lines], _CRASH, 0, 0))
        row_lines = np.concatenate([block[0] for block in blocks])
        if not row_lines.size:
            return ActionColumns()
        row_times = np.concatenate([block[1] for block in blocks])
        counts = [block[0].size for block in blocks]
        row_kinds = np.repeat([block[2] for block in blocks], counts)
        row_attempts = np.repeat([block[3] for block in blocks], counts)
        compile_order = (row_lines * (self.retries + 1) + row_attempts) * 2
        compile_order += np.repeat([block[4] for block in blocks], counts)
        order = np.lexsort((compile_order, row_times))
        at = row_lines[order]
        row_times = row_times[order]
        codes = row_kinds[order]
        attempts = row_attempts[order]
        del blocks, mods, lines, compile_order, order, row_lines, row_kinds
        return ActionColumns(lines=at, codes=codes, at=row_times, rows=partial(
            _rows, feed_times, feed_keys, crash_key, crashes, announced, at,
            row_times, codes, attempts))

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

"""The process-pool sweep engine.

The unit of parallelism is one *task*: an independent computation (a
sweep point, an experiment id) whose result does not depend on any other
task.  :func:`map_ordered` runs a list of tasks either serially (the
``workers=1`` fallback: the tasks in order, in the calling process) or
on a ``ProcessPoolExecutor``, and reassembles results in submission
order either way.

Two design points keep the engine both general and deterministic:

* **Fork-based closure hand-off.**  Sweep tasks close over workloads and
  protocol factories that are not picklable (lambdas, memoized workload
  objects).  Instead of requiring picklable callables, the engine stores
  the ``(fn, items)`` pair in a module-level slot immediately before the
  pool starts; worker processes are *forked* and inherit the slot, so
  the only thing crossing the pipe is an integer index out and a result
  back.  On platforms without ``fork`` the engine degrades to the serial
  path — results are identical, only slower.
* **No nested pools.**  Worker processes are marked at startup; a
  ``map_ordered`` call inside a worker runs serially.  This is both a
  correctness measure (the parent's pool lock is held across the fork)
  and the oversubscription policy: parallelism is spent at the outermost
  level that requests it.

The engine is also **crash tolerant**.  A forked worker that dies
mid-task (OOM kill, segfault, a stray ``SIGKILL``) breaks the whole
``ProcessPoolExecutor``; the naive ``pool.map`` loop this engine used to
run would then hang or lose every in-flight result.  Instead, tasks are
submitted per-index and harvested as they complete, so a broken pool
costs only the tasks that had not finished: the engine rebuilds the pool
(at most :data:`_MAX_POOL_RESTARTS` times) and re-dispatches the undone
indices, then degrades to running any remainder serially in the parent.
Two consequences for task authors:

* tasks must be **pure** — a task interrupted by a crash is re-executed,
  so side effects may happen twice;
* per-task seeds must be derived from the task *index* (see
  :func:`derive_seed`), never from worker identity, so a re-dispatched
  task reproduces the exact result its first incarnation would have
  returned, whichever worker (or the parent) runs it.

Exceptions *raised by the task itself* are not retried — they propagate
to the caller unchanged, exactly as on the serial path.

Worker-count resolution precedence (highest wins):

1. an explicit ``workers=`` argument (the CLI ``--workers`` flag),
2. the :func:`default_workers` context / :func:`set_default_workers`,
3. the ``REPRO_WORKERS`` environment variable,
4. serial (``1``).

>>> resolve_workers(3)
3
>>> with default_workers(4):
...     resolve_workers()
4

:func:`derive_seed` gives every task a deterministic, well-separated
seed derived from the base seed and the task index (a SplitMix64 mix),
so stochastic stages stay reproducible regardless of which worker runs
which point:

>>> derive_seed(7, 3) == derive_seed(7, 3)
True
>>> derive_seed(7, 3) != derive_seed(7, 4)
True
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    TypeVar,
)

from repro.faults.rng import GOLDEN, splitmix64
from repro.obs import clock as obs_clock
from repro.obs import collect as obs_collect
from repro.obs import profile as obs_profile
from repro.obs import registry as obs_metrics
from repro.obs import trace as obs_trace

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

_default_workers: Optional[int] = None

#: True inside a pool worker process; forces nested maps serial.
_in_worker = False

#: The (fn, items) pair being mapped, inherited by forked workers.
_active_task: Optional[tuple[Callable[[Any], Any], Sequence[Any]]] = None

#: Serializes pool construction so ``_active_task`` is unambiguous.
_pool_lock = threading.Lock()

#: Pool rebuilds allowed after worker deaths before degrading to serial.
_MAX_POOL_RESTARTS = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count under the resolution precedence.

    Args:
        workers: an explicit request (e.g. a ``--workers`` flag value);
            wins when not None.

    Raises:
        ValueError: when the ``REPRO_WORKERS`` environment variable is
            set but is not a positive integer.
    """
    if workers is not None:
        return max(1, int(workers))
    if _default_workers is not None:
        return max(1, _default_workers)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
        return max(1, value)
    return 1


def set_default_workers(workers: Optional[int]) -> Optional[int]:
    """Set the process-wide default worker count; returns the previous one.

    ``None`` restores env-var/serial resolution.
    """
    global _default_workers
    previous = _default_workers
    _default_workers = workers
    return previous


@contextmanager
def default_workers(workers: Optional[int]) -> Iterator[None]:
    """Scope a default worker count (used by ``run_experiment``)."""
    previous = set_default_workers(workers)
    try:
        yield
    finally:
        set_default_workers(previous)


def derive_seed(base_seed: int, index: int) -> int:
    """A deterministic 63-bit seed for task ``index`` under ``base_seed``.

    One SplitMix64 step from ``base_seed`` advanced by the golden-ratio
    increment per index: adjacent indices land far apart, the mapping is
    stable across platforms and processes, and distinct (seed, index)
    pairs collide no more often than a random 63-bit draw.
    """
    return splitmix64(int(base_seed) + index * GOLDEN) & ((1 << 63) - 1)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _mark_worker() -> None:
    """Pool initializer: flag this process as a worker (no nested pools)."""
    global _in_worker
    _in_worker = True


def _run_task(fn: Callable[[Any], Any], item: Any, index: int) -> Any:
    """One task execution, instrumented (the emit and the span are
    no-ops without a consumer).

    The ``engine.tasks`` bump and the ``engine.task`` span land *after*
    the task's own emissions, so the serial path and a worker's captured
    payload produce the same record order.
    """
    started = obs_clock.monotonic()
    value = fn(item)
    obs_metrics.emit("engine.tasks")
    obs_trace.span(
        "engine.task",
        obs_clock.monotonic() - started,
        index=index,
        worker=os.getpid(),
    )
    return value


def _run_indexed(index: int) -> tuple[int, Any, dict[str, Any]]:
    """Execute one task of the active map in a worker process.

    The third element is the task's observability payload (what its
    fresh metrics scope holds, its trace records, its profiling totals)
    for the parent to merge in submission order — empty when
    observability is off.
    """
    task = _active_task
    assert task is not None  # set before fork
    fn, items = task
    value, payload = obs_collect.captured(
        lambda: _run_task(fn, items[index], index)
    )
    return index, value, payload


def _pool_round(
    indices: Sequence[int], count: int
) -> tuple[dict[int, tuple[Any, dict[str, Any]]], bool]:
    """One pool attempt over ``indices`` of the active map.

    Returns the ``(value, obs payload)`` pairs harvested this round (by
    index) and whether the pool broke — a worker process died, taking
    its in-flight tasks with it.  Successfully completed futures are
    harvested even when a later one is broken, so a crash costs only the
    unfinished tasks.

    Exceptions raised by the task function itself propagate.

    When profiling is enabled, pool construction is timed as the
    **fork** phase, task submission as **dispatch** (worker processes
    are actually forked lazily on first submit, so dispatch includes the
    forks themselves), and future collection as **harvest**.
    """
    harvested: dict[int, tuple[Any, dict[str, Any]]] = {}
    broken = False
    context = multiprocessing.get_context("fork")
    with obs_profile.phase("fork"):
        pool = ProcessPoolExecutor(
            max_workers=min(count, len(indices)),
            mp_context=context,
            initializer=_mark_worker,
        )
    with pool:
        try:
            with obs_profile.phase("dispatch"):
                futures = [
                    pool.submit(_run_indexed, index) for index in indices
                ]
        except BrokenExecutor:
            return harvested, True
        with obs_profile.phase("harvest"):
            for future in as_completed(futures):
                try:
                    index, value, payload = future.result()
                except BrokenExecutor:
                    broken = True
                    continue
                harvested[index] = (value, payload)
    return harvested, broken


def map_ordered(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: Optional[int] = None,
) -> list[R]:
    """``[fn(x) for x in items]``, optionally across a process pool.

    Results are always returned in the order of ``items`` (ordered
    reassembly), whichever worker finishes first.  With a resolved
    worker count of 1 — or fewer than two items, or inside a pool
    worker, or on a platform without ``fork`` — the tasks run in
    order in the calling process, each through the same instrumented
    :func:`_run_task` a pool worker uses.

    ``fn`` may be any callable, including a closure over unpicklable
    state: workers are forked and inherit it (see the module docstring).
    Exceptions raised by ``fn`` propagate to the caller in both modes.

    A worker process that *dies* (rather than raises) breaks the pool;
    the unfinished tasks are re-dispatched to a fresh pool up to
    :data:`_MAX_POOL_RESTARTS` times, after which the remainder runs
    serially in the calling process.  Completed results are never
    discarded, but an interrupted task may execute more than once, so
    tasks must be pure (see the module docstring).

    >>> map_ordered(lambda x: x * x, [3, 1, 2])
    [9, 1, 4]
    """
    items = list(items)
    count = resolve_workers(workers)
    map_started = obs_clock.monotonic()
    if count <= 1 or len(items) <= 1 or _in_worker or not _fork_available():
        with obs_profile.phase("serial"):
            serial_results: list[R] = [
                _run_task(fn, item, index) for index, item in enumerate(items)
            ]
        obs_trace.span(
            "engine.map",
            obs_clock.monotonic() - map_started,
            tasks=len(items),
            workers=1,
        )
        return serial_results

    global _active_task
    results: list[R] = [None] * len(items)  # type: ignore[list-item]
    payloads: dict[int, dict[str, Any]] = {}
    remaining = list(range(len(items)))
    with _pool_lock:
        _active_task = (fn, items)
        try:
            restarts = 0
            while remaining:
                harvested, pool_broke = _pool_round(remaining, count)
                for index, (value, payload) in harvested.items():
                    results[index] = value
                    payloads[index] = payload
                remaining = [i for i in remaining if i not in harvested]
                if not pool_broke or not remaining:
                    break
                restarts += 1
                obs_metrics.emit("engine.pool_restarts")
                if restarts > _MAX_POOL_RESTARTS:
                    break  # persistent crasher: fall through to serial
        finally:
            _active_task = None
    # Ordered reassembly: apply each worker's observability payload in
    # submission (index) order, so the merged registry and the event-
    # record sequence match what the serial path produces directly.
    with obs_profile.phase("reassembly"):
        for index in sorted(payloads):
            obs_collect.merge(payloads[index])
    for index in remaining:
        obs_metrics.emit("engine.serial_fallback_tasks")
        results[index] = _run_task(fn, items[index], index)
    obs_trace.span(
        "engine.map",
        obs_clock.monotonic() - map_started,
        tasks=len(items),
        workers=count,
    )
    return results

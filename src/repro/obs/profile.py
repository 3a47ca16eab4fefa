"""Profiling hooks: engine phase timers and protocol hook self-time.

The sweep engine's work divides into four phases — **fork** (process
pool construction), **dispatch** (task submission), **harvest**
(collecting completed futures), and **reassembly** (ordered merge of
results and per-worker observability payloads); the serial path is one
**serial** phase.  When profiling is enabled (:func:`enable`), the
engine brackets each phase with :func:`phase` and the accumulated
per-phase wall time is rendered by ``repro profile``.

:class:`ProfiledProtocol` wraps any consistency protocol and times its
three hooks (``is_fresh``, ``on_stored``, ``on_validation_result``),
producing the flat self-time table per protocol hook.  The wrapper is
transparent — same freshness answers, same attribute surface — so
simulation output is unchanged (the profiled run is *measured*, never
*perturbed*, beyond the clock reads themselves).

All state is module-level and per-process; a forked worker resets its
copy before each task, and the engine ships the task's totals back
through :mod:`repro.obs.collect` and merges them by simple addition
(profiling totals are sums, so merge order is irrelevant).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs import clock

#: Engine phase names, in execution order (the report renders this order).
ENGINE_PHASES: tuple[str, ...] = (
    "fork", "dispatch", "harvest", "reassembly", "serial",
    "fastpath.compile", "fastpath.simulate",
)

#: Phases with this prefix run nested inside ``serial`` / the workers'
#: share of ``harvest``; the report lists them apart from the total.
NESTED_PREFIX = "fastpath."

_enabled = False
_phase_seconds: dict[str, float] = {}
_hook_calls: dict[str, int] = {}
_hook_seconds: dict[str, float] = {}


def enable() -> None:
    """Turn phase/hook timing on for this process (and future forks)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn profiling off."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """True when the engine should time its phases."""
    return _enabled


def reset() -> None:
    """Clear all accumulated timings (keeps the enabled flag)."""
    _phase_seconds.clear()
    _hook_calls.clear()
    _hook_seconds.clear()


def add_phase(name: str, seconds: float) -> None:
    """Accumulate ``seconds`` of wall time into phase ``name``."""
    _phase_seconds[name] = _phase_seconds.get(name, 0.0) + seconds


def add_hook(name: str, seconds: float) -> None:
    """Accumulate one timed call of protocol hook ``name``."""
    _hook_calls[name] = _hook_calls.get(name, 0) + 1
    _hook_seconds[name] = _hook_seconds.get(name, 0.0) + seconds


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a region as engine phase ``name`` (no-op when disabled)."""
    if not _enabled:
        yield
        return
    started = clock.monotonic()
    try:
        yield
    finally:
        add_phase(name, clock.monotonic() - started)


# -- capture & merge (for forked workers, via repro.obs.collect) -------------


def snapshot() -> dict[str, Any]:
    """Current totals — after a :func:`reset`, a picklable :func:`merge`
    payload of everything timed since."""
    return {
        "phases": dict(_phase_seconds),
        "hook_calls": dict(_hook_calls),
        "hook_seconds": dict(_hook_seconds),
    }


def merge(payload: dict[str, Any]) -> None:
    """Fold a worker's :func:`snapshot` into this process's totals."""
    for name, seconds in payload["phases"].items():
        add_phase(name, seconds)
    for name, calls in payload["hook_calls"].items():
        _hook_calls[name] = _hook_calls.get(name, 0) + calls
    for name, seconds in payload["hook_seconds"].items():
        _hook_seconds[name] = _hook_seconds.get(name, 0.0) + seconds


# -- the protocol-hook profiler ----------------------------------------------


class ProfiledProtocol:
    """Times every hook call of a wrapped consistency protocol.

    Duck-typed on purpose (no ``repro.core`` import here): the wrapper
    forwards ``name``/``wants_invalidations``/``eager`` and any other
    attribute to the wrapped instance, so the simulator cannot tell the
    difference.  Self-times are keyed ``<family>.<hook>`` where
    ``<family>`` is the wrapped protocol's class name.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self._prefix = type(inner).__name__

    @property
    def name(self) -> str:
        return str(self._inner.name)

    @property
    def wants_invalidations(self) -> bool:
        return bool(self._inner.wants_invalidations)

    def is_fresh(self, entry: Any, now: float) -> bool:
        started = clock.monotonic()
        try:
            return bool(self._inner.is_fresh(entry, now))
        finally:
            add_hook(
                f"{self._prefix}.is_fresh", clock.monotonic() - started
            )

    def on_stored(self, entry: Any, now: float) -> None:
        started = clock.monotonic()
        try:
            self._inner.on_stored(entry, now)
        finally:
            add_hook(
                f"{self._prefix}.on_stored", clock.monotonic() - started
            )

    def on_validation_result(
        self, entry: Any, now: float, was_modified: bool
    ) -> None:
        started = clock.monotonic()
        try:
            self._inner.on_validation_result(entry, now, was_modified)
        finally:
            add_hook(
                f"{self._prefix}.on_validation_result",
                clock.monotonic() - started,
            )

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def __repr__(self) -> str:
        return f"<ProfiledProtocol {self._inner!r}>"


# -- reporting ----------------------------------------------------------------


def phase_breakdown() -> list[tuple[str, float]]:
    """(phase, seconds) rows in :data:`ENGINE_PHASES` order, then extras."""
    rows = [
        (name, _phase_seconds[name])
        for name in ENGINE_PHASES
        if name in _phase_seconds
    ]
    rows.extend(
        (name, seconds)
        for name, seconds in sorted(_phase_seconds.items())
        if name not in ENGINE_PHASES
    )
    return rows


def hook_table() -> list[tuple[str, int, float]]:
    """(hook, calls, self seconds) rows, sorted by self time descending."""
    return sorted(
        (
            (name, _hook_calls.get(name, 0), seconds)
            for name, seconds in _hook_seconds.items()
        ),
        key=lambda row: (-row[2], row[0]),
    )


def render_report(total_wall: Optional[float] = None) -> str:
    """The ``repro profile`` output: phase breakdown + hook self-time.

    The ``fastpath.*`` phases run *inside* ``serial`` (or inside the
    pool workers during ``harvest``), so they are listed indented under
    an "of which" line and left out of the total: the top-level shares
    sum to at most 100 %.
    """
    lines = ["engine phase breakdown:"]
    phases = phase_breakdown()
    top = [row for row in phases if not row[0].startswith(NESTED_PREFIX)]
    nested = [
        ("  " + name, seconds)
        for name, seconds in phases
        if name.startswith(NESTED_PREFIX)
    ]
    denominator = total_wall or sum(
        seconds for _, seconds in (top or nested)
    )
    width = max(len(label) for label in ["total wall", *dict(top + nested)])

    def row(label: str, seconds: float) -> str:
        share = 100.0 * seconds / denominator if denominator > 0.0 else 0.0
        return f"  {label:<{width}} {seconds:>9.4f}s  {share:>5.1f}%"

    if not phases:
        lines.append("  (no phases recorded — was profiling enabled?)")
    lines.extend(row(label, seconds) for label, seconds in top)
    if nested:
        lines.append("  of which:")
        lines.extend(row(label, seconds) for label, seconds in nested)
    if total_wall is not None:
        lines.append(f"  {'total wall':<{width}} {total_wall:>9.4f}s")
    hooks = hook_table()
    lines.append("")
    lines.append("protocol hook self-time:")
    if not hooks:
        lines.append("  (no hooks timed — wrap protocols in "
                      "ProfiledProtocol)")
    for name, calls, seconds in hooks:
        lines.append(f"  {name:<36} {calls:>9} calls  {seconds:>9.4f}s")
    return "\n".join(lines)

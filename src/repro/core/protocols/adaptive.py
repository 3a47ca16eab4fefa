"""Self-tuning consistency — the paper's Section 5 future work.

"We are investigating algorithms by which caches can be self-tuning, by
adjusting parameters based on the data type and the history of accesses
to items of that type."

:class:`SelfTuningProtocol` implements that investigation: it keeps an
Alex-style update threshold *per file type* and adapts it from validation
outcomes using multiplicative-increase / multiplicative-decrease:

* a validation answered **304 Not Modified** means the check was wasted —
  the threshold for that type grows by ``increase_factor`` (check less);
* a validation that found a **new body** means the entry went stale at
  some point — the threshold shrinks by ``decrease_factor`` (check more).

Thresholds are clamped to ``[min_threshold, max_threshold]``.  The
mechanism converges toward long windows for stable types (gif/jpg, per
Table 2's 85-100-day life-spans) and short windows for volatile ones,
without manual tuning — the failure mode the paper warns about
("Leaving this tuning to manual intervention is guaranteed to result in
suboptimal performance").
"""

from __future__ import annotations

from repro.core.cache import CacheEntry
from repro.core.protocols.base import ConsistencyProtocol


class SelfTuningProtocol(ConsistencyProtocol):
    """Per-file-type Alex thresholds adapted from validation history.

    Args:
        initial_threshold: starting threshold fraction for every type.
        min_threshold: lower clamp (never poll *more* often than this).
        max_threshold: upper clamp.
        increase_factor: multiplier applied after a wasted check (304).
        decrease_factor: multiplier applied after a detected change.

    Raises:
        ValueError: on non-positive factors or inverted clamps.
    """

    #: Thresholds are shared per file *type*, so one object's validation
    #: outcome changes another object's freshness decision — the live
    #: proxy must serialize requests globally for this protocol.
    cross_object_state = True

    def __init__(
        self,
        initial_threshold: float = 0.10,
        min_threshold: float = 0.01,
        max_threshold: float = 1.0,
        increase_factor: float = 1.2,
        decrease_factor: float = 0.5,
    ) -> None:
        if not 0 < min_threshold <= max_threshold:
            raise ValueError(
                f"need 0 < min_threshold <= max_threshold, got "
                f"[{min_threshold}, {max_threshold}]"
            )
        if not min_threshold <= initial_threshold <= max_threshold:
            raise ValueError(
                f"initial_threshold {initial_threshold} outside "
                f"[{min_threshold}, {max_threshold}]"
            )
        if increase_factor < 1.0:
            raise ValueError(f"increase_factor must be >= 1: {increase_factor}")
        if not 0 < decrease_factor <= 1.0:
            raise ValueError(
                f"decrease_factor must be in (0, 1]: {decrease_factor}"
            )
        self.initial_threshold = float(initial_threshold)
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self.increase_factor = float(increase_factor)
        self.decrease_factor = float(decrease_factor)
        self._thresholds: dict[str, float] = {}
        #: (wasted checks, detected changes) per type, for introspection.
        self.history: dict[str, list[int]] = {}

    @property
    def name(self) -> str:
        return f"self-tuning(init={self.initial_threshold * 100:g}%)"

    def threshold_for(self, file_type: str) -> float:
        """Current threshold fraction for ``file_type``."""
        return self._thresholds.get(file_type, self.initial_threshold)

    def is_fresh(self, entry: CacheEntry, now: float) -> bool:
        """Alex freshness rule under the entry's per-type threshold."""
        age = entry.validated_at - entry.last_modified
        if age <= 0.0:
            return False
        return (now - entry.validated_at) < self.threshold_for(entry.file_type) * age

    def on_validation_result(
        self, entry: CacheEntry, now: float, was_modified: bool
    ) -> None:
        """Adapt the type's threshold from the validation outcome."""
        current = self.threshold_for(entry.file_type)
        if was_modified:
            updated = max(current * self.decrease_factor, self.min_threshold)
        else:
            updated = min(current * self.increase_factor, self.max_threshold)
        self._thresholds[entry.file_type] = updated
        stats = self.history.setdefault(entry.file_type, [0, 0])
        stats[1 if was_modified else 0] += 1

    def snapshot(self) -> dict[str, float]:
        """The learned per-type thresholds (types seen so far)."""
        return dict(self._thresholds)

    def state_snapshot(self) -> dict[str, object]:
        """Thresholds + history: the learned state oracle leg 3 compares."""
        return {
            "thresholds": dict(self._thresholds),
            "history": {k: list(v) for k, v in self.history.items()},
        }

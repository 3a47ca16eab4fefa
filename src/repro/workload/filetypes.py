"""File types: access mix, sizes, ages, and life-spans (Table 2).

Table 2 combines two measurements:

* the **Microsoft proxy** access mix — 55% gif, 22% html, 10% jpg,
  9% cgi, 4% other, with average file sizes (gif 7791 B, html 4786 B,
  jpg 21608 B, cgi 5980 B);
* the **Boston University** per-type life-spans — average age 85/50/100
  days and median life-span 146/146/72 days for gif/html/jpg.

This module is the single registry for those numbers plus samplers that
draw types, sizes, and initial ages from them.  Sizes are lognormal
around the measured means (web file sizes are famously right-skewed);
ages are exponential around the measured average ages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.clock import DAY


@dataclass(frozen=True)
class FileTypeSpec:
    """Per-type parameters, one Table 2 row.

    Attributes:
        name: type label (``gif``, ``html``, ...).
        access_share: fraction of all requests (Microsoft column).
        mean_size: average body size in bytes (Microsoft column).
        avg_age_days: average age in days (BU column); None when the
            paper reports NA.
        median_lifespan_days: median life-span in days (BU column); None
            when NA.
        cacheable: False for dynamically generated content.
    """

    name: str
    access_share: float
    mean_size: int
    avg_age_days: Optional[float]
    median_lifespan_days: Optional[float]
    cacheable: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.access_share <= 1.0:
            raise ValueError(f"access_share outside [0,1]: {self.access_share}")
        if self.mean_size <= 0:
            raise ValueError(f"mean_size must be positive: {self.mean_size}")


#: The Table 2 rows.  cgi has no measured age/life-span (NA) and is
#: dynamic; "other" gets no Microsoft size either, so we give it the
#: html-like 6000 B used for unclassified text of the era.
TABLE2_TYPES: tuple[FileTypeSpec, ...] = (
    FileTypeSpec("gif", 0.55, 7791, 85.0, 146.0),
    FileTypeSpec("html", 0.22, 4786, 50.0, 146.0),
    FileTypeSpec("jpg", 0.10, 21608, 100.0, 72.0),
    FileTypeSpec("cgi", 0.09, 5980, None, None, cacheable=False),
    FileTypeSpec("other", 0.04, 6000, None, None),
)

#: Fallback age for types the BU data does not cover.
DEFAULT_AGE_DAYS: float = 60.0


def lognormal_with_mean(
    rng: np.random.Generator, mean: float, sigma: float
) -> float:
    """One lognormal draw whose distribution has the given mean.

    ``mean = exp(mu + sigma^2/2)`` ⇒ ``mu = ln(mean) - sigma^2/2``.

    Raises:
        ValueError: for non-positive ``mean`` or negative ``sigma``.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive: {mean}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative: {sigma}")
    if sigma == 0:
        return mean
    mu = np.log(mean) - 0.5 * sigma**2
    return float(rng.lognormal(mean=mu, sigma=sigma))


class FileTypeModel:
    """Sampler over a set of :class:`FileTypeSpec` rows.

    Args:
        specs: the type registry (defaults to Table 2).
        size_sigma: lognormal shape parameter for sizes; 0 makes every
            file exactly the type's mean size.
        include_dynamic: when False, cgi (non-cacheable) content is
            excluded and the remaining shares renormalized — the
            configuration the consistency simulations use, since dynamic
            pages cannot be cached at all.
    """

    def __init__(
        self,
        specs: Sequence[FileTypeSpec] = TABLE2_TYPES,
        size_sigma: float = 0.8,
        include_dynamic: bool = True,
    ) -> None:
        if size_sigma < 0:
            raise ValueError(f"size_sigma must be non-negative: {size_sigma}")
        chosen = [
            s for s in specs if include_dynamic or s.cacheable
        ]
        if not chosen:
            raise ValueError("no file types left after filtering")
        total = sum(s.access_share for s in chosen)
        if total <= 0:
            raise ValueError("access shares must sum to a positive value")
        self.specs = tuple(chosen)
        self._shares = np.array([s.access_share / total for s in chosen])
        self.size_sigma = size_sigma
        self._by_name = {s.name: s for s in chosen}
        # Per-type lognormal ``mu`` preserving the mean size:
        # ``mean = exp(mu + sigma^2/2)`` ⇒ ``mu = ln(mean) - sigma^2/2``.
        self._size_mu = {
            s.name: np.log(s.mean_size) - 0.5 * size_sigma**2 for s in chosen
        }

    def spec(self, name: str) -> FileTypeSpec:
        """Look up a type by name.

        Raises:
            KeyError: for unknown type names.
        """
        return self._by_name[name]

    def sample_type_indices(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Draw ``count`` types according to the access mix, as indices
        into :attr:`specs`."""
        return rng.choice(len(self.specs), size=count, p=self._shares)

    def sample_types(self, rng: np.random.Generator, count: int) -> list[str]:
        """Draw ``count`` type names according to the access mix."""
        drawn = self.sample_type_indices(rng, count)
        return [self.specs[i].name for i in drawn]

    def sample_size(self, rng: np.random.Generator, type_name: str) -> int:
        """Draw one body size for ``type_name``.

        Lognormal with the type's mean preserved; sizes are clamped to
        at least 64 bytes.
        """
        spec = self.spec(type_name)
        if self.size_sigma == 0:
            return spec.mean_size
        mu = self._size_mu[type_name]
        size = rng.lognormal(mean=mu, sigma=self.size_sigma)
        return max(64, int(round(size)))

    def sample_sizes(
        self, rng: np.random.Generator, type_indices: np.ndarray
    ) -> np.ndarray:
        """:meth:`sample_size` for every entry of ``type_indices``, in order.

        One broadcast draw consumes the generator exactly as the scalar
        calls would, and ``rint`` rounds half to even as ``round`` does.
        """
        if self.size_sigma == 0:
            means = np.array([spec.mean_size for spec in self.specs])
            return means[type_indices]
        mus = np.array([self._size_mu[spec.name] for spec in self.specs])
        sizes = rng.lognormal(mus[type_indices], self.size_sigma)
        return np.maximum(np.rint(sizes), 64.0).astype(np.int64)

    def sample_initial_age(
        self, rng: np.random.Generator, type_name: str, sigma: float = 0.6
    ) -> float:
        """Draw a pre-trace age (seconds) for a file of ``type_name``.

        Lognormal with the type's measured average age (Table 2 BU
        column) as the mean.  Ages are clamped to at least one day — the
        paper's conservatism runs the other way (it *overestimates*
        change rates), so the clamp only prevents degenerate zero-age
        preloads.  A lognormal rather than an exponential keeps the mass
        away from zero: a population whose "average age is 85 days" is
        dominated by genuinely old files, not by a spike of day-old ones.
        """
        spec = self.spec(type_name)
        mean_days = spec.avg_age_days or DEFAULT_AGE_DAYS
        age = lognormal_with_mean(rng, mean_days, sigma) * DAY
        return max(age, 1.0 * DAY)

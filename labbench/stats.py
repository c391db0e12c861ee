"""Order statistics and outcome accounting for the lab benchmark.

Percentiles are exact nearest-rank values: the ``p``-th percentile of
``n`` samples is the sample at 1-based rank ``ceil(p/100 * n)`` of the
sorted list.  A percentile is only reported as trustworthy when at least
:data:`MIN_BEYOND` samples lie beyond it (:func:`beyond`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Samples that must lie strictly beyond a reported percentile's rank.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of ``values`` (0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct`` rank."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(pct / 100.0 * n))


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Outcomes:
    """Attempts and errors of one run; ``error_rate`` is errors / attempts.

    Every kind of failure counts once against the attempt it spoiled:
    refusals (HTTP 429/5xx), timeouts, jobs that end in any state but
    ``done``, failed or skipped tasks, and outcomes that are not correct.
    """

    attempted: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def error(self, kind: str, note: str = "") -> None:
        self.errors[kind] = self.errors.get(kind, 0) + 1
        if note and len(self.notes) < 20:
            self.notes.append(f"{kind}: {note}")

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

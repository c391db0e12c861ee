"""A reference workload that gauges the host's speed during a run.

The reference host's CPU speed drifts by up to 40% over minutes (see
README.md, "The host"), and a CPU-bound figure drifts with it: eight
``reproduce`` runs spread 0.11 (interquartile range over median) on the
median cold pass.  The reference workload is fixed pure-Python work —
dictionary lookups, a sort and object allocation, none of it the
program's code — timed between the measured phases of a run.  The run's
median pass divided by the run's median reference time spread 0.03 over
the same runs.

A normalised figure is the measured figure times ``NOMINAL_S / ref``:
what it would read when the reference takes :data:`NOMINAL_S`, its
typical time on the reference host.  A change to the program moves it;
a change in the host's speed, to first order, does not.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from labbench.stats import median

#: The reference workload's typical time per call on the reference host
#: (a 2-vCPU Intel Xeon virtual machine).
NOMINAL_S = 0.019
#: Seconds of reference calls per sample.
SAMPLE_S = 1.5

_rng = random.Random(20240601)
_TABLE: Dict[int, float] = {i: _rng.random() for i in range(200_000)}
_KEYS: List[int] = [_rng.randrange(200_000) for _ in range(20_000)]
_FLOATS: List[float] = [_rng.random() for _ in range(20_000)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def reference() -> float:
    """One call of the reference workload (~19 ms on the reference host)."""
    total = 0.0
    for key in _KEYS:
        total += _TABLE[key]
    sorted(_FLOATS)
    pairs = [_Pair(i, i + 1) for i in range(5_000)]
    return total + sum(p.a for p in pairs)


class HostGauge:
    """Median reference times sampled while the program under test is idle."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, seconds: float = SAMPLE_S) -> None:
        """Call the reference for ``seconds``; keep the median call time."""
        times: List[float] = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
        self.samples.append(median(times))

    @property
    def ref_s(self) -> float:
        return median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a time by this (divide a rate) to normalise it."""
        return NOMINAL_S / self.ref_s

    def line(self) -> str:
        return (f"host gauge: reference {1e3 * self.ref_s:.2f} ms per call (median of "
                f"{len(self.samples)} samples: "
                f"{', '.join(f'{1e3 * s:.2f}' for s in self.samples)}); nominal "
                f"{1e3 * NOMINAL_S:.2f} ms, so times are scaled by {self.factor:.4f}")

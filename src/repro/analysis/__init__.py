"""Measurement plumbing for the benchmark harness.

* :mod:`repro.analysis.sweep` — run an algorithm/machine factory over a
  parameter grid, collecting simulated cost and verifier verdicts.
* :mod:`repro.analysis.parallel_sweep` — the worker-pool drop-in for
  :func:`sweep` (crash isolation, watchdog timeouts, deterministic
  per-point seeding, JSON result cache for resumable benches).
* :mod:`repro.analysis.fit` — growth-shape checking: fit a single constant
  against a reference curve and test dominance / boundedness / monotone
  trends, the executable meaning of Omega/Theta at finite n (DESIGN.md
  "Shape expectations").
* :mod:`repro.analysis.tables` — fixed-width table rendering for the
  paper-style output of each bench.
"""

from repro.analysis.fit import bounded_ratio, dominance_constant, ratio_trend
from repro.analysis.parallel_sweep import (
    SweepPointError,
    bench_cache_path,
    derive_point_seed,
    parallel_sweep,
)
from repro.analysis.sweep import SweepPoint, grid_points, point_from_outcome, sweep
from repro.analysis.tables import render_table

__all__ = [
    "sweep",
    "parallel_sweep",
    "bench_cache_path",
    "derive_point_seed",
    "grid_points",
    "point_from_outcome",
    "SweepPoint",
    "SweepPointError",
    "dominance_constant",
    "bounded_ratio",
    "ratio_trend",
    "render_table",
]

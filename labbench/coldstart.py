"""A reproduce caller's cold start, timed from outside as ``setup_s``.

``python -m labbench.coldstart`` starts from a fresh interpreter, imports
the program and the benchmark drivers, builds the four reproduction
campaigns, spawns the 2-worker pool, runs a first task on each worker,
and shuts the pool down.
"""

from __future__ import annotations

from repro.sched.campaigns import build_campaign, demo_task
from repro.sched.pool import WorkerPool

CAMPAIGNS = ("table1", "cross_model", "section8", "chaos")
WORKERS = 2


def warm_pool() -> WorkerPool:
    """Build every campaign once (imports the drivers); return a warmed pool."""
    for name in CAMPAIGNS:
        build_campaign(name)
    pool = WorkerPool(jobs=WORKERS)
    for i in range(WORKERS):
        pool.submit(f"warm-{i}", demo_task, {"n": 8, "delay": 0.0})
    warmed = 0
    while warmed < WORKERS:
        warmed += len(pool.events(wait=1.0))
    return pool


if __name__ == "__main__":
    warm_pool().shutdown()

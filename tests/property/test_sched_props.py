"""Executor equivalence: serial and warm-pool sweeps must be bit-identical.

The warm pool (repro.sched.pool) is parallel_sweep's worker backend; its
whole contract is that *where* a point runs is invisible in the results.  These properties pin that:
random grids, seeded and unseeded, produce byte-for-byte equal outcome
lists under every executor, and a store-backed re-run (resume) changes
nothing either.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.parallel_sweep import parallel_sweep
from repro.sched.pool import WorkerPool
from repro.sched.store import ResultStore


def seeded_point(x, k, seed=0):
    """Deterministic pseudo-measurement mixing params and derived seed."""
    h = (x * 1_000_003 + k * 101 + seed * 17) % 65_521
    return {
        "measured": float(h),
        "correct": True,
        "detail": {"x": x, "k": k, "seed": seed},
    }


# One pool for the whole module: spawning processes per hypothesis example
# would swamp the test; reusing the pool is also exactly the production
# usage pattern (many sweeps, one warm pool).
_POOL = None


def shared_pool():
    global _POOL
    if _POOL is None or _POOL._closed:
        _POOL = WorkerPool(jobs=2)
    return _POOL


def teardown_module():
    if _POOL is not None:
        _POOL.shutdown()


grids = st.builds(
    lambda xs, ks: {"x": sorted(xs), "k": sorted(ks)},
    st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True),
)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, base_seed=st.integers(0, 2**16))
def test_serial_and_pool_sweeps_bit_identical(grid, base_seed):
    serial = parallel_sweep(
        grid, seeded_point, executor="serial", jobs=1,
        seed_arg="seed", base_seed=base_seed,
    )
    pooled = parallel_sweep(
        grid, seeded_point, executor="pool", pool=shared_pool(),
        seed_arg="seed", base_seed=base_seed,
    )
    assert serial == pooled


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=grids, base_seed=st.integers(0, 2**16))
def test_store_backed_rerun_is_identical(grid, base_seed, tmp_path_factory):
    store = ResultStore(str(tmp_path_factory.mktemp("store")))
    live = parallel_sweep(
        grid, seeded_point, executor="pool", pool=shared_pool(),
        seed_arg="seed", base_seed=base_seed, store=store,
    )
    resumed = parallel_sweep(
        grid, seeded_point, executor="pool", pool=shared_pool(),
        seed_arg="seed", base_seed=base_seed, store=store,
    )
    assert live == resumed
    assert store.stats().entries == len(live)


def test_serial_and_pool_bit_identical_on_a_real_grid():
    """The non-hypothesis anchor: serial == warm pool on a multi-axis
    seeded grid, with the pool built by parallel_sweep itself at jobs=2."""
    grid = {"x": [1, 5, 9, 13], "k": [0, 3]}
    runs = {
        executor: parallel_sweep(
            grid, seeded_point, executor=executor, jobs=2,
            seed_arg="seed", base_seed=42,
        )
        for executor in ("serial", "pool")
    }
    assert runs["serial"] == runs["pool"]
    assert all(p.correct for p in runs["serial"])

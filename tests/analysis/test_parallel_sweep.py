"""The multiprocessing sweep runner: drop-in equality, caching, seeding,
and fault tolerance (crashes, hangs, torn caches)."""

import json
import math
import os
import time
from functools import partial

import pytest

# Alias: the repo's pytest config also collects ``bench_*`` functions, so a
# bare ``bench_cache_path`` import would be picked up as a benchmark target.
from repro.analysis.parallel_sweep import bench_cache_path as cache_path_for
from repro.analysis.parallel_sweep import (
    JOBS_ENV,
    SweepPointError,
    default_jobs,
    derive_point_seed,
    parallel_sweep,
    point_key,
)
from repro.analysis.sweep import sweep

GRID = {"n": [4, 8], "g": [1.0, 2.0]}


def run_point(n, g):
    return {"measured": n * g, "correct": True, "bound": float(n), "tag": f"{n}:{g}"}


def run_seeded(n, g, seed=None):
    return {"measured": float(n), "correct": True, "seed_used": seed}


def run_forbidden(n, g):
    raise AssertionError("point should have been served from the cache")


CALLS = []


def run_counting(n, g):
    CALLS.append((n, g))
    return {"measured": float(n * g), "correct": True}


class TestDropIn:
    def test_parallel_matches_serial(self):
        serial = sweep(GRID, run_point)
        parallel = parallel_sweep(GRID, run_point, jobs=2)
        assert parallel == serial

    def test_jobs_one_needs_no_pickling(self):
        grid = {"n": [2, 3]}
        closure = lambda n: {"measured": float(n), "correct": True}  # noqa: E731
        points = parallel_sweep(grid, closure, jobs=1)
        assert [p.measured for p in points] == [2.0, 3.0]


class TestCache:
    def test_completed_points_are_skipped(self, tmp_path):
        cache = str(tmp_path / "BENCH_test.json")
        first = parallel_sweep(GRID, run_point, jobs=1, cache_path=cache)
        assert os.path.exists(cache)
        # Every point is cached, so a rerun never calls run at all.
        second = parallel_sweep(GRID, run_forbidden, jobs=1, cache_path=cache)
        assert second == first

    def test_partial_cache_runs_only_missing_points(self, tmp_path):
        cache = str(tmp_path / "BENCH_partial.json")
        parallel_sweep({"n": [4], "g": [1.0]}, run_counting, jobs=1, cache_path=cache)
        CALLS.clear()
        points = parallel_sweep(GRID, run_counting, jobs=1, cache_path=cache)
        assert len(points) == 4
        assert sorted(CALLS) == [(4, 2.0), (8, 1.0), (8, 2.0)]  # (4, 1.0) cached

    def test_cache_file_is_json_keyed_by_point(self, tmp_path):
        cache = str(tmp_path / "BENCH_keys.json")
        parallel_sweep(GRID, run_point, jobs=1, cache_path=cache)
        with open(cache, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert set(data) == {point_key(p) for p in
                             ({"n": n, "g": g} for n in GRID["n"] for g in GRID["g"])}

    def test_bench_cache_path_convention(self, tmp_path):
        path = cache_path_for("t1a parity", root=str(tmp_path))
        assert path == str(tmp_path / "BENCH_t1a_parity.json")


class TestSeeding:
    def test_seed_depends_only_on_point(self):
        a = derive_point_seed(0, {"n": 4, "g": 2.0})
        b = derive_point_seed(0, {"g": 2.0, "n": 4})  # key order is irrelevant
        assert a == b
        assert derive_point_seed(0, {"n": 8, "g": 2.0}) != a
        assert derive_point_seed(1, {"n": 4, "g": 2.0}) != a
        assert 0 <= a < 2**63

    def test_seed_arg_injects_derived_seeds(self):
        points = parallel_sweep(GRID, run_seeded, jobs=1, seed_arg="seed", base_seed=5)
        for p in points:
            assert p.extra["seed_used"] == derive_point_seed(5, p.params)

    def test_parallel_seeding_matches_serial(self):
        serial = parallel_sweep(GRID, run_seeded, jobs=1, seed_arg="seed")
        parallel = parallel_sweep(GRID, run_seeded, jobs=2, seed_arg="seed")
        assert parallel == serial


class TestJobs:
    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3

    def test_bad_env_var_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert default_jobs() >= 1


# --- fault-tolerance helpers (module-level so worker processes can run them)


def flaky_point(n, scratch=""):
    """Crash the whole worker process on the first call for each ``n``."""
    marker = os.path.join(scratch, f"crashed-{n}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(17)
    return {"measured": float(n), "correct": True}


def hanging_point(n, scratch=""):
    """Hang (far past any test timeout) on the first call for each ``n``."""
    marker = os.path.join(scratch, f"hung-{n}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        time.sleep(600.0)
    return {"measured": float(n), "correct": True}


def broken_point(n):
    if n == 3:
        raise ValueError("n=3 is cursed")
    return {"measured": float(n), "correct": True}


def healthy_point(n):
    return {"measured": float(n), "correct": True}


def pid_point(n):
    return {"measured": float(n), "correct": True, "pid": os.getpid()}


class TestFaultTolerance:
    def test_worker_crash_is_isolated_and_retried(self, tmp_path):
        points = parallel_sweep(
            {"n": [2, 5]}, partial(flaky_point, scratch=str(tmp_path)),
            jobs=2, retries=1,
        )
        assert [p.measured for p in points] == [2.0, 5.0]
        assert all(p.extra["sweep_attempts"] == 2 for p in points)
        assert not any(p.failed for p in points)

    def test_crash_without_retries_is_recorded(self, tmp_path):
        [point] = parallel_sweep(
            {"n": [2]}, partial(flaky_point, scratch=str(tmp_path)),
            jobs=2, on_error="record",
        )
        assert point.failed
        assert "worker crashed" in point.error
        assert math.isnan(point.measured)

    def test_hung_point_is_killed_by_the_watchdog(self, tmp_path):
        points = parallel_sweep(
            {"n": [2, 5]}, partial(hanging_point, scratch=str(tmp_path)),
            jobs=2, timeout=1.0, retries=1,
        )
        assert [p.measured for p in points] == [2.0, 5.0]
        assert all(p.extra["sweep_attempts"] == 2 for p in points)

    def test_timeout_without_retries_is_recorded(self, tmp_path):
        [point] = parallel_sweep(
            {"n": [2]}, partial(hanging_point, scratch=str(tmp_path)),
            jobs=1, timeout=0.5, on_error="record",
        )
        assert point.failed
        assert "timed out" in point.error

    def test_on_error_record_keeps_healthy_points(self):
        points = parallel_sweep({"n": [2, 3, 4]}, broken_point,
                                jobs=2, on_error="record")
        by_n = {p.params["n"]: p for p in points}
        assert not by_n[2].failed and not by_n[4].failed
        assert by_n[3].failed
        assert "cursed" in by_n[3].error
        assert math.isnan(by_n[3].measured)

    def test_on_error_raise_raises_sweep_point_error(self):
        with pytest.raises(SweepPointError, match="cursed") as exc_info:
            parallel_sweep({"n": [2, 3]}, broken_point, jobs=2)
        assert exc_info.value.params == {"n": 3}

    def test_error_points_also_recorded_in_serial_mode(self):
        points = parallel_sweep({"n": [2, 3]}, broken_point,
                                jobs=1, on_error="record")
        assert [p.failed for p in points] == [False, True]

    def test_retry_recovers_in_serial_mode(self, tmp_path):
        calls = tmp_path / "calls"

        def flaky_serial(n):
            if not calls.exists():
                calls.write_text("x")
                raise RuntimeError("transient")
            return {"measured": float(n), "correct": True}

        [point] = parallel_sweep({"n": [2]}, flaky_serial, jobs=1, retries=1)
        assert point.measured == 2.0
        assert point.extra["sweep_attempts"] == 2

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=0)
        with pytest.raises(ValueError, match="retries"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, timeout=0)
        with pytest.raises(ValueError, match="backoff"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, backoff=-0.5)
        with pytest.raises(ValueError, match="on_error"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=1, on_error="panic")
        with pytest.raises(ValueError, match="executor"):
            parallel_sweep({"n": [1]}, healthy_point, jobs=2, executor="process")

    def test_single_task_workers_run_every_point_in_its_own_process(self):
        from repro.sched.pool import WorkerPool

        with WorkerPool(jobs=2, max_tasks_per_worker=1) as pool:
            points = parallel_sweep({"n": [1, 2, 3, 4]}, pid_point, pool=pool)
        pids = [p.extra["pid"] for p in points]
        assert [p.measured for p in points] == [1.0, 2.0, 3.0, 4.0]
        assert len(set(pids)) == 4
        assert os.getpid() not in pids


class TestCacheRobustness:
    def test_unreadable_cache_is_quarantined_not_fatal(self, tmp_path):
        cache = str(tmp_path / "BENCH_torn.json")
        with open(cache, "w", encoding="utf-8") as fh:
            fh.write('{"truncated": ')
        with pytest.warns(RuntimeWarning, match="quarantin"):
            points = parallel_sweep({"n": [2]}, healthy_point, jobs=1,
                                    cache_path=cache)
        assert [p.measured for p in points] == [2.0]
        assert os.path.exists(cache + ".quarantined")
        # The fresh cache written afterwards is valid JSON again.
        with open(cache, "r", encoding="utf-8") as fh:
            assert json.load(fh)

    def test_schema_invalid_entries_are_dropped_and_rerun(self, tmp_path):
        cache = str(tmp_path / "BENCH_badentry.json")
        key = point_key({"n": 2})
        with open(cache, "w", encoding="utf-8") as fh:
            json.dump({key: {"bogus": True}}, fh)
        with pytest.warns(RuntimeWarning, match="schema"):
            [point] = parallel_sweep({"n": [2]}, healthy_point, jobs=1,
                                     cache_path=cache)
        assert point.measured == 2.0  # re-run, not served from the bad entry

    def test_error_outcomes_are_never_cached(self, tmp_path):
        cache = str(tmp_path / "BENCH_err.json")
        parallel_sweep({"n": [2, 3]}, broken_point, jobs=1,
                       cache_path=cache, on_error="record")
        # Resume with a healthy run: the failed point re-executes and heals,
        # the good point is served from the cache.
        points = parallel_sweep({"n": [2, 3]}, healthy_point, jobs=1,
                                cache_path=cache)
        assert [p.failed for p in points] == [False, False]
        assert [p.measured for p in points] == [2.0, 3.0]

    def test_partial_results_cached_even_when_a_point_raises(self, tmp_path):
        cache = str(tmp_path / "BENCH_partial_fail.json")
        with pytest.raises(SweepPointError):
            parallel_sweep({"n": [2, 3]}, broken_point, jobs=1,
                           cache_path=cache)
        with open(cache, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert point_key({"n": 2}) in data  # the completed point survived

"""Nearest-rank percentiles, the at-least-10-beyond rule, and error_rate."""

import pytest

from labbench.loadgen import Submission
from labbench.stats import MIN_BEYOND, Outcomes, beyond, median, nearest_rank
from labbench.workloads import check_jobs


def test_nearest_rank_picks_the_ceil_rank_sample():
    values = list(range(10, 0, -1))  # order must not matter
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    assert nearest_rank([7.0], 90) == 7.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_beyond_counts_samples_past_the_rank():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(105, 90) == 10
    assert beyond(0, 90) == 0


def test_a_100_job_open_loop_leaves_ten_beyond_p90():
    assert beyond(100, 90) == MIN_BEYOND
    assert beyond(99, 90) < MIN_BEYOND
    assert beyond(20, 50) == MIN_BEYOND


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def _done(job_id, counts=None, state="done"):
    sub = Submission("t", {}, due=0.0, status=201, job_id=job_id, done_at=1.0)
    sub.view = {"id": job_id, "state": state, "counts": counts or {"done": 3}}
    return sub


def test_error_rate_counts_a_refusal_and_a_failed_task():
    refused = Submission("t", {}, status=429, error="refused: HTTP 429: quota_jobs")
    failed_job = _done("job-2", {"done": 2, "failed": 1}, state="failed")
    failed_task = _done("job-3", {"done": 2, "failed": 1})
    lost = Submission("t", {}, status=201, job_id="job-4")  # never terminal
    outcomes = Outcomes()
    check_jobs([_done("job-1"), refused, failed_job, failed_task, lost], outcomes)
    assert outcomes.attempted == 5
    assert outcomes.failed == 4
    assert outcomes.errors == {"refused": 1, "not_done": 1, "task_failed": 1, "timeout": 1}
    assert outcomes.error_rate == pytest.approx(4 / 5)


def test_error_rate_is_zero_without_attempts():
    assert Outcomes().error_rate == 0.0

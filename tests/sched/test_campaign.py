"""The campaign DAG runner: deps, priorities, failure, resume, cancel."""

import json
import os
import time

import pytest

from repro.sched.campaign import (
    Campaign,
    CampaignError,
    TaskSpec,
    campaign_status,
    run_campaign,
)
from repro.sched.store import ResultStore
from tests.markers import mark_run, run_count


# Module-level task functions (pool tasks must pickle).

def emit(value, marker_dir=None, name=""):
    """Return a small outcome; optionally touch a marker file per execution."""
    if marker_dir is not None:
        mark_run(marker_dir, name)
    return {"value": value, "correct": True}


def boom():
    raise ValueError("task exploded")


def flaky(marker_dir, name="flaky"):
    """Fail on the first attempt, succeed afterwards (cross-process state)."""
    count = mark_run(marker_dir, name) - 1
    if count == 0:
        raise RuntimeError("first attempt fails")
    return {"value": count, "correct": True}


def sleepy(seconds, value):
    time.sleep(seconds)
    return {"value": value, "correct": True}


def total(results):
    return {"total": sum(r["value"] for r in results.values()), "correct": True}


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            Campaign("c", [TaskSpec("a", emit, {"value": 1}),
                           TaskSpec("a", emit, {"value": 2})])

    def test_unknown_dep_rejected(self):
        with pytest.raises(CampaignError, match="unknown task"):
            Campaign("c", [TaskSpec("a", emit, {"value": 1}, deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(CampaignError, match="cycle"):
            Campaign("c", [
                TaskSpec("a", emit, {"value": 1}, deps=("b",)),
                TaskSpec("b", emit, {"value": 2}, deps=("a",)),
            ])

    def test_task_lookup(self):
        camp = Campaign("c", [TaskSpec("a", emit, {"value": 1})])
        assert camp.task("a").kwargs == {"value": 1}
        with pytest.raises(KeyError):
            camp.task("ghost")


class TestExecution:
    def test_deps_gate_and_inline_sees_results(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 2}),
            TaskSpec("b", emit, {"value": 3}),
            TaskSpec("sum", total, deps=("a", "b"), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert report.ok
        assert report.counts == {"done": 3}
        spans = {s.name: s for s in report.spans}
        assert spans["sum"].start >= max(spans["a"].end, spans["b"].end) - 1e-6

    def test_priorities_order_the_frontier(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("low", emit, {"value": 1}, priority=0),
            TaskSpec("high", emit, {"value": 2}, priority=10),
        ])
        store = ResultStore(str(tmp_path))
        lines = []
        report = run_campaign(camp, store, jobs=1, progress=lines.append)
        assert report.ok
        # Lines look like "[1/2] done high (0.01s, worker 1)".
        done_order = [l.split()[2] for l in lines if l.split()[1] == "done"]
        assert done_order.index("high") < done_order.index("low")

    def test_failure_skips_transitive_dependents(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("ok", emit, {"value": 1}),
            TaskSpec("bad", boom),
            TaskSpec("child", emit, {"value": 2}, deps=("bad",)),
            TaskSpec("grandchild", total, deps=("child",), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert not report.ok
        spans = {s.name: s for s in report.spans}
        assert spans["ok"].status == "done"
        assert spans["bad"].status == "failed"
        assert "ValueError: task exploded" in spans["bad"].error
        assert spans["child"].status == "skipped"
        assert "blocked by bad" in spans["child"].error
        assert spans["grandchild"].status == "skipped"
        rendered = report.render()
        assert "failed: bad" in rendered
        assert "skipped: grandchild" in rendered

    def test_retries_recover_a_flaky_task(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("flaky", flaky, {"marker_dir": str(tmp_path)}, retries=2),
        ])
        store = ResultStore(str(tmp_path / "store"))
        report = run_campaign(camp, store, jobs=1)
        assert report.ok
        span = report.spans[0]
        assert span.attempts == 2
        assert run_count(str(tmp_path), "flaky") == 2

    def test_retries_exhausted_fails(self, tmp_path):
        camp = Campaign("c", [TaskSpec("bad", boom, retries=1)])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert report.spans[0].status == "failed"
        assert report.spans[0].attempts == 2

    def test_inline_failure_marks_failed(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("bad", lambda results: 1 / 0, inline=True),
        ])
        store = ResultStore(str(tmp_path))
        report = run_campaign(camp, store, jobs=1)
        assert report.spans[0].status == "failed"
        assert "ZeroDivisionError" in report.spans[0].error


class TestResume:
    def test_second_run_serves_from_store_without_executing(self, tmp_path):
        marker = str(tmp_path / "markers")
        os.makedirs(marker)
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1, "marker_dir": marker, "name": "a"}),
            TaskSpec("b", emit, {"value": 2, "marker_dir": marker, "name": "b"}),
            TaskSpec("sum", total, deps=("a", "b"), inline=True),
        ])
        store = ResultStore(str(tmp_path / "store"))
        first = run_campaign(camp, store, jobs=1)
        assert first.ok and first.counts == {"done": 3}
        second = run_campaign(camp, store, jobs=1)
        assert second.ok
        # Point tasks cached; the inline aggregation is recomputed.
        assert second.counts == {"cached": 2, "done": 1}
        assert run_count(marker, "a") == 1  # never re-executed
        assert run_count(marker, "b") == 1

    def test_partial_store_runs_only_missing_tasks(self, tmp_path):
        marker = str(tmp_path / "markers")
        os.makedirs(marker)
        tasks = [
            TaskSpec(n, emit, {"value": i, "marker_dir": marker, "name": n})
            for i, n in enumerate(("a", "b", "c"))
        ]
        camp = Campaign("c", tasks)
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(camp, store, jobs=1)
        # Simulate a killed campaign: drop one outcome from the store.
        dropped = store.key_for(emit, tasks[1].kwargs)
        os.unlink(store.path_for(dropped))
        report = run_campaign(camp, store, jobs=1)
        assert report.ok
        assert report.counts == {"cached": 2, "done": 1}
        assert run_count(marker, "a") == 1
        assert run_count(marker, "b") == 2  # only the dropped task re-ran
        assert run_count(marker, "c") == 1

    def test_campaign_status_tracks_the_store(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("sum", total, deps=("a",), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        assert campaign_status(camp, store) == [("a", "pending"), ("sum", "inline")]
        run_campaign(camp, store, jobs=1)
        assert campaign_status(camp, store) == [("a", "done"), ("sum", "inline")]


class TestCancel:
    def test_keyboard_interrupt_cancels_cleanly(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("b", emit, {"value": 2}, deps=("a",)),
            TaskSpec("c", emit, {"value": 3}, deps=("b",)),
        ])
        store = ResultStore(str(tmp_path))

        calls = []

        def interrupt_after_first(line):
            calls.append(line)
            if " done " in f" {line} ":
                raise KeyboardInterrupt

        report = run_campaign(camp, store, jobs=1, progress=interrupt_after_first)
        assert report.cancelled
        assert not report.ok
        statuses = {s.name: s.status for s in report.spans}
        assert statuses["a"] == "done"
        assert "pending" in (statuses["b"], statuses["c"])
        # What completed before the interrupt is resumable from the store.
        resumed = run_campaign(camp, store, jobs=1)
        assert resumed.ok
        assert resumed.counts["cached"] >= 1

    def test_cancelled_runs_leftovers_are_not_credited_to_the_next_run(
        self, tmp_path
    ):
        """Regression: both runs keyed pool tasks by the bare task name, so
        the cancelled run's still-running ``x`` completed as the next
        run's ``x`` on the shared pool, and its outcome was stored under
        the next run's content key."""
        from repro.sched.pool import WorkerPool

        store = ResultStore(str(tmp_path))
        first = Campaign("a", [
            TaskSpec("fast", emit, {"value": 0}),
            TaskSpec("x", sleepy, {"seconds": 0.5, "value": 1}),
        ])
        second = Campaign("b", [TaskSpec("x", sleepy, {"seconds": 1.0, "value": 2})])

        def interrupt_after_fast(line):
            if " done fast " in f" {line} ":
                raise KeyboardInterrupt

        with WorkerPool(jobs=2) as pool:
            cancelled = run_campaign(
                first, store, pool=pool, progress=interrupt_after_fast
            )
            assert cancelled.cancelled
            assert {s.name: s.status for s in cancelled.spans}["x"] == "pending"
            report = run_campaign(second, store, pool=pool)
        assert report.ok
        [span] = report.spans
        assert span.end - span.start >= 1.0
        key = store.key_for(sleepy, {"seconds": 1.0, "value": 2})
        assert store.get_outcome(key)["value"] == 2

    def test_exception_exit_still_writes_final_snapshot(self, tmp_path):
        """Regression: a callback raising out of the event loop used to
        skip ``SnapshotWriter.close()``, losing the final snapshot and
        leaving the metrics registry enabled for the next caller."""
        from repro.obs.metrics import REGISTRY
        from repro.obs.snapshot import read_snapshots

        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("b", emit, {"value": 2}, deps=("a",)),
        ])
        store = ResultStore(str(tmp_path / "store"))
        metrics = tmp_path / "metrics.jsonl"

        def explode(line):
            raise RuntimeError("observer crashed")

        was_enabled = REGISTRY.enabled
        with pytest.raises(RuntimeError, match="observer crashed"):
            run_campaign(
                camp, store, jobs=1, progress=explode,
                metrics_path=str(metrics), metrics_interval=60.0,
            )
        snapshots = read_snapshots(str(metrics))
        assert snapshots, "final snapshot lost on the exception exit path"
        assert snapshots[-1].final
        assert REGISTRY.enabled == was_enabled

    def test_interrupt_in_resume_pass_still_writes_final_snapshot(self, tmp_path):
        from repro.obs.metrics import REGISTRY
        from repro.obs.snapshot import read_snapshots

        camp = Campaign("c", [TaskSpec("a", emit, {"value": 1})])
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(camp, store, jobs=1)
        metrics = tmp_path / "metrics.jsonl"

        def interrupt_on_cached(line):
            if " cached " in f" {line} ":
                raise KeyboardInterrupt

        was_enabled = REGISTRY.enabled
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                camp, store, jobs=1, progress=interrupt_on_cached,
                metrics_path=str(metrics), metrics_interval=60.0,
            )
        snapshots = read_snapshots(str(metrics))
        assert snapshots and snapshots[-1].final
        assert REGISTRY.enabled == was_enabled


class TestTraceExport:
    def test_trace_file_has_scheduler_lane_events(self, tmp_path):
        camp = Campaign("c", [
            TaskSpec("a", emit, {"value": 1}),
            TaskSpec("bad", boom),
            TaskSpec("sum", total, deps=("a",), inline=True),
        ])
        store = ResultStore(str(tmp_path))
        trace = tmp_path / "trace.json"
        run_campaign(camp, store, jobs=1, trace_path=str(trace))
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)
        assert any(e["ph"] == "X" and e["name"] == "a" for e in events)
        assert any(e["ph"] == "i" and "bad" in e["name"] for e in events)
        from repro.obs.exporters import SCHEDULER_PID

        assert all(e["pid"] == SCHEDULER_PID for e in events)

    def test_traced_run_spans_share_one_trace_id(self, tmp_path):
        # Regression: the standalone run_campaign dispatch path used to
        # read execution.spans[name] (only populated at completion) for
        # the attempts attribute and crashed on every traced dispatch.
        from repro.obs import tracing

        sink = str(tmp_path / "spans.jsonl")
        tracing.TRACER.reset()
        tracing.TRACER.configure(enabled=True, path=sink)
        try:
            camp = Campaign("traced", [
                TaskSpec("a", emit, {"value": 1}),
                TaskSpec("flaky", flaky,
                         {"marker_dir": str(tmp_path)}, retries=1),
            ])
            store = ResultStore(str(tmp_path / "store"))
            report = run_campaign(camp, store, jobs=2)
        finally:
            tracing.TRACER.configure(enabled=False)
            tracing.TRACER.reset()
        assert report.ok
        assert report.trace_id
        spans = tracing.read_trace_file(sink)
        assert {s["trace_id"] for s in spans} == {report.trace_id}
        by_kind = {}
        for span in spans:
            by_kind.setdefault(span["kind"], []).append(span)
        [job] = by_kind["job"]
        tasks = {s["name"]: s for s in by_kind["task"]}
        assert set(tasks) == {"a", "flaky"}
        assert all(s["parent_span_id"] == job["span_id"] for s in tasks.values())
        # The retried task keeps ONE span across both deliveries.
        assert tasks["flaky"]["attrs"]["attempts"] == 2
        assert tasks["flaky"]["status"] == "ok"
        exec_parents = {s["parent_span_id"] for s in by_kind["exec"]}
        assert exec_parents <= {s["span_id"] for s in tasks.values()}

    def test_shared_pool_is_not_shut_down(self, tmp_path):
        from repro.sched.pool import WorkerPool

        camp = Campaign("c", [TaskSpec("a", emit, {"value": 1})])
        store = ResultStore(str(tmp_path))
        with WorkerPool(jobs=1) as pool:
            report = run_campaign(camp, store, pool=pool)
            assert report.ok
            # The pool survives the campaign and still accepts work.
            pool.submit("after", emit, {"value": 9})
            got = []
            while not got:
                got = pool.events(wait=0.5)
            assert got[0].ok

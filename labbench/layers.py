"""Per-layer metrics and the budget table, from one traced run's record.

The record is what :meth:`labbench.hooks.Hooks.dump` writes (or the same
document built in memory): spans, pool completions, store reads, frame
sizes and per-step rows, all stamped with ``perf_counter`` times, which
on Linux are one clock across processes.  Everything is restricted to a
measurement window so warm-up and the closed-loop phase stay out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from labbench.spans import Span, budget_table, self_times, spans_from_rows
from labbench.stats import median

#: Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: Dict[str, str] = {
    "serve.post_us": "us",
    "serve.build_us": "us",
    "tenancy.steps_per_s": "1/s",
    "tenancy.idle_step_share": "ratio",
    "tenancy.step_self_us": "us",
    "tenancy.submit_us": "us",
    "campaign.resume_pass_us": "us",
    "campaign.record_event_us": "us",
    "store.get_us": "us",
    "store.put_us": "us",
    "store.key_us": "us",
    "store.gets_per_job": "count",
    "store.puts_per_job": "count",
    "store.hit_ratio": "ratio",
    "pool.overhead_us": "us",
    "pool.respawns_per_1k": "count",
    "net.overhead_us": "us",
    "net.frame_bytes_per_task": "bytes",
    "net.requeues": "count",
    "exec.total_s": "s",
    "exec.task_ms_p50": "ms",
    "exec.longpole_s": "s",
    "exec.busy_share": "ratio",
    "obs.snapshot_us": "us",
    "obs.snapshots_per_job": "count",
    "trace.overhead_pct": "%",
    "server.idle_cpu_per_s": "s/s",
    "loadgen.late_p90_ms": "ms",
}

#: Budget rows: label -> span name whose self time the row sums.
_BUDGET_SPANS: Sequence[Tuple[str, str]] = (
    ("serve.submit (self)", "serve.submit"),
    ("serve.build", "serve.build"),
    ("tenancy.submit (self)", "tenancy.submit"),
    ("campaign.resume_pass (self)", "campaign.resume_pass"),
    ("store.key", "store.key"),
    ("store.get", "store.get"),
    ("store.put", "store.put"),
    ("campaign.record_event (self)", "campaign.record_event"),
    ("pool.submit", "pool.submit"),
    ("pool.events (transport + wait)", "pool.events"),
    ("net.submit", "net.submit"),
    ("net.events (transport + wait)", "net.events"),
    ("obs.snapshot", "obs.snapshot"),
)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def dispatch_overheads(events: Sequence[Sequence[Any]], layer: str) -> List[float]:
    """Per-task ``L``: submit→event minus worker wall time, queue wait removed.

    A task queued behind another on the same worker could not start before
    that worker's previous completion was collected, so its start is the
    later of its submit and that completion.
    """
    last_done: Dict[Any, float] = {}
    out = []
    for t_event, t_submit, _key, status, worker, wall, lay in sorted(
        events, key=lambda row: row[0]
    ):
        if lay != layer:
            continue
        if t_submit is not None and status == "ok":
            start = max(t_submit, last_done.get(worker, t_submit))
            out.append(t_event - start - wall)
        last_done[worker] = t_event
    return out


class Record:
    """One traced run's record, cut to the window ``[t0, t1]``."""

    def __init__(self, doc: Dict[str, Any], t0: float, t1: float) -> None:
        self.t0, self.t1 = t0, t1
        inside = lambda t: t0 <= t <= t1  # noqa: E731
        all_spans = spans_from_rows(doc["spans"])
        own = self_times(all_spans)
        self.spans: List[Span] = [s for s in all_spans if inside(s.start)]
        self.self_time = {s.id: own[s.id] for s in self.spans}
        self.events = [e for e in doc["events"] if inside(e[0])]
        self.gets = [g for g in doc["gets"] if inside(g[0])]
        self.frame_bytes = [f[1] for f in doc["frame_bytes"] if inside(f[0])]
        starts, durations, waits, selfs, n_events, changed = doc["steps"]
        self.steps = [
            (d, w, s, e, c)
            for t, d, w, s, e, c in zip(starts, durations, waits, selfs, n_events, changed)
            if inside(t)
        ]
        self.pool_stats: List[Dict[str, int]] = doc["pool_stats"]

    @property
    def seconds(self) -> float:
        return max(1e-9, self.t1 - self.t0)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s.id] for s in self.spans if s.name == name)

    def submit_durations(self) -> Dict[str, float]:
        return {s.job: s.duration for s in self.spans if s.name == "serve.submit" and s.job}

    def exec_walls(self) -> List[float]:
        return [e[5] for e in self.events if e[3] == "ok"]

    def layer_metrics(
        self,
        jobs: int,
        post_round_trips: Dict[str, float],
        workers: int,
    ) -> Dict[str, float]:
        """Every per-layer metric the record can give (see PER_LAYER_UNITS)."""
        us = lambda xs: 1e6 * _mean(xs)  # noqa: E731
        jobs = max(1, jobs)
        submits = self.submit_durations()
        post = [rt - submits[j] for j, rt in post_round_trips.items() if j in submits]
        walls = self.exec_walls()
        hits = sum(g[1] for g in self.gets)
        pipe = [s for s in self.pool_stats if s["layer"] == "pool"]
        spawned = sum(s["workers_spawned"] for s in pipe)
        completed = sum(s["tasks_completed"] for s in pipe)
        return {
            "serve.post_us": us(post),
            "serve.build_us": us(self.durations("serve.build")),
            "tenancy.steps_per_s": len(self.steps) / self.seconds,
            "tenancy.idle_step_share": (
                sum(1 for st in self.steps if st[3] == 0 and st[4] == 0) / len(self.steps)
                if self.steps else 0.0
            ),
            "tenancy.step_self_us": us([st[0] - st[1] for st in self.steps]),
            "tenancy.submit_us": us(self.durations("tenancy.submit")),
            "campaign.resume_pass_us": us(self.durations("campaign.resume_pass")),
            "campaign.record_event_us": us(self.durations("campaign.record_event")),
            "store.get_us": us(self.durations("store.get")),
            "store.put_us": us(self.durations("store.put")),
            "store.key_us": us(self.durations("store.key")),
            "store.gets_per_job": len(self.gets) / jobs,
            "store.puts_per_job": len(self.durations("store.put")) / jobs,
            "store.hit_ratio": hits / len(self.gets) if self.gets else 0.0,
            "pool.overhead_us": us(dispatch_overheads(self.events, "pool")),
            "pool.respawns_per_1k": (
                1000.0 * max(0, spawned - workers) / completed if completed else 0.0
            ),
            "net.overhead_us": us(dispatch_overheads(self.events, "net")),
            "net.frame_bytes_per_task": _mean(self.frame_bytes),
            "net.requeues": float(sum(
                s["requeues"] for s in self.pool_stats if s["layer"] == "net"
            )),
            "exec.total_s": sum(walls),
            "exec.task_ms_p50": 1e3 * median(walls) if walls else 0.0,
            "exec.longpole_s": max(walls) if walls else 0.0,
            "exec.busy_share": sum(walls) / (workers * self.seconds),
            "obs.snapshot_us": us(self.durations("obs.snapshot")),
            "obs.snapshots_per_job": len(self.durations("obs.snapshot")) / jobs,
        }

    def budget(
        self, title: str, unit: str, units: int, measured_s: float,
        post_round_trips: Optional[Dict[str, float]] = None,
    ) -> str:
        """The budget table: each layer's self time per ``unit``, then the rest."""
        rows: List[Tuple[str, float]] = []
        if post_round_trips:
            submits = self.submit_durations()
            rows.append((
                "serve.http (POST minus submit)",
                sum(rt - submits[j] for j, rt in post_round_trips.items() if j in submits),
            ))
        for label, name in _BUDGET_SPANS:
            total = self.self_total(name)
            if total:
                rows.append((label, total))
        # A step's own time is its duration minus every wrapped call inside
        # it.  Steps that collected nothing and changed no job are the idle
        # loop spinning; that time is on no job's path, so it is only noted.
        busy = [st for st in self.steps if st[3] or st[4]]
        if busy:
            rows.append(("tenancy.step (self, busy steps)", sum(st[2] for st in busy)))
        rows.append(("exec (worker wall time)", sum(self.exec_walls())))
        table = budget_table(title, unit, units, measured_s, rows)
        idle = [st for st in self.steps if not (st[3] or st[4])]
        if idle:
            table += (f"\n  idle steps: {len(idle)} taking {sum(st[0] for st in idle):.3f} s"
                      " of the scheduler thread (not on any job's path)")
        return table + (
            "\n  rows overlap where work runs in parallel (two workers, HTTP and"
            "\n  scheduler threads), so the unattributed remainder can be negative"
        )

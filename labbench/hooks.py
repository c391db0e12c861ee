"""Spans around the program's public calls, installed from outside.

:func:`install` replaces a fixed list of public methods with wrappers
that record a span per call into a :class:`~labbench.spans.SpanRecorder`
and a few counts the spans cannot carry.  Nothing in the program is
edited; the wrappers call the original methods unchanged.  The
program's own tracing (``REPRO_TRACE``) stays off.

Wrapped calls, by layer:

* ``repro.serve`` — ``CampaignService.submit``, ``CampaignEntry.build``
* ``repro.sched.tenancy`` — ``FairShareMultiplexer.submit`` and ``.step``
* ``repro.sched.campaign`` — ``CampaignExecution`` construction (the
  resume pass) and ``.record_event``
* ``repro.sched.store`` — ``ResultStore.get``, ``.put``, ``.key_for``
* ``repro.sched.pool`` / ``repro.sched.net`` — ``WorkerPool`` and
  ``RemoteWorkerPool`` ``submit`` and ``events``
* ``repro.obs`` — ``MetricsSnapshot.capture``

The multiplexer's scheduler loop can call ``step`` tens of thousands of
times a second while idle, so steps are kept as compact per-step rows
(start, time outside ``events``, events collected, jobs changed) and
become spans only when something was called inside them.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from labbench.spans import SpanRecorder


class Hooks:
    """The recorder plus the per-call facts the spans do not carry."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        #: One row per pool completion:
        #: [t_event, t_submit or None, key, status, worker, wall, layer].
        self.events: List[List[Any]] = []
        #: Pool key -> perf_counter time of its latest submit.
        self.submitted: Dict[str, float] = {}
        #: Store reads: [t, hit(0/1)].
        self.gets: List[List[float]] = []
        #: Computed frame bytes per task: task frame + reply frame.
        self.frame_bytes: List[List[float]] = []
        #: Step rows: start, duration, seconds inside events(), seconds
        #: outside every wrapped call, events collected, jobs changed.
        self.steps = tuple(array(code) for code in "ddddll")
        #: (layer, pool) for every pool that saw a submit.
        self.pools: List[Tuple[str, Any]] = []
        #: Pool key -> computed task-frame bytes, until its completion.
        self.task_bytes: Dict[str, int] = {}

    # -- wrapping -----------------------------------------------------------

    def span_call(self, name: str, fn: Callable, job_of: Optional[Callable] = None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
                if job_of is not None:
                    span.job = job_of(result)
                return result
            finally:
                rec.close(span)

        return wrapper

    def document(self) -> Dict[str, Any]:
        """Everything recorded, as one JSON-ready document."""
        spans = [
            [s.id, s.name, s.start, s.end, s.parent, s.job] for s in self.rec.spans
        ]
        return {
            "spans": spans,
            "events": self.events,
            "gets": self.gets,
            "frame_bytes": self.frame_bytes,
            "steps": [list(column) for column in self.steps],
            "pool_stats": [dict(pool.stats, layer=layer) for layer, pool in self.pools],
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(), fh)


def install() -> Hooks:
    """Wrap the public calls listed in the module docstring; returns the hooks."""
    from repro.obs.snapshot import MetricsSnapshot
    from repro.sched.campaign import CampaignExecution
    from repro.sched.net.frames import encode_frame
    from repro.sched.net.pool import RemoteWorkerPool
    from repro.sched.pool import WorkerPool
    from repro.sched.store import ResultStore
    from repro.sched.tenancy import FairShareMultiplexer
    from repro.serve.registry import CampaignEntry
    from repro.serve.service import CampaignService

    hooks = Hooks()
    rec = hooks.rec

    CampaignService.submit = hooks.span_call(
        "serve.submit", CampaignService.submit, job_of=lambda job: job.id
    )
    CampaignEntry.build = hooks.span_call("serve.build", CampaignEntry.build)
    FairShareMultiplexer.submit = hooks.span_call(
        "tenancy.submit", FairShareMultiplexer.submit, job_of=lambda job: job.id
    )
    CampaignExecution.__init__ = hooks.span_call(
        "campaign.resume_pass", CampaignExecution.__init__
    )
    CampaignExecution.record_event = hooks.span_call(
        "campaign.record_event", CampaignExecution.record_event
    )
    ResultStore.put = hooks.span_call("store.put", ResultStore.put)
    ResultStore.key_for = hooks.span_call("store.key", ResultStore.key_for)
    capture = MetricsSnapshot.capture.__func__
    MetricsSnapshot.capture = classmethod(hooks.span_call("obs.snapshot", capture))

    original_get = ResultStore.get

    @functools.wraps(original_get)
    def get(self, key):
        span = rec.open("store.get")
        try:
            entry = original_get(self, key)
        finally:
            rec.close(span)
        hooks.gets.append([span.start, 0 if entry is None else 1])
        return entry

    ResultStore.get = get

    original_step = FairShareMultiplexer.step
    #: Seconds spent inside events() so far (scheduler thread only).
    hooks_waited = [0.0]

    @functools.wraps(original_step)
    def step(self, wait: float = 0.2):
        span = rec.open("tenancy.step")
        n_before = len(hooks.events)
        waited_before = hooks_waited[0]
        try:
            changed = original_step(self, wait=wait)
        finally:
            span.end = time.perf_counter()
            rec.pop(span)
        row = (
            span.start, span.duration, hooks_waited[0] - waited_before,
            span.duration - span.child_s, len(hooks.events) - n_before, len(changed),
        )
        for column, value in zip(hooks.steps, row):
            column.append(value)
        if span.kids:
            rec.keep(span)
        return changed

    FairShareMultiplexer.step = step

    for pool_cls, layer in ((WorkerPool, "pool"), (RemoteWorkerPool, "net")):
        _wrap_pool(hooks, pool_cls, layer, encode_frame, hooks_waited)
    return hooks


def _wrap_pool(hooks: Hooks, pool_cls, layer: str, encode_frame, waited) -> None:
    rec = hooks.rec
    original_submit = pool_cls.submit
    original_events = pool_cls.events

    @functools.wraps(original_submit)
    def submit(self, key, fn, kwargs=None, timeout=None, trace=None):
        if not any(pool is self for _, pool in hooks.pools):
            hooks.pools.append((layer, self))
        span = rec.open(f"{layer}.submit")
        try:
            return original_submit(self, key, fn, kwargs, timeout=timeout, trace=trace)
        finally:
            rec.close(span)
            hooks.submitted[key] = span.start
            hooks.task_bytes[key] = len(encode_frame(("task", key, fn, kwargs or {})))

    @functools.wraps(original_events)
    def events(self, wait: float = 0.5):
        span = rec.open(f"{layer}.events")
        try:
            out = original_events(self, wait=wait)
        finally:
            rec.close(span)
            waited[0] += span.duration
        now = span.end
        for ev in out:
            hooks.events.append([
                now, hooks.submitted.pop(ev.key, None), ev.key, ev.status,
                ev.worker_id, ev.wall_time, layer,
            ])
            task_bytes = hooks.task_bytes.pop(ev.key, None)
            if task_bytes is not None and ev.ok:
                reply = len(encode_frame((ev.status, ev.key, ev.payload, ev.wall_time)))
                hooks.frame_bytes.append([now, task_bytes + reply])
        return out

    pool_cls.submit = submit
    pool_cls.events = events


"""Multi-tenant fair-share multiplexing of campaigns onto one warm pool.

:class:`FairShareMultiplexer` is the one campaign driver: it steps
:class:`~repro.sched.campaign.CampaignExecution` state machines on a
:class:`~repro.sched.pool.WorkerPool` (or a
:class:`~repro.sched.net.pool.RemoteWorkerPool`) and persists outcomes to
one content-addressed :class:`~repro.sched.store.ResultStore`.  A
long-running service (``python -m repro serve``) feeds it many tenants'
campaigns concurrently; :func:`repro.sched.campaign.run_campaign` is the
single-tenant case — it submits one campaign and steps the multiplexer
until that job is terminal.  The scheduling layer:

* **Per-tenant queues** — each tenant owns a FIFO of jobs (a job = one
  submitted :class:`~repro.sched.campaign.Campaign` wrapped in a
  :class:`~repro.sched.campaign.CampaignExecution`).  Admission and
  dispatch never look at a global job list, only at per-tenant state.
* **Fair-share dispatch** — free pool slots are handed out round-robin
  *across tenants*, one task per turn, so a tenant with a 10 000-task
  campaign and a tenant with a 4-task campaign both keep their frontier
  moving.  Within a tenant, jobs run oldest-first and tasks highest-
  priority-first.
* **Quotas** (:class:`TenantQuota`) — per-tenant caps on concurrent
  jobs, on tasks in flight on the pool, and on submitted campaign size.
  A submission over quota raises :class:`QuotaExceeded`, which the HTTP
  layer maps to a ``429``-style contract error.
* **Pool admission** — the global ``max_in_flight`` backpressure bound
  (default ``2 * pool.jobs``) applies across all tenants, so a burst of
  submissions queues in the scheduler rather than materialising as
  pickles in the pool.
* **Live cross-tenant dedup** — the store already dedups *completed*
  work (identical task specs share one SHA-256 object).  The multiplexer
  extends that to *in-flight* work: a task whose content key is already
  executing for another job waits for that execution instead of running
  twice, and completes as ``"cached"`` when the owner stores the result.
  If the owner fails, waiters are requeued to execute it themselves.
* **Cancellation** — cancelling a job stops dispatching its tasks and
  lets in-flight ones drain *into the store* (an abandoned result is
  still a resume hit), then classifies the rest ``pending``.
  :meth:`~FairShareMultiplexer.shutdown` instead finishes every live job
  at once, abandoning its in-flight tasks (what a Ctrl-C'd
  ``run_campaign`` does).  Resubmitting the same campaign resumes from
  whatever reached the store.

The multiplexer is single-threaded by design: all pool interaction
happens inside :meth:`FairShareMultiplexer.step`, which one scheduler
thread calls in a loop.  Submissions and cancellations may arrive from
other threads (HTTP handlers); a lock guards the shared job tables, and
the blocking ``pool.events`` wait happens outside it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sched.campaign import Campaign, CampaignExecution, PoolEvent, TaskSpan
from repro.sched.pool import WorkerPool
from repro.sched.store import ResultStore
from repro.util.clock import wallclock

__all__ = [
    "TenantQuota",
    "QuotaExceeded",
    "JobRecord",
    "FairShareMultiplexer",
    "JOB_STATES",
]

#: Every state a job can report, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States from which a job can never move again.
_TERMINAL = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission and fair-share limits.

    ``max_jobs`` bounds a tenant's concurrent non-terminal jobs (queued +
    running); ``max_tasks_in_flight`` bounds how many of the pool's slots
    one tenant may hold at once (``None`` means up to the whole pool —
    fair-share round-robin still prevents starvation, the cap just makes
    the guarantee hard); ``max_tasks_per_job`` rejects oversized
    campaigns at submission.
    """

    max_jobs: int = 4
    max_tasks_in_flight: Optional[int] = None
    max_tasks_per_job: int = 4096

    def __post_init__(self) -> None:
        if self.max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {self.max_jobs}")
        if self.max_tasks_in_flight is not None and self.max_tasks_in_flight < 1:
            raise ValueError(
                f"max_tasks_in_flight must be >= 1 or None, "
                f"got {self.max_tasks_in_flight}"
            )
        if self.max_tasks_per_job < 1:
            raise ValueError(
                f"max_tasks_per_job must be >= 1, got {self.max_tasks_per_job}"
            )


class QuotaExceeded(RuntimeError):
    """A submission was rejected by a :class:`TenantQuota` limit.

    ``code`` is a stable machine-readable reason (``"quota_jobs"`` or
    ``"quota_tasks"``) the service maps onto the ``repro.serve/1`` error
    contract.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class JobRecord:
    """One submitted campaign and its execution state.

    ``state`` walks :data:`JOB_STATES`; timestamps are epoch seconds
    (0.0 until reached).  ``spans`` is filled by :meth:`finish` once the
    job reaches a terminal state.
    """

    id: str
    tenant: str
    campaign: Campaign
    execution: CampaignExecution
    state: str = "queued"
    # wallclock(), not time.time(): job timestamps feed duration math in
    # views and snapshots, and a wall-clock step mid-job must not make a
    # duration negative (or mask a stall).  See repro/util/clock.py.
    created: float = field(default_factory=wallclock)
    started: float = 0.0
    finished: float = 0.0
    error: Optional[str] = None
    #: Distributed-trace id linking this job's spans (None when tracing
    #: is off).  Parented on the HTTP request span when one was active.
    trace_id: Optional[str] = None
    spans: Tuple[TaskSpan, ...] = ()
    #: Pool task names currently executing (or parked on a dedup wait).
    waiting_on: Dict[str, str] = field(default_factory=dict)  # task -> owner key

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def counts(self) -> Dict[str, int]:
        """Per-status task counts: frozen spans when terminal, live otherwise.

        A live job also reports ``running`` (on the pool or parked on a
        dedup wait) and ``pending`` (not yet dispatched), so the sum
        always equals the campaign size.
        """
        if self.spans:
            out: Dict[str, int] = {}
            for span in self.spans:
                out[span.status] = out.get(span.status, 0) + 1
            return out
        out = dict(self.execution.counts)
        running = len(self.execution.in_flight)
        if running:
            out["running"] = running
        remaining = len(self.campaign.tasks) - sum(out.values())
        if remaining > 0:
            out["pending"] = remaining
        return out


class FairShareMultiplexer:
    """Run many tenants' campaigns concurrently on one pool + store.

    Parameters
    ----------
    store:
        The shared content-addressed store — the dedup substrate.
    pool:
        An existing pool to multiplex onto (not shut down by
        :meth:`shutdown`); otherwise one is created with ``jobs`` workers.
    quota:
        The per-tenant :class:`TenantQuota` (one policy for all tenants).
    max_in_flight:
        Global pool admission bound; default ``2 * pool.jobs``.
    progress:
        Optional sink called as ``progress(job_id, line)`` for every task
        progress line of every job (``serve`` prints them as
        ``"job-id: line"``; ``run_campaign`` prints the bare line).
    """

    def __init__(
        self,
        store: ResultStore,
        pool: Optional[WorkerPool] = None,
        jobs: Optional[int] = None,
        quota: Optional[TenantQuota] = None,
        max_in_flight: Optional[int] = None,
        progress: Optional[Any] = None,
    ) -> None:
        self.store = store
        self._owns_pool = pool is None
        self.pool = WorkerPool(jobs=jobs) if pool is None else pool
        self.quota = quota if quota is not None else TenantQuota()
        self.max_in_flight = (
            2 * self.pool.jobs if max_in_flight is None else int(max_in_flight)
        )
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self._progress = progress
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}  # insertion-ordered
        self._job_seq = itertools.count(1)
        #: Round-robin cursor over tenant names for fair-share dispatch.
        self._rr_cursor = 0
        #: content key -> (job id, task name) currently executing it.
        self._inflight_keys: Dict[str, Tuple[str, str]] = {}
        #: content key -> [(job id, task name), ...] parked on it.
        self._waiters: Dict[str, List[Tuple[str, str]]] = {}
        #: tenant -> pool tasks currently held (dedup waits excluded).
        self._tenant_inflight: Dict[str, int] = {}
        #: Jobs that reached a terminal state since the last step() drain.
        self._newly_finished: List[JobRecord] = []
        #: job id -> live "job" span; (job id, task) -> live "task" span.
        #: Task spans survive retries (one span per task, attempts noted
        #: as an attribute) and are finished in _collect/_finish.
        self._job_spans: Dict[str, Any] = {}
        self._task_spans: Dict[Tuple[str, str], Any] = {}
        self._closed = False

    # -- submission side (any thread) ---------------------------------------

    def submit(
        self,
        tenant: str,
        campaign: Campaign,
        job_id: Optional[str] = None,
        parent: Optional["_tracing.SpanContext"] = None,
    ) -> JobRecord:
        """Admit ``campaign`` for ``tenant``; raises :class:`QuotaExceeded`.

        The job starts ``queued``; the scheduler loop activates it (which
        runs the store resume pass) on its next :meth:`step`.  On traced
        runs a ``job`` span opens here — parented on ``parent`` (the HTTP
        request span, typically) — and closes when the job goes terminal;
        its duration is the end-to-end SLO sample.
        """
        if len(campaign.tasks) > self.quota.max_tasks_per_job:
            raise QuotaExceeded(
                "quota_tasks",
                f"campaign has {len(campaign.tasks)} tasks; tenant limit is "
                f"{self.quota.max_tasks_per_job} per job",
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("multiplexer is shut down")
            active = sum(
                1 for j in self._jobs.values()
                if j.tenant == tenant and not j.terminal
            )
            if active >= self.quota.max_jobs:
                raise QuotaExceeded(
                    "quota_jobs",
                    f"tenant {tenant!r} already has {active} active job(s); "
                    f"limit is {self.quota.max_jobs}",
                )
            if job_id is None:
                job_id = f"job-{next(self._job_seq):04d}"
            if job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
            execution = CampaignExecution(
                campaign,
                self.store,
                progress=self._job_progress(job_id),
                labels={"tenant": tenant},
            )
            job = JobRecord(job_id, tenant, campaign, execution)
            if _tracing.TRACER.enabled:
                span = _tracing.TRACER.start_span(
                    f"job:{job_id}", kind="job", parent=parent,
                    attrs={
                        "job": job_id,
                        "tenant": tenant,
                        "campaign": campaign.name,
                        "tasks": len(campaign.tasks),
                    },
                )
                if span is not None:
                    self._job_spans[job_id] = span
                    job.trace_id = span.trace_id
                    execution.trace_id = span.trace_id
            self._jobs[job_id] = job
            if _metrics.REGISTRY.enabled:
                _metrics.REGISTRY.counter(
                    "repro_serve_jobs_total", "job submissions by tenant"
                ).inc(tenant=tenant)
            return job

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Stop dispatching ``job_id``'s tasks; returns the job (or None).

        In-flight tasks drain into the store (resume hits for a
        resubmission); a job with nothing in flight goes terminal
        immediately.  Cancelling a terminal job is a no-op.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return job
            if job.state == "queued" or not job.execution.in_flight:
                self._finish(job, "cancelled")
            else:
                job.state = "cancelled"  # drains in _collect, finishes there
            return job

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            return [
                j for j in self._jobs.values()
                if tenant is None or j.tenant == tenant
            ]

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted({j.tenant for j in self._jobs.values()})

    @property
    def active(self) -> bool:
        """True while any job is non-terminal."""
        with self._lock:
            return any(not j.terminal for j in self._jobs.values())

    # -- scheduler loop (one thread) ----------------------------------------

    def step(self, wait: float = 0.2) -> List[JobRecord]:
        """One scheduling iteration; returns jobs whose state changed.

        Activates queued jobs, dispatches fair-share, waits up to
        ``wait`` seconds for pool completions, folds them in, and
        finishes drained jobs.  Call in a loop from a single thread.
        """
        changed: List[JobRecord] = []
        with self._lock:
            self._activate(changed)
            self._dispatch()
            busy = self.pool.in_flight > 0
        # The blocking wait happens outside the lock so submissions and
        # cancellations from HTTP threads never stall behind it.  Pools
        # that ask to be polled while idle (RemoteWorkerPool: accepting
        # registrations, heartbeating) are polled regardless of load.
        if busy or getattr(self.pool, "needs_poll", False):
            events = self.pool.events(wait=wait)
        else:
            events = []
        with self._lock:
            self._collect(events)
            self._dispatch()  # completions freed slots and unlocked deps
            self._update_gauges()
            changed.extend(self._newly_finished)
            self._newly_finished = []
        return changed

    def shutdown(self) -> None:
        """Stop the pool (if owned); queued/running jobs stay resumable."""
        with self._lock:
            self._closed = True
            for job in self._jobs.values():
                if not job.terminal:
                    self._finish(job, "cancelled")
        if self._owns_pool:
            self.pool.shutdown()

    # -- internals (lock held) ----------------------------------------------

    def _job_progress(self, job_id: str):
        if self._progress is None:
            return None
        return functools.partial(self._progress, job_id)

    def _activate(self, changed: List[JobRecord]) -> None:
        """Move queued jobs to running (their resume pass ran at submit)."""
        for job in self._jobs.values():
            if job.state != "queued":
                continue
            job.state = "running"
            job.started = wallclock()
            changed.append(job)
            if not job.execution.has_pending:
                # Fully served by the resume pass (or an empty campaign).
                self._finish(job, None)

    def _tenant_cap(self) -> int:
        cap = self.quota.max_tasks_in_flight
        return cap if cap is not None else self.max_in_flight

    def _dispatch(self) -> None:
        """Fair-share: hand free slots round-robin across tenants."""
        tenants = sorted({
            j.tenant for j in self._jobs.values() if j.state == "running"
        })
        if not tenants:
            return
        cap = self._tenant_cap()
        stalled: set = set()
        while self.pool.in_flight < self.max_in_flight and len(stalled) < len(tenants):
            tenant = tenants[self._rr_cursor % len(tenants)]
            self._rr_cursor += 1
            if tenant in stalled:
                continue
            if self._tenant_inflight.get(tenant, 0) >= cap:
                stalled.add(tenant)
                continue
            if not self._dispatch_one(tenant):
                stalled.add(tenant)

    def _dispatch_one(self, tenant: str) -> bool:
        """Dispatch one task for ``tenant`` (oldest job first); False if none.

        Inline tasks run immediately in the scheduler process and do not
        consume the pool slot this turn.
        """
        for job in self._jobs.values():
            if job.tenant != tenant or job.state != "running":
                continue
            ex = job.execution
            name = ex.pop_ready()
            if name is None:
                if not ex.has_pending:
                    self._finish(job, None)
                continue
            if ex.tasks[name].inline:
                self._open_task_span(job, name, inline=True)
                ok = ex.run_inline(name)
                self._close_task_span(job, name, "ok" if ok else "error")
                if not ex.has_pending:
                    self._finish(job, None)
                return True
            key = ex.keys[name]
            # Sequential dedup: another job may have stored this key after
            # this job's resume pass already ran.
            stored = self.store.get_outcome(key)
            if stored is not None:
                ex.start(name)
                ex.complete_cached(name, stored)
                if not ex.has_pending:
                    self._finish(job, None)
                return True
            # Live dedup: the key is already executing for another job —
            # park this task on it instead of running the work twice.
            owner = self._inflight_keys.get(key)
            if owner is not None and owner != (job.id, name):
                ex.start(name)
                job.waiting_on[name] = key
                self._waiters.setdefault(key, []).append((job.id, name))
                if _metrics.REGISTRY.enabled:
                    _metrics.REGISTRY.counter(
                        "repro_serve_dedup_waits_total",
                        "tasks parked on another job's in-flight key",
                    ).inc(tenant=tenant)
                return True
            spec = ex.start(name)
            self._inflight_keys[key] = (job.id, name)
            self.pool.submit(
                f"{job.id}/{name}", spec.fn, spec.kwargs, timeout=spec.timeout,
                trace=self._task_trace(job, name),
            )
            self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
            return True
        return False

    def _collect(self, events) -> None:
        for event in events:
            job_id, _, name = event.key.partition("/")
            job = self._jobs.get(job_id)
            if job is None or name not in (job.execution.tasks if job else ()):
                continue  # a shared pool's stale leftovers
            self._tenant_inflight[job.tenant] = max(
                0, self._tenant_inflight.get(job.tenant, 0) - 1
            )
            key = job.execution.keys[name]
            if job.state == "cancelled":
                # Drain: store a successful result (a future resume hit),
                # drop everything else, and release any dedup waiters.
                if event.ok and isinstance(event.payload, Mapping):
                    self.store.put(
                        key, dict(event.payload),
                        spec=job.execution.tasks[name].spec_dict(),
                    )
                    self._resolve_waiters(key, dict(event.payload))
                else:
                    self._requeue_waiters(key)
                job.execution.abandon(name)
                self._close_task_span(job, name, "cancelled")
                self._inflight_keys.pop(key, None)
                if not job.execution.in_flight:
                    self._finish(job, "cancelled")
                continue
            scoped = PoolEvent(
                name, event.status, event.payload, event.worker_id, event.wall_time
            )
            action = job.execution.record_event(scoped)
            if action == "retry":
                spec = job.execution.start(name)
                self.pool.submit(
                    f"{job.id}/{name}", spec.fn, spec.kwargs, timeout=spec.timeout,
                    trace=self._task_trace(job, name),
                )
                self._tenant_inflight[job.tenant] = (
                    self._tenant_inflight.get(job.tenant, 0) + 1
                )
                continue  # key stays in flight with the same owner
            self._inflight_keys.pop(key, None)
            self._close_task_span(job, name, "ok" if action == "done" else "error")
            if action == "done":
                self._resolve_waiters(key, job.execution.outcomes[name])
            else:
                self._requeue_waiters(key)
            if not job.execution.has_pending:
                self._finish(job, None)

    def _resolve_waiters(self, key: str, outcome: Dict[str, Any]) -> None:
        for waiter_id, waiter_name in self._waiters.pop(key, ()):
            waiter = self._jobs.get(waiter_id)
            if waiter is None:
                continue
            waiter.waiting_on.pop(waiter_name, None)
            if waiter.state == "cancelled":
                waiter.execution.abandon(waiter_name)
            else:
                waiter.execution.complete_cached(waiter_name, dict(outcome))
            if not waiter.execution.in_flight and waiter.state == "cancelled":
                self._finish(waiter, "cancelled")
            elif not waiter.execution.has_pending and waiter.state == "running":
                self._finish(waiter, None)

    def _requeue_waiters(self, key: str) -> None:
        for waiter_id, waiter_name in self._waiters.pop(key, ()):
            waiter = self._jobs.get(waiter_id)
            if waiter is None:
                continue
            waiter.waiting_on.pop(waiter_name, None)
            if waiter.state == "cancelled":
                waiter.execution.abandon(waiter_name)
                if not waiter.execution.in_flight:
                    self._finish(waiter, "cancelled")
            else:
                waiter.execution.requeue(waiter_name)

    def _open_task_span(
        self, job: JobRecord, name: str, inline: bool = False
    ) -> Optional[Any]:
        """Create (or reuse, on retry) the ``task`` span for ``name``."""
        if not _tracing.TRACER.enabled:
            return None
        span = self._task_spans.get((job.id, name))
        if span is None:
            parent_span = self._job_spans.get(job.id)
            span = _tracing.TRACER.start_span(
                name, kind="task",
                parent=None if parent_span is None else parent_span.context,
                attrs={"job": job.id, "task": name, "tenant": job.tenant},
            )
            if span is None:
                return None
            self._task_spans[(job.id, name)] = span
        span.attrs["attempts"] = job.execution.attempts[name]
        if inline:
            span.attrs["inline"] = True
        return span

    def _task_trace(self, job: JobRecord, name: str) -> Optional[Dict[str, str]]:
        """The trace context dict to ship with a pool dispatch (or None)."""
        span = self._open_task_span(job, name)
        return None if span is None else span.context.to_dict()

    def _close_task_span(self, job: JobRecord, name: str, status: str) -> None:
        span = self._task_spans.pop((job.id, name), None)
        if span is not None:
            span.attrs["attempts"] = job.execution.attempts.get(name, 0)
            _tracing.TRACER.finish(span, status=status)

    def _finish(self, job: JobRecord, state: Optional[str]) -> None:
        """Move ``job`` to a terminal state and freeze its spans."""
        cancelled = state == "cancelled"
        job.spans = job.execution.finish(cancelled=cancelled)
        if state is None:
            ok = all(s.status in ("done", "cached") for s in job.spans)
            state = "done" if ok else "failed"
            if not ok:
                bad = [s for s in job.spans if s.status in ("failed", "skipped")]
                job.error = "; ".join(
                    f"{s.name}: {s.error}" for s in bad[:3] if s.error
                ) or f"{len(bad)} task(s) failed"
        job.state = state
        job.finished = wallclock()
        if _tracing.TRACER.enabled:
            for (jid, name) in [k for k in self._task_spans if k[0] == job.id]:
                self._close_task_span(job, name, "cancelled")
            job_span = self._job_spans.pop(job.id, None)
            if job_span is not None:
                job_span.attrs["state"] = state
                _tracing.TRACER.finish(
                    job_span, status="ok" if state == "done" else "error"
                )
        self._newly_finished.append(job)
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_serve_jobs_finished_total", "terminal job states by tenant"
            ).inc(tenant=job.tenant, state=state)

    def _update_gauges(self) -> None:
        if not _metrics.REGISTRY.enabled:
            return
        registry = _metrics.REGISTRY
        by_tenant: Dict[str, int] = {}
        for job in self._jobs.values():
            if not job.terminal:
                by_tenant[job.tenant] = by_tenant.get(job.tenant, 0) + 1
        gauge = registry.gauge(
            "repro_serve_active_jobs", "non-terminal jobs by tenant"
        )
        for tenant in self.tenants():
            gauge.set(by_tenant.get(tenant, 0), tenant=tenant)
            registry.gauge(
                "repro_serve_tenant_in_flight", "pool tasks held by tenant"
            ).set(self._tenant_inflight.get(tenant, 0), tenant=tenant)
        registry.gauge(
            "repro_serve_pool_in_flight", "pool tasks in flight across tenants"
        ).set(self.pool.in_flight)

"""The persistent warm worker pool.

A fresh process per grid point pays a full interpreter ``fork``/``spawn``
plus a ``repro`` import for *every* point.  At campaign scale — thousands
of (model, problem, n, params, seed) points, multiplied again by the
chaos and adversary gates — that overhead dominates the points
themselves.  :class:`WorkerPool` keeps ``jobs`` long-lived worker
processes alive instead: each worker imports :mod:`repro` once, then
receives pickled ``(key, fn, kwargs)`` task messages over a pipe and
sends outcomes back, so a task costs one pickle round trip rather than
one process launch.

The pool keeps the failure-isolation semantics the sweep runner already
promises (docs/ROBUSTNESS.md):

* **Crash isolation** — a worker that dies (``os._exit``, segfault, OOM
  kill) fails only the task it was running; the pool detects the dead
  pipe, reports a ``"crash"`` event, and respawns a fresh worker.
* **Watchdog timeouts** — a task given a ``timeout`` that overruns it has
  its worker killed (a hung worker cannot be recovered) and a
  ``"timeout"`` event reported; a replacement worker spawns on demand.
* **Recycling** — a worker is retired after ``max_tasks_per_worker``
  tasks and replaced, bounding how long any interpreter state a task
  leaked behind it can survive.  Process-per-point is exactly the
  ``max_tasks_per_worker=1`` corner of this design.

Retries are deliberately *not* the pool's job: callers
(:func:`repro.analysis.parallel_sweep.parallel_sweep`, the campaign
runner) own attempt bookkeeping so bounded-retry policy lives in one
place per caller.

Determinism: the pool neither reorders results (callers key events by
task) nor feeds any scheduling information into tasks, so a seeded task
set produces bit-identical outcomes whether run serially, process-per-
point, or on a warm pool — ``tests/property/test_sched_props.py`` pins
this three-way equality.
"""

from __future__ import annotations

import os
import stat
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

__all__ = ["WorkerPool", "PoolEvent", "DEFAULT_MAX_TASKS_PER_WORKER"]

#: Tasks a worker runs before it is retired and replaced.  High enough to
#: amortise the spawn cost away, low enough that leaked interpreter state
#: (an algorithm mutating a module global, an unclosed resource) has a
#: bounded lifetime.
DEFAULT_MAX_TASKS_PER_WORKER = 256


@dataclass(frozen=True)
class PoolEvent:
    """One completed (or failed) task, reported by :meth:`WorkerPool.events`.

    ``status`` is ``"ok"`` (``payload`` is the task's return value),
    ``"error"`` (the task raised; ``payload`` is ``"Type: message"``),
    ``"crash"`` (the worker process died mid-task; ``payload`` names the
    exit code) or ``"timeout"`` (the watchdog killed the worker;
    ``payload`` names the limit).  ``wall_time`` is the task's runtime in
    seconds as measured inside the worker (parent-side for crash/timeout).
    """

    key: str
    status: str
    payload: Any
    worker_id: int
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close every socket fd a ``fork`` copied into this worker.

    A forked worker inherits whatever sockets its parent held open — an
    HTTP listen socket, accepted SSE connections, TCP fabric links.  The
    copies keep those connections half-alive: the parent closing its end
    no longer sends a FIN, so a peer writing to a "closed" socket never
    sees an error (the serve disconnect probe), and a killed server's
    port stays bound by its own workers.  Workers are compute-only;
    their duplex pipe (a socketpair) is the one socket they need.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (FileNotFoundError, NotADirectoryError, OSError):
        return  # no /proc (macOS): inherited sockets stay open, as before
    for fd in fds:
        if fd < 3 or fd == keep_fd:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn, warmup: Optional[Callable[[], None]]) -> None:
    """Worker-process loop: import once, then serve tasks until told to stop."""
    import repro  # noqa: F401 - the warm import the pool exists to amortise

    _close_inherited_sockets(conn.fileno())
    # A forked worker inherits the scheduler's trace sink; exec spans
    # already ship home in replies, so writing here would double them.
    _tracing.TRACER.detach_sink()
    if warmup is not None:
        warmup()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        # Task messages are ("task", key, fn, kwargs[, trace]) — the
        # optional 5th element is the dispatching span's context dict
        # (docs/DISTRIBUTED.md, "Trace context on the wire").
        key, fn, kwargs = message[1], message[2], message[3]
        trace = message[4] if len(message) > 4 else None
        span = None
        if trace is not None and _tracing.TRACER.enabled:
            span = _tracing.TRACER.start_span(
                key, kind="exec",
                parent=_tracing.SpanContext.from_dict(trace),
                attrs={"key": key, "transport": "pipe"},
            )
            # Activate so PhaseCostRecords built by the task stamp this span.
            _tracing.TRACER.activate(None if span is None else span.context)
        start = time.perf_counter()
        try:
            value = fn(**kwargs)
            reply = ("ok", key, value, time.perf_counter() - start)
        except BaseException as exc:
            reply = (
                "error", key, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start,
            )
        if span is not None:
            _tracing.TRACER.activate(None)
            _tracing.TRACER.finish(
                span, status="ok" if reply[0] == "ok" else "error"
            )
            # Ship the finished exec span home in the reply so the
            # scheduler-side tracer owns the single merged trace file.
            reply = reply + ([span.to_dict()],)
        try:
            conn.send(reply)
        except Exception as exc:
            # The outcome itself would not pickle; degrade to an error
            # event rather than silently dying with the task in flight.
            try:
                conn.send(("error", key, f"result not sendable: {exc}", 0.0))
            except Exception:
                break
    conn.close()


class _Task:
    __slots__ = ("key", "fn", "kwargs", "timeout", "trace")

    def __init__(self, key: str, fn: Callable[..., Any],
                 kwargs: Mapping[str, Any], timeout: Optional[float],
                 trace: Optional[Mapping[str, str]] = None) -> None:
        self.key = key
        self.fn = fn
        self.kwargs = dict(kwargs)
        self.timeout = timeout
        self.trace = None if trace is None else dict(trace)


class _Worker:
    __slots__ = ("id", "proc", "conn", "tasks_done", "current", "deadline", "started")

    def __init__(self, wid: int, proc: Any, conn: Any) -> None:
        self.id = wid
        self.proc = proc
        self.conn = conn
        self.tasks_done = 0
        self.current: Optional[_Task] = None
        self.deadline = float("inf")
        self.started = 0.0


class WorkerPool:
    """A pool of warm worker processes executing pickled task calls.

    Parameters
    ----------
    jobs:
        Worker-process count; defaults to
        :func:`repro.analysis.parallel_sweep.default_jobs` (``$REPRO_JOBS``
        or the CPU count).  Workers spawn lazily — an idle pool holds no
        processes until the first task arrives.
    max_tasks_per_worker:
        Retire a worker after this many tasks (``None`` disables recycling).
    warmup:
        Optional callable run once inside each fresh worker (e.g. to
        pre-import a driver module) before it serves tasks.

    Usage::

        with WorkerPool(jobs=4) as pool:
            pool.submit("a", fn, {"n": 4})
            pool.submit("b", fn, {"n": 8}, timeout=10.0)
            results = {}
            while len(results) < 2:
                for event in pool.events():
                    results[event.key] = event

    ``fn`` and each kwarg value must be picklable (module-level functions,
    :func:`functools.partial` of them, plain data).
    """

    #: Local pipe workers need no servicing while idle; the multiplexer
    #: skips events() on an empty pool.  The TCP pool overrides this.
    needs_poll = False

    def __init__(
        self,
        jobs: Optional[int] = None,
        max_tasks_per_worker: Optional[int] = DEFAULT_MAX_TASKS_PER_WORKER,
        warmup: Optional[Callable[[], None]] = None,
    ) -> None:
        from repro.analysis.parallel_sweep import default_jobs

        if jobs is not None and int(jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_tasks_per_worker is not None and int(max_tasks_per_worker) < 1:
            raise ValueError(
                f"max_tasks_per_worker must be >= 1 or None, got {max_tasks_per_worker}"
            )
        self.jobs = default_jobs() if jobs is None else int(jobs)
        self.max_tasks_per_worker = (
            None if max_tasks_per_worker is None else int(max_tasks_per_worker)
        )
        self._warmup = warmup
        self._queue: List[_Task] = []
        self._workers: List[_Worker] = []
        self._next_worker_id = 1
        self._closed = False
        #: Events produced outside the events() call (send-side crashes).
        self._pending_events: List[PoolEvent] = []
        self.stats: Dict[str, int] = {
            "tasks_completed": 0,
            "workers_spawned": 0,
            "recycled": 0,
            "crashes": 0,
            "timeouts": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def _spawn(self) -> _Worker:
        from multiprocessing import get_context

        ctx = get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, self._warmup), daemon=True
        )
        proc.start()
        child_conn.close()
        worker = _Worker(self._next_worker_id, proc, parent_conn)
        self._next_worker_id += 1
        self._workers.append(worker)
        self.stats["workers_spawned"] += 1
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_pool_workers_spawned_total", "worker processes started"
            ).inc()
        return worker

    def _reap(self, worker: _Worker, kill: bool = False) -> None:
        """Remove ``worker`` from the pool and make sure its process is gone."""
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - stuck even after kill
            worker.proc.kill()
            worker.proc.join()

    def _retire(self, worker: _Worker) -> None:
        """Gracefully stop an idle worker (recycling / shutdown)."""
        try:
            worker.conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        self._reap(worker)

    def shutdown(self) -> None:
        """Stop every worker (killing any mid-task) and drop queued tasks.

        Idempotent; the pool is unusable afterwards.
        """
        self._closed = True
        self._queue.clear()
        for worker in list(self._workers):
            if worker.current is not None:
                self._reap(worker, kill=True)
            else:
                self._retire(worker)

    # -- submission and dispatch -------------------------------------------

    @property
    def active_count(self) -> int:
        """Tasks currently executing in workers."""
        return sum(1 for w in self._workers if w.current is not None)

    @property
    def queued_count(self) -> int:
        """Tasks waiting for a free worker."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Submitted-but-unreported tasks (queued + active)."""
        return self.active_count + self.queued_count

    def fleet(self) -> List[Dict[str, Any]]:
        """Worker rows for the ``/v1/workers`` fleet view.

        Local pipe workers in the same shape the TCP pool reports
        (``transport: "pipe"``; no address, generations, or heartbeat —
        a pipe to a child process is never partitioned).
        """
        return [
            {
                "id": w.id,
                "name": f"pipe-{w.id}",
                "state": "live",
                "generation": 1,
                "addr": None,
                "pid": w.proc.pid,
                "host": None,
                "tasks_done": w.tasks_done,
                "current": w.current.key if w.current is not None else None,
                "registered": None,
                "heartbeat_latency_s": None,
                "transport": "pipe",
            }
            for w in self._workers
        ]

    def submit(
        self,
        key: str,
        fn: Callable[..., Any],
        kwargs: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
        trace: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Enqueue ``fn(**kwargs)`` under ``key``; FIFO within the pool.

        The completion arrives as a :class:`PoolEvent` from :meth:`events`.
        Keys are the caller's correlation handle and should be unique among
        in-flight tasks.  ``trace`` is an optional span-context dict
        (``{"trace_id", "span_id"}``) carried to the worker inside the
        task message, so worker-side execution spans parent under the
        dispatching task span.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._queue.append(_Task(key, fn, kwargs or {}, timeout, trace))
        if _metrics.REGISTRY.enabled:
            _metrics.REGISTRY.counter(
                "repro_pool_tasks_dispatched_total", "tasks submitted to the pool"
            ).inc()
        self._dispatch()
        if _metrics.REGISTRY.enabled:
            self._update_metric_gauges()

    def cancel_pending(self) -> List[str]:
        """Drop every queued (not yet running) task; returns their keys."""
        keys = [task.key for task in self._queue]
        self._queue.clear()
        return keys

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, spawning up to ``jobs``."""
        for worker in self._workers:
            if not self._queue:
                return
            if worker.current is None:
                self._assign(worker, self._queue.pop(0))
        while self._queue and len(self._workers) < self.jobs:
            self._assign(self._spawn(), self._queue.pop(0))

    def _assign(self, worker: _Worker, task: _Task) -> None:
        now = time.monotonic()
        worker.current = task
        worker.started = now
        worker.deadline = now + task.timeout if task.timeout is not None else float("inf")
        try:
            if task.trace is not None:
                worker.conn.send(
                    ("task", task.key, task.fn, task.kwargs, task.trace)
                )
            else:
                worker.conn.send(("task", task.key, task.fn, task.kwargs))
        except (OSError, BrokenPipeError):
            # The worker died between tasks; treat as a crash of this task's
            # attempt so the caller's retry policy sees it.
            self._reap(worker, kill=True)
            self.stats["crashes"] += 1
            self._pending_events.append(
                PoolEvent(task.key, "crash",
                          f"worker crashed (exit code {worker.proc.exitcode})",
                          worker.id, 0.0)
            )

    # -- metrics -----------------------------------------------------------

    def _update_metric_gauges(self) -> None:
        """Refresh the pool's queue/occupancy gauges (registry enabled only)."""
        registry = _metrics.REGISTRY
        registry.gauge(
            "repro_pool_queue_depth", "tasks waiting for a free worker"
        ).set(len(self._queue))
        registry.gauge(
            "repro_pool_active_tasks", "tasks currently executing in workers"
        ).set(self.active_count)

    def _account_events(self, events: List[PoolEvent]) -> None:
        """Account a batch of completions into the registry (enabled only)."""
        registry = _metrics.REGISTRY
        completed = registry.counter(
            "repro_pool_tasks_completed_total", "task completions by status"
        )
        latency = registry.histogram(
            "repro_pool_task_seconds", "per-task wall time inside workers"
        )
        for event in events:
            completed.inc(status=event.status)
            latency.observe(event.wall_time)
        recycled = registry.counter(
            "repro_pool_workers_recycled_total", "workers retired by recycling"
        )
        delta = self.stats["recycled"] - recycled.value()
        if delta > 0:
            recycled.inc(delta)
        self._update_metric_gauges()

    # -- completion --------------------------------------------------------

    def events(self, wait: float = 0.5) -> List[PoolEvent]:
        """Dispatch queued work, then collect completions for up to ``wait`` s.

        Returns as soon as at least one event is available (possibly
        sooner than ``wait``); returns ``[]`` on a quiet interval or when
        nothing is in flight.  Watchdog kills and crash detection happen
        here, so callers with in-flight tasks should poll regularly.
        """
        from multiprocessing.connection import wait as conn_wait

        self._dispatch()
        events: List[PoolEvent] = list(self._pending_events)
        self._pending_events.clear()

        busy = [w for w in self._workers if w.current is not None]
        if not busy:
            if _metrics.REGISTRY.enabled:
                self._account_events(events)
            return events
        if not events:
            nearest = min(w.deadline for w in busy)
            wait_for = max(0.001, min(wait, nearest - time.monotonic()))
            ready = set(conn_wait([w.conn for w in busy], wait_for))
        else:
            ready = set(conn_wait([w.conn for w in busy], 0))

        now = time.monotonic()
        for worker in busy:
            task = worker.current
            if task is None:  # pragma: no cover - defensive
                continue
            if worker.conn in ready or (not worker.proc.is_alive() and worker.conn.poll()):
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    events.append(self._crash(worker, task, now))
                    continue
                status, key, payload, wall = reply[:4]
                if len(reply) > 4 and _tracing.TRACER.enabled:
                    _tracing.TRACER.ingest(reply[4])
                worker.current = None
                worker.tasks_done += 1
                self.stats["tasks_completed"] += 1
                events.append(PoolEvent(key, status, payload, worker.id, wall))
                if (
                    self.max_tasks_per_worker is not None
                    and worker.tasks_done >= self.max_tasks_per_worker
                ):
                    self.stats["recycled"] += 1
                    self._retire(worker)
            elif not worker.proc.is_alive():
                events.append(self._crash(worker, task, now))
            elif now >= worker.deadline:
                self.stats["timeouts"] += 1
                self._reap(worker, kill=True)
                events.append(
                    PoolEvent(task.key, "timeout",
                              f"timed out after {task.timeout}s",
                              worker.id, now - worker.started)
                )
        self._dispatch()  # freed slots pick up queued work immediately
        if _metrics.REGISTRY.enabled:
            self._account_events(events)
        return events

    def _crash(self, worker: _Worker, task: _Task, now: float) -> PoolEvent:
        self.stats["crashes"] += 1
        self._reap(worker, kill=True)
        return PoolEvent(
            task.key, "crash",
            f"worker crashed (exit code {worker.proc.exitcode})",
            worker.id, now - worker.started,
        )

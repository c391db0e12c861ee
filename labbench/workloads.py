"""The four workloads: one cold reproduction and three service loads.

Each workload function returns a :class:`Result`: the outcome tally, the
end-to-end metrics (untraced runs) or the per-layer metrics (traced
runs), and the human-readable report lines.  See README.md in this
directory for why each workload exists and how each metric is defined.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from labbench import loadgen
from labbench.host import HostGauge
from labbench.layers import PER_LAYER_UNITS, Record
from labbench.procs import Service, tree_cpu
from labbench.stats import MIN_BEYOND, Outcomes, beyond, median, nearest_rank

#: End-to-end metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "tasks_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "submit_p50_ms": "ms",
    "submit_p90_ms": "ms",
    "max_jobs_per_s": "1/s",
    "cpu_s_per_job": "s",
}

WORKERS = 2
#: ``--seconds`` per reproduce pass (a cold pass takes ~9-11 s).
PASS_S = 10.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Quiet window inside set-up that gives ``server.idle_cpu_per_s``.
IDLE_WINDOW_S = 0.5
TENANTS = 8
#: Share of ``--seconds`` the open loop lasts, at the workload's own rate
#: (104 jobs at 40 s and 4 jobs/s, so 10 lie beyond p90).
OPEN_SHARE = 0.65
#: Closed-loop phase: jobs kept outstanding, and jobs sent per second of
#: ``--seconds`` (240 at 40 s).
WINDOW = 8
CLOSED_JOBS_PER_S = 6.0
#: serve-fresh jobs in every ten that repeat an earlier seed.
REPEATS_PER_10 = 3
CHAOS_OPTIONS = {"n": 32, "budget": 8}


@dataclass
class Result:
    outcomes: Outcomes = field(default_factory=Outcomes)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    def put(self, units: Dict[str, str], values: Dict[str, float]) -> None:
        for name, unit in units.items():
            self.metrics[name] = (float(values[name]), unit)

    @property
    def correct(self) -> bool:
        return self.outcomes.failed == 0


def _pcts(values: List[float], label: str, scale: float, unit: str) -> Tuple[float, float, str]:
    """(p50, p90, report line) with the sample count and the beyond-p90 count."""
    p50 = nearest_rank(values, 50) * scale
    p90 = nearest_rank(values, 90) * scale
    n_beyond = beyond(len(values), 90)
    flag = "" if n_beyond >= MIN_BEYOND else f"  (only {n_beyond} beyond p90)"
    line = (f"{label}: p50 {p50:.3f} {unit}, p90 {p90:.3f} {unit} "
            f"over {len(values)} samples, {n_beyond} beyond p90{flag}")
    return p50, p90, line


# -- reproduce ----------------------------------------------------------------


def _outcome_check(campaign, store, result: Result) -> Dict[str, Any]:
    """Re-derive every inline verdict from the stored outcomes; return task outcomes."""
    outcomes: Dict[str, Any] = {}
    for task in campaign.tasks:
        if task.inline:
            verdict = task.fn(
                {d: outcomes[d] for d in task.deps}, **dict(task.kwargs)
            )
            outcomes[task.name] = verdict
            if not verdict.get("correct"):
                result.outcomes.error("incorrect", f"{task.name}: {verdict}")
        else:
            outcome = store.get_outcome(store.key_for(task.fn, task.kwargs))
            if outcome is None:
                result.outcomes.error("not_done", f"{task.name}: no stored outcome")
                return outcomes
            outcomes[task.name] = outcome
    return outcomes


def cost_digest(outcomes: Dict[str, Dict[str, Any]]) -> Tuple[str, int]:
    """SHA-256 over every task's simulated cost (``measured``), name-ordered."""
    costs = sorted(
        (name, repr(out["measured"]))
        for name, out in outcomes.items()
        if isinstance(out, dict) and "measured" in out
    )
    blob = json.dumps(costs).encode("utf-8")
    return hashlib.sha256(blob).hexdigest(), len(costs)


def reproduce(seed: int, seconds: float, trace: bool, root: str, workdir: str) -> Result:
    from repro.sched.campaign import run_campaign
    from repro.sched.campaigns import build_campaign
    from repro.sched.store import ResultStore

    from labbench.coldstart import CAMPAIGNS, warm_pool

    result = Result()
    result.lines.append(
        f"workload seed {seed} is unused: the four campaigns run their fixed stock grids"
    )
    expected = _expected_digest(root)

    store_ids = itertools.count()
    gauge = HostGauge()

    def passes(pool, seconds: float) -> List[Dict[str, Any]]:
        out = []
        while len(out) < max(1, round(seconds / PASS_S)):
            gauge.sample()
            store = ResultStore(os.path.join(workdir, f"store-{next(store_ids)}"))
            cpu0 = tree_cpu([os.getpid()])
            t0 = time.perf_counter()
            runs = []
            for name in CAMPAIGNS:
                campaign = build_campaign(name)
                runs.append((campaign, run_campaign(campaign, store, pool=pool)))
            t1 = time.perf_counter()
            out.append({
                "wall": t1 - t0, "cpu": tree_cpu([os.getpid()]) - cpu0,
                "runs": runs, "store": store, "t0": t0, "t1": t1,
            })
        gauge.sample()
        return out

    setups = [] if trace else [_cold_start(root) for _ in range(SETUPS)]
    pool = warm_pool()
    try:
        # A traced run splits its time between an untraced and a traced half.
        done = passes(pool, seconds / 2 if trace else seconds)
        if trace:
            from labbench.hooks import install

            hooks = install()
            traced = passes(pool, seconds / 2)
    finally:
        pool.shutdown()

    executed = _check_passes(done, result, expected)
    walls = [p["wall"] for p in done]
    # Every time and rate is normalised by the host gauge (labbench/host.py):
    # the cold pass is CPU-bound throughout, so it follows the host's speed.
    factor = gauge.factor
    wall = median(walls) * factor
    jobs_per_pass = len(CAMPAIGNS)
    result.lines += [
        f"passes: {len(done)} cold passes of {', '.join(CAMPAIGNS)}; "
        f"wall per pass {', '.join(f'{w:.3f}' for w in walls)} s, median "
        f"{median(walls):.3f} s as measured, {wall:.3f} s normalised",
        gauge.line(),
        "run_campaign is synchronous: the caller's job is the whole cold pass, "
        "answered when it returns, so the job and submit figures are the median pass",
    ]
    if not trace:
        result.put(END_TO_END_UNITS, {
            "setup_s": median(setups) * factor,
            "wall_s": wall,
            "tasks_per_s": executed / len(done) / wall,
            "job_p50_s": wall,
            "job_p90_s": wall,
            "submit_p50_ms": 1e3 * wall,
            "submit_p90_ms": 1e3 * wall,
            "max_jobs_per_s": jobs_per_pass / wall,
            "cpu_s_per_job": median([p["cpu"] for p in done]) * factor / jobs_per_pass,
        })
        return result

    traced_tasks = _check_passes(traced, result, expected)
    record = Record(hooks.document(), traced[0]["t0"], traced[-1]["t1"])
    layer = record.layer_metrics(len(traced) * jobs_per_pass, {}, WORKERS)
    traced_wall = median([p["wall"] for p in traced])
    layer["trace.overhead_pct"] = 100.0 * (traced_wall / median(walls) - 1.0)
    layer["server.idle_cpu_per_s"] = 0.0
    layer["loadgen.late_p90_ms"] = 0.0
    result.put(PER_LAYER_UNITS, layer)
    measured = sum(
        s.end - s.start for p in traced for _, report in p["runs"]
        for s in report.spans if s.status == "done" and s.worker
    )
    result.lines.append(record.budget(
        "budget per executed task (measured: dispatch->done per task)",
        "task", traced_tasks, measured,
    ))
    return result


def _check_passes(
    passes: List[Dict[str, Any]], result: Result, expected: Optional[str]
) -> int:
    """Outcome checks of reproduce passes; returns the executed task count.

    Every report must be ``ok``, every inline verdict ``correct``, and the
    digest of all simulated costs the same in every pass and equal to the
    one on file.
    """
    executed = 0
    for p in passes:
        outcomes: Dict[str, Any] = {}
        for campaign, report in p["runs"]:
            result.outcomes.attempt()
            if not report.ok:
                result.outcomes.error("not_done", report.render())
            outcomes.update(_outcome_check(campaign, p["store"], result))
            spans = [s for s in report.spans if s.status == "done" and s.worker]
            executed += len(spans)
        digest, n_costs = cost_digest(outcomes)
        if expected is None:
            expected = digest  # later passes must still agree with this one
            note = " (no expected digest on file)"
        elif digest != expected:
            note = f" != expected {expected[:16]}"
            result.outcomes.error("incorrect", f"simulated-cost digest {digest}{note}")
        else:
            note = " (as expected)"
        result.lines.append(f"simulated-cost digest {digest[:16]} over {n_costs} task costs{note}")
    return executed


def _cold_start(root: str) -> float:
    """Seconds for one :mod:`labbench.coldstart` child, start to exit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "labbench.coldstart"],
        cwd=root, check=True, stdin=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - t0


def _expected_digest(root: str) -> Optional[str]:
    path = os.path.join(root, "labbench", "expected.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["reproduce_cost_digest"]
    except (OSError, KeyError, ValueError):
        return None


# -- the service workloads ----------------------------------------------------


@dataclass(frozen=True)
class ServeSpec:
    fabric: bool
    traffic: str  # "fresh" or "replay"
    rate: float   # open-loop jobs per second


SERVE: Dict[str, ServeSpec] = {
    "serve-fresh": ServeSpec(fabric=False, traffic="fresh", rate=4.0),
    "serve-replay": ServeSpec(fabric=False, traffic="replay", rate=6.0),
    "serve-fabric": ServeSpec(fabric=True, traffic="fresh", rate=4.0),
}


def fresh_jobs(rng: random.Random) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Round-robin tenants; 70% fresh ``chaos`` seeds, 30% repeats of earlier ones.

    The share is exact in every block of ten jobs (which places repeat is
    drawn from the seed), so no run gets a lucky or unlucky mix.
    """
    seen: List[int] = []
    repeats: List[bool] = []
    for i in itertools.count():
        if not repeats:
            block = [True] * REPEATS_PER_10 + [False] * (10 - REPEATS_PER_10)
            rng.shuffle(block)
            repeats = block
        if repeats.pop() and seen:
            chaos_seed = rng.choice(seen)
        else:
            chaos_seed = rng.randrange(1, 2 ** 31)
            while chaos_seed in seen:
                chaos_seed = rng.randrange(1, 2 ** 31)
            seen.append(chaos_seed)
        yield (f"tenant-{i % TENANTS}",
               loadgen.job_body("chaos", dict(CHAOS_OPTIONS, seed=chaos_seed)))


def replay_jobs(rng: random.Random) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Round-robin tenants; stock ``table1`` and ``cross_model`` resubmissions.

    Every pair of jobs holds one of each, in an order drawn from the seed,
    so the mix (85 against 46 tasks a job) is the same in every run.
    """
    kinds: List[str] = []
    for i in itertools.count():
        if not kinds:
            kinds = ["table1", "cross_model"]
            rng.shuffle(kinds)
        yield f"tenant-{i % TENANTS}", loadgen.job_body(kinds.pop())


def warm_bodies(traffic: str) -> List[Dict[str, Any]]:
    """The first job of each campaign kind the traffic uses (never a traffic seed)."""
    if traffic == "replay":
        return [loadgen.job_body("table1"), loadgen.job_body("cross_model")]
    return [loadgen.job_body("chaos", dict(CHAOS_OPTIONS, seed=0))]


class Session:
    """One booted, warmed service with the generator's two connections."""

    def __init__(self, root: str, workdir: str, tag: str, spec: ServeSpec,
                 outcomes: Outcomes, spans_out: Optional[str] = None) -> None:
        t0 = time.perf_counter()
        self.svc = Service(root, workdir, tag, fabric=spec.fabric, spans_out=spans_out)
        self.client: Optional[loadgen.Client] = None
        self.reader: Optional[loadgen.EventReader] = None
        try:
            self.client = loadgen.Client(self.svc.host, self.svc.port)
            self.reader = loadgen.EventReader(self.svc.host, self.svc.port)
            # One at a time: the service builds a campaign on the HTTP thread
            # while the scheduler may be forking pool workers.
            for body in warm_bodies(spec.traffic):
                phase = loadgen.Phase(start=time.perf_counter())
                phase.subs.append(loadgen.Submission("warmup", body))
                self.client.submit(phase.subs[0])
                loadgen.settle(self.client, self.reader, phase, 120.0)
                check_jobs(phase.subs, outcomes)
            cpu0 = self.svc.cpu()
            time.sleep(IDLE_WINDOW_S)
            self.idle_cpu_per_s = (self.svc.cpu() - cpu0) / IDLE_WINDOW_S
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.reader is not None:
            self.reader.stop()
        if self.client is not None:
            self.client.close()
        self.svc.stop()


def check_jobs(subs: List[loadgen.Submission], outcomes: Outcomes) -> None:
    """Count each submission once, and each spoiled one once as an error."""
    for sub in subs:
        outcomes.attempt()
        if sub.error is not None:
            outcomes.error(sub.error.split(":", 1)[0], sub.error)
        elif sub.view is None or sub.done_at is None:
            outcomes.error("timeout", f"{sub.job_id} never reached a terminal state")
        elif sub.view["state"] != "done":
            outcomes.error("not_done", f"{sub.job_id} ended {sub.view['state']}: "
                                       f"{sub.view.get('error')}")
        elif any(sub.view["counts"].get(k) for k in ("failed", "skipped", "pending")):
            outcomes.error("task_failed", f"{sub.job_id}: {sub.view['counts']}")


def check_store(store_root: str, outcomes: Outcomes) -> int:
    """Every stored outcome must say ``correct``; returns how many were read."""
    paths = glob.glob(os.path.join(store_root, "objects", "*", "*.json"))
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry["outcome"].get("correct") is not True:
            outcomes.error("incorrect", f"{entry['spec'].get('fn')}: {entry['outcome']}")
    return len(paths)


def open_jobs(spec: ServeSpec, seconds: float) -> int:
    return max(1, round(OPEN_SHARE * seconds * spec.rate))


def closed_jobs(seconds: float) -> int:
    return max(WINDOW, round(CLOSED_JOBS_PER_S * seconds))


def _measure(session: Session, jobs, spec: ServeSpec, seconds: float):
    cpu0 = session.svc.cpu()
    open_phase = loadgen.open_loop(
        session.client, session.reader, jobs, spec.rate, open_jobs(spec, seconds)
    )
    cpu = session.svc.cpu() - cpu0
    closed = loadgen.closed_loop(
        session.client, session.reader, jobs, WINDOW, closed_jobs(seconds)
    )
    return open_phase, cpu, closed


def serve(name: str, seed: int, seconds: float, trace: bool, root: str, workdir: str) -> Result:
    spec = SERVE[name]
    result = Result()
    outcomes = result.outcomes
    rng = random.Random(seed)
    jobs = fresh_jobs(rng) if spec.traffic == "fresh" else replay_jobs(rng)
    # A traced run splits its time between an untraced and a traced pass.
    seconds = seconds / 2 if trace else seconds
    result.lines.append(
        f"workload seed {seed}: {spec.traffic} traffic from {TENANTS} tenants, "
        f"open loop of {open_jobs(spec, seconds)} jobs at {spec.rate} "
        f"jobs/s, then a closed loop "
        f"of {closed_jobs(seconds)} jobs with {WINDOW} outstanding"
        + (", TCP fabric with 2 workers" if spec.fabric else ", pipe pool with 2 workers")
    )

    setups: List[float] = []
    session = None
    stores: List[str] = []
    # Sampled only while no service runs: the gauge must not share the
    # host with the program it normalises.
    gauge = HostGauge()
    try:
        for i in range(1 if trace else SETUPS):
            if session is not None:
                session.close()
            gauge.sample()
            session = Session(root, workdir, f"u{i}", spec, outcomes)
            stores.append(session.svc.store)
            setups.append(session.setup_s)
        open_phase, cpu, closed = _measure(session, jobs, spec, seconds)
        idle_cpu = session.idle_cpu_per_s
    finally:
        if session is not None:
            session.close()
    gauge.sample()
    if session.reader.error:
        result.lines.append(f"SSE stream broke early: {session.reader.error}")

    check_jobs(open_phase.subs + closed.subs, outcomes)
    n_stored = sum(check_store(s, outcomes) for s in stores)
    lat = [s.latency for s in open_phase.subs if s.latency is not None]
    subs = [s.submit_latency for s in open_phase.subs if s.status == 201]
    late = [s.late for s in open_phase.subs]
    late_p90_ms = 1e3 * nearest_rank(late, 90)
    behind = late_p90_ms > 1e3 / spec.rate
    done_open = sum(1 for s in open_phase.subs if s.done_at is not None)
    job_p50, job_p90, job_line = _pcts(lat or [0.0], "job due->terminal", 1.0, "s")
    sub_p50, sub_p90, sub_line = _pcts(subs or [0.0], "submit due->201", 1e3, "ms")
    # The closed loop saturates the workers, so it is bound by CPU speed and
    # is normalised by the host gauge; the open loop runs at ~40% load and
    # is not (normalising its figures widened their spread).
    factor = gauge.factor
    wall = max(1e-9, closed.end - closed.start)
    closed_tasks = sum(
        s.view["counts"].get("done", 0) + s.view["counts"].get("cached", 0)
        for s in closed.subs if s.view is not None
    )
    max_rate = loadgen.completion_rate(closed)
    result.lines += [
        job_line, sub_line,
        f"generator lateness p90 {late_p90_ms:.2f} ms"
        + ("  ** GENERATOR FELL BEHIND: this run is not valid **" if behind else ""),
        f"terminal events recovered by GET after a dropped SSE event: "
        f"{open_phase.recovered + closed.recovered}",
        f"stored outcomes checked: {n_stored}",
        f"closed loop: {len(closed.subs)} jobs in {wall:.3f} s, "
        f"{max_rate:.3f} completions/s as measured; {wall * factor:.3f} s, "
        f"{max_rate / factor:.3f} completions/s normalised",
        gauge.line(),
        f"server idle CPU {idle_cpu:.3f} CPU-s per s (quiet window in set-up)",
    ]
    if not trace:
        result.put(END_TO_END_UNITS, {
            "setup_s": median(setups),
            "wall_s": wall * factor,
            "tasks_per_s": closed_tasks / (wall * factor),
            "job_p50_s": job_p50,
            "job_p90_s": job_p90,
            "submit_p50_ms": sub_p50,
            "submit_p90_ms": sub_p90,
            "max_jobs_per_s": max_rate / factor,
            "cpu_s_per_job": cpu / max(1, done_open),
        })
        return result

    # Traced pass: the same traffic again against the span launcher.
    rng_t = random.Random(seed)
    jobs_t = fresh_jobs(rng_t) if spec.traffic == "fresh" else replay_jobs(rng_t)
    spans_out = os.path.join(workdir, "spans.json")
    session = Session(root, workdir, "traced", spec, outcomes, spans_out=spans_out)
    try:
        open_t, _, closed_t = _measure(session, jobs_t, spec, seconds)
        traced_late = [s.late for s in open_t.subs]
    finally:
        session.close()
    check_jobs(open_t.subs + closed_t.subs, outcomes)
    check_store(session.svc.store, outcomes)
    with open(spans_out, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    record = Record(doc, open_t.start, open_t.end)
    post_rt = {s.job_id: s.answered - s.sent for s in open_t.subs if s.job_id}
    n_jobs = sum(1 for s in open_t.subs if s.done_at is not None)
    layer = record.layer_metrics(n_jobs, post_rt, WORKERS)
    traced_rate = loadgen.completion_rate(closed_t)
    layer["trace.overhead_pct"] = (
        100.0 * (max_rate / traced_rate - 1.0) if traced_rate > 0 else 0.0
    )
    layer["server.idle_cpu_per_s"] = idle_cpu
    layer["loadgen.late_p90_ms"] = 1e3 * nearest_rank(traced_late, 90)
    result.put(PER_LAYER_UNITS, layer)
    measured = sum(s.latency for s in open_t.subs if s.latency is not None)
    result.lines.append(record.budget(
        "budget per job (measured: due->terminal per job, open loop)",
        "job", n_jobs, measured, post_round_trips=post_rt,
    ))
    return result


WORKLOADS: Dict[str, Callable[..., Result]] = {
    "reproduce": reproduce,
    "serve-fresh": lambda *a: serve("serve-fresh", *a),
    "serve-replay": lambda *a: serve("serve-replay", *a),
    "serve-fabric": lambda *a: serve("serve-fabric", *a),
}

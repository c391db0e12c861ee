"""A single-process HTTP load generator for ``serve run``.

Two threads and two connections at most: the calling thread submits
(``POST /v1/jobs``, and ``GET /v1/jobs/<id>`` for recovery) over one
keep-alive connection, and :class:`EventReader` follows the global
``/v1/events`` SSE stream on the other, stamping each job's first
terminal event.

The open loop sends each job at its due time whatever happened to the
previous ones, and every latency is timed from the due time, so a stall
in the service also charges the jobs it delayed.  How late the generator
itself sent is recorded per job.  The closed loop keeps a fixed window of
jobs outstanding and gives the service's saturation throughput.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from labbench.sse import TERMINAL_STATES, FrameBuffer, TerminalEvents

SCHEMA = "repro.serve/1"
TENANT_HEADER = "X-Repro-Tenant"


@dataclass
class Submission:
    """One job as the generator saw it; times are ``perf_counter`` seconds."""

    tenant: str
    body: Dict[str, Any]
    due: float = 0.0
    sent: float = 0.0
    answered: float = 0.0
    status: int = 0
    job_id: Optional[str] = None
    error: Optional[str] = None
    done_at: Optional[float] = None
    view: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> Optional[float]:
        return None if self.done_at is None else self.done_at - self.due

    @property
    def submit_latency(self) -> float:
        return self.answered - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def job_body(campaign: str, options: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    return {"schema": SCHEMA, "campaign": campaign, "options": dict(options or {})}


class Client:
    """The submitter's one keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _request(self, method: str, path: str, body: Optional[bytes], headers) -> Tuple[int, bytes]:
        for attempt in (1, 2):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                self._conn.request(method, path, body=body, headers=headers)
                resp = self._conn.getresponse()
                return resp.status, resp.read()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                # A keep-alive connection the server closed between requests.
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def submit(self, sub: Submission) -> None:
        """POST ``sub``; fills ``sent``, ``answered``, ``status`` and ``job_id``."""
        body = json.dumps(sub.body).encode("utf-8")
        headers = {"Content-Type": "application/json", TENANT_HEADER: sub.tenant}
        sub.sent = time.perf_counter()
        try:
            status, raw = self._request("POST", "/v1/jobs", body, headers)
        except (OSError, http.client.HTTPException) as exc:
            sub.answered = time.perf_counter()
            sub.error = f"timeout: {type(exc).__name__}: {exc}"
            self.close()
            return
        sub.answered = time.perf_counter()
        sub.status = status
        if status == 201:
            sub.job_id = json.loads(raw)["job"]["id"]
        else:
            sub.error = f"refused: HTTP {status}: {raw[:200]!r}"

    def job(self, job_id: str) -> Dict[str, Any]:
        status, raw = self._request("GET", f"/v1/jobs/{job_id}", None, {})
        if status != 200:
            raise RuntimeError(f"GET /v1/jobs/{job_id}: HTTP {status}")
        return json.loads(raw)["job"]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class EventReader(threading.Thread):
    """Follows ``/v1/events`` and records each job's first terminal event."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="labbench-sse", daemon=True)
        self.events = TerminalEvents()
        self.cond = threading.Condition()
        self.error: Optional[str] = None
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._sock.sendall(
            f"GET /v1/events HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        self._stopping = False
        self.start()

    def run(self) -> None:
        frames = FrameBuffer()
        head = b""
        try:
            self._sock.settimeout(None)
            while b"\r\n\r\n" not in head:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionError("stream closed before headers")
                head += chunk
            head, _, rest = head.partition(b"\r\n\r\n")
            if not head.startswith(b"HTTP/1.1 200"):
                raise ConnectionError(head.split(b"\r\n", 1)[0].decode("latin-1"))
            chunk = rest
            while True:
                if chunk:
                    parsed = frames.feed(chunk)
                    if parsed:
                        now = time.perf_counter()
                        with self.cond:
                            self.events.observe(parsed, now)
                            self.cond.notify_all()
                chunk = self._sock.recv(65536)
                if not chunk:
                    break
        except (OSError, ValueError) as exc:
            if not self._stopping:
                self.error = f"{type(exc).__name__}: {exc}"
        finally:
            with self.cond:
                self.cond.notify_all()

    def terminal(self, job_id: str) -> Optional[Tuple[float, Dict[str, Any]]]:
        with self.cond:
            return self.events.terminal.get(job_id)

    def wait_terminal(self, job_ids: List[str], deadline: float) -> List[str]:
        """Block until every job has a terminal event (or the deadline); returns misses."""
        with self.cond:
            while True:
                missing = [j for j in job_ids if j not in self.events.terminal]
                left = deadline - time.perf_counter()
                if not missing or left <= 0 or not self.is_alive():
                    return missing
                self.cond.wait(min(left, 0.5))

    def stop(self) -> None:
        self._stopping = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self.join(timeout=5.0)


@dataclass
class Phase:
    """The submissions of one loop, with its time window."""

    subs: List[Submission] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    recovered: int = 0


def settle(client: Client, reader: EventReader, phase: Phase, timeout: float) -> None:
    """Wait for every admitted job's terminal event; recover the missing by GET.

    ``Subscription`` drops its oldest event when a reader lags, so a
    terminal event can be lost.  Such a job is polled until terminal and
    its terminal time taken from the job view's ``finished`` wall clock.
    """
    admitted = [s for s in phase.subs if s.job_id is not None]
    deadline = time.perf_counter() + timeout
    reader.wait_terminal([s.job_id for s in admitted], deadline)
    offset = time.time() - time.perf_counter()
    for sub in admitted:
        seen = reader.terminal(sub.job_id)
        if seen is not None:
            sub.done_at, sub.view = seen
            continue
        while True:
            view = client.job(sub.job_id)
            if view["state"] in TERMINAL_STATES or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        sub.view = view
        phase.recovered += 1
        if view["state"] in TERMINAL_STATES and view.get("finished"):
            sub.done_at = view["finished"] - offset
    phase.end = max([phase.start] + [s.done_at or 0.0 for s in phase.subs])


def open_loop(
    client: Client, reader: EventReader, jobs: Iterator[Tuple[str, Dict[str, Any]]],
    rate: float, count: int, settle_timeout: float = 60.0,
) -> Phase:
    """Send ``count`` jobs at ``rate`` per second, each timed from its due time."""
    phase = Phase()
    interval = 1.0 / rate
    phase.start = time.perf_counter() + 0.05
    for i in range(count):
        tenant, body = next(jobs)
        sub = Submission(tenant, body, due=phase.start + i * interval)
        pause = sub.due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        client.submit(sub)
        phase.subs.append(sub)
    settle(client, reader, phase, settle_timeout)
    return phase


def closed_loop(
    client: Client, reader: EventReader, jobs: Iterator[Tuple[str, Dict[str, Any]]],
    window: int, count: int, settle_timeout: float = 60.0,
) -> Phase:
    """Keep ``window`` jobs outstanding until ``count`` have been sent."""
    phase = Phase(start=time.perf_counter())
    outstanding: List[Submission] = []
    deadline = phase.start + settle_timeout
    while len(phase.subs) < count:
        while len(outstanding) < window and len(phase.subs) < count:
            tenant, body = next(jobs)
            sub = Submission(tenant, body, due=time.perf_counter())
            client.submit(sub)
            phase.subs.append(sub)
            if sub.job_id is not None:
                outstanding.append(sub)
        with reader.cond:
            while outstanding and time.perf_counter() < deadline:
                done = [s for s in outstanding if s.job_id in reader.events.terminal]
                if done:
                    for s in done:
                        outstanding.remove(s)
                    break
                if not reader.is_alive():
                    break
                reader.cond.wait(0.5)
        if time.perf_counter() >= deadline or not reader.is_alive():
            break
    settle(client, reader, phase, max(1.0, deadline - time.perf_counter()))
    return phase


def completion_rate(phase: Phase) -> float:
    """Jobs that reached a terminal state per second of the phase."""
    done = sum(1 for s in phase.subs if s.done_at is not None)
    return done / (phase.end - phase.start) if phase.end > phase.start else 0.0

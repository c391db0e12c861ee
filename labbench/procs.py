"""Subprocesses under test: the service, its TCP workers, and their CPU time.

Every process is started in its own session so that stopping it also
reaches the pool workers it forked.  CPU time is read from ``/proc``:
a process's own user+system time plus what its reaped children
accumulated, plus the live descendants' own time — so a recycled pool
worker's CPU is counted whether it is still running or already gone.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

_TICK = float(os.sysconf("SC_CLK_TCK"))


def set_program_env(root: str) -> None:
    """Point this process and every child it starts at ``root``'s program.

    The program comes from ``root/src`` and the benchmark drivers from
    ``root``; every pool has 2 workers; output is unbuffered (the service's
    address is read from its log); the program's own tracing stays off.
    """
    os.environ["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    os.environ["PYTHONUNBUFFERED"] = "1"
    os.environ["REPRO_JOBS"] = "2"
    for name in ("REPRO_TRACE", "REPRO_TRACE_PATH", "REPRO_METRICS", "REPRO_ENGINE"):
        os.environ.pop(name, None)


def _stat(pid: int) -> Optional[Tuple[int, float, float]]:
    """(ppid, own cpu s, reaped-children cpu s) of ``pid``, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    ppid = int(fields[1])
    own = (int(fields[11]) + int(fields[12])) / _TICK
    children = (int(fields[13]) + int(fields[14])) / _TICK
    return ppid, own, children


def tree_cpu(roots: List[int]) -> float:
    """CPU seconds of ``roots`` (own + reaped children) and live descendants."""
    stats = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                stats[int(name)] = st
    kids: Dict[int, List[int]] = {}
    for pid, (ppid, _, _) in stats.items():
        kids.setdefault(ppid, []).append(pid)
    total = 0.0
    for root in roots:
        if root not in stats:
            continue
        total += stats[root][1] + stats[root][2]
        todo = list(kids.get(root, ()))
        while todo:
            pid = todo.pop()
            total += stats[pid][1]
            todo.extend(kids.get(pid, ()))
    return total


class Proc:
    """One child process in its own session, with output to a log file."""

    def __init__(self, argv: List[str], root: str, log_path: str) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.popen = subprocess.Popen(
            argv, cwd=root, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT, start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.popen.pid

    def wait_for_line(self, pattern: str, deadline: float) -> re.Match:
        regex = re.compile(pattern)
        while time.monotonic() < deadline:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as fh:
                match = regex.search(fh.read())
            if match:
                return match
            if self.popen.poll() is not None:
                raise RuntimeError(f"{self.popen.args[:4]} exited early; see {self.log_path}")
            time.sleep(0.005)
        raise TimeoutError(f"no {pattern!r} in {self.log_path}")

    def stop(self, sig: int = signal.SIGINT, timeout: float = 15.0) -> None:
        """Signal, wait, then kill the whole session if it lingers."""
        if self.popen.poll() is None:
            try:
                self.popen.send_signal(sig)
                self.popen.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.popen.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.popen.wait()
        self._log.close()


class Service:
    """``serve run`` (optionally through the span launcher) plus TCP workers."""

    def __init__(
        self, root: str, workdir: str, tag: str, fabric: bool = False,
        spans_out: Optional[str] = None,
    ) -> None:
        self.store = os.path.join(workdir, f"store-{tag}")
        args = ["serve", "run", "--port", "0", "--store", self.store]
        if fabric:
            args += ["--workers-port", "0"]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro"] + args
        else:
            argv = [sys.executable, "-m", "labbench.launcher", spans_out] + args
        self.t_boot = time.perf_counter()
        self.server = Proc(argv, root, os.path.join(workdir, f"server-{tag}.log"))
        self.workers: List[Proc] = []
        deadline = time.monotonic() + 60.0
        try:
            match = self.server.wait_for_line(r"serving on http://([\d.]+):(\d+)", deadline)
            self.host, self.port = match.group(1), int(match.group(2))
            if fabric:
                match = self.server.wait_for_line(r"worker fabric on ([\d.]+):(\d+)", deadline)
                for i in range(2):
                    self.workers.append(Proc(
                        [sys.executable, "-m", "repro", "worker", match.group(1),
                         match.group(2), "--name", f"w{i}"],
                        root, os.path.join(workdir, f"worker-{tag}-{i}.log"),
                    ))
            self._wait_healthy(deadline)
            if fabric:
                self._wait_workers(deadline)
        except BaseException:
            self.stop()
            raise

    def _get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5.0)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                if self._get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError("service never became healthy")

    def _wait_workers(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            status, body = self._get("/v1/workers")
            if status == 200 and json.loads(body).get("live", 0) >= 2:
                return
            time.sleep(0.01)
        raise TimeoutError("TCP workers never registered")

    def pids(self) -> List[int]:
        return [self.server.pid] + [w.pid for w in self.workers]

    def cpu(self) -> float:
        return tree_cpu(self.pids())

    def stop(self) -> None:
        """Stop the server first (it tells its TCP workers to stop), then them."""
        self.server.stop()
        for worker in self.workers:
            worker.stop(sig=signal.SIGTERM, timeout=10.0)

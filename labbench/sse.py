"""Incremental Server-Sent Events parsing for the load generator.

A socket read can end anywhere: inside a frame, inside a line, even in
the middle of a multi-byte UTF-8 character.  :class:`FrameBuffer` keeps
the unterminated tail as bytes and only decodes complete frames, so no
read boundary can tear an event.  :class:`TerminalEvents` folds ``job``
events into the first time each job was seen in a terminal state.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

#: Job states after which a job never changes again.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class FrameBuffer:
    """Bytes in, complete ``(event, data)`` frames out."""

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, chunk: bytes) -> List[Tuple[str, str]]:
        """Append ``chunk``; return every frame it completed, in order."""
        buf = (self._tail + chunk).replace(b"\r\n", b"\n")
        frames = buf.split(b"\n\n")
        self._tail = frames.pop()
        out = []
        for raw in frames:
            frame = parse_frame(raw.decode("utf-8"))
            if frame is not None:
                out.append(frame)
        return out


def parse_frame(text: str) -> Optional[Tuple[str, str]]:
    """One frame's ``(event, data)``; ``None`` for comment-only frames."""
    event = "message"
    data: List[str] = []
    for line in text.split("\n"):
        if not line or line.startswith(":"):
            continue
        name, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if name == "event":
            event = value
        elif name == "data":
            data.append(value)
    if not data:
        return None
    return event, "\n".join(data)


class TerminalEvents:
    """First-terminal-event times per job, from a stream of SSE frames."""

    def __init__(self) -> None:
        self.terminal: Dict[str, Tuple[float, dict]] = {}
        self.job_events = 0

    def observe(self, frames: List[Tuple[str, str]], now: float) -> None:
        for event, data in frames:
            if event != "job":
                continue
            self.job_events += 1
            job = json.loads(data)["job"]
            if job["state"] in TERMINAL_STATES and job["id"] not in self.terminal:
                self.terminal[job["id"]] = (now, job)


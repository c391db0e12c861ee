"""In-memory spans, self time, and the per-layer budget table.

A span is ``(name, start, end, parent, job)`` with ``perf_counter``
times.  The recorder keeps one open-span stack per thread, so a span
opened inside another on the same thread becomes its child.  Spans stay
in memory and are written out once, when the traced process exits.

A span's *self time* is its duration minus the part of it covered by its
children.  Children may overlap one another (a child on another thread,
or a nested call reported twice), so the covered part is the length of
the union of the child intervals, each clipped to the parent.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    job: Optional[str] = None
    #: Children opened inside this span, and their summed duration
    #: (bookkeeping for the recorder; not written out).
    kids: int = 0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1].id
            stack[-1].kids += 1
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, job)
        stack.append(span)
        return span

    def pop(self, span: Span) -> None:
        """Take ``span`` off its thread's stack without keeping it."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
            if stack:
                stack[-1].child_s += span.duration

    def keep(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.pop(span)
        self.keep(span)


def spans_from_rows(rows: Iterable[Sequence]) -> List[Span]:
    return [Span(*row) for row in rows]


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> self time (duration minus the union of its children)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered((s.start, s.end), children.get(s.id, ()))
        for s in spans
    }


def budget_table(
    title: str,
    unit: str,
    units: int,
    measured_s: float,
    rows: Sequence[Tuple[str, float]],
) -> str:
    """Render a per-``unit`` budget: each row's seconds, then the remainder.

    ``measured_s`` is the end-to-end time the rows are set against (summed
    over all ``units``); whatever the rows do not explain is printed as
    the unattributed remainder, negative when work overlapped.
    """
    units = max(1, units)
    lines = [title, f"  {'layer':<34} {'ms/' + unit:>10} {'share':>8}"]
    attributed = 0.0
    for name, seconds in rows:
        attributed += seconds
        lines.append(_budget_line(name, seconds, units, measured_s))
    lines.append(_budget_line("unattributed", measured_s - attributed, units, measured_s))
    lines.append(_budget_line("measured", measured_s, units, measured_s))
    return "\n".join(lines)


def _budget_line(name: str, seconds: float, units: int, measured_s: float) -> str:
    share = 100.0 * seconds / measured_s if measured_s > 0 else 0.0
    return f"  {name:<34} {1e3 * seconds / units:>10.3f} {share:>7.1f}%"


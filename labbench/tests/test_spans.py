"""Self time is a span minus the union of its (possibly overlapping) children."""

import pytest

from labbench.layers import dispatch_overheads
from labbench.spans import Span, SpanRecorder, covered, self_times


def test_covered_merges_overlapping_children_and_clips_to_parent():
    # [1,4] and [3,6] overlap -> [1,6]; [8,12] is clipped to [8,10].
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(7.0)
    assert covered((0.0, 10.0), [(2.0, 3.0), (2.5, 2.6)]) == pytest.approx(1.0)
    assert covered((0.0, 10.0), [(-5.0, -1.0), (11.0, 12.0)]) == 0.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_times_with_overlapping_children_and_grandchildren():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),   # overlaps a (another thread)
        Span(4, "c", 8.0, 12.0, parent=1),  # runs past its parent
        Span(5, "a.1", 1.5, 2.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(0.5)


def test_recorder_parents_by_thread_stack_and_tracks_child_time():
    rec = SpanRecorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert inner.parent == outer.id and outer.parent is None
    assert outer.kids == 1
    assert outer.child_s == pytest.approx(inner.duration)
    assert [s.name for s in rec.spans] == ["inner", "outer"]


def test_dispatch_overhead_removes_queue_wait_behind_the_same_worker():
    # Two tasks submitted together to worker 1: the second waits for the
    # first's completion (t=1.0) before it can start.
    events = [
        [1.0, 0.0, "a", "ok", 1, 0.9, "pool"],
        [2.1, 0.0, "b", "ok", 1, 1.0, "pool"],
        [5.0, 4.0, "c", "ok", 2, 0.5, "net"],
    ]
    assert dispatch_overheads(events, "pool") == pytest.approx([0.1, 0.1])
    assert dispatch_overheads(events, "net") == pytest.approx([0.5])

"""Terminal SSE events survive frames torn at any byte."""

import json

from labbench.sse import FrameBuffer, TerminalEvents, parse_frame


def _event(event, payload):
    return f"event: {event}\ndata: {json.dumps(payload, ensure_ascii=False)}\n\n"


def _job(job_id, state, note="ok"):
    return {"schema": "repro.serve/1", "job": {"id": job_id, "state": state, "error": note}}


STREAM = (
    ": ping\n\n"
    + _event("snapshot", {"seq": 1})
    + _event("job", _job("job-0001", "running"))
    + _event("workers", {"live": 2})
    + _event("job", _job("job-0001", "done", note="fertig — ünïcode"))
    + ": ping\n\n"
    + _event("job", _job("job-0002", "failed"))
    + _event("job", _job("job-0001", "done", note="late duplicate"))
    + _event("job", _job("job-0003", "running"))
).encode("utf-8")


def _collect(chunks):
    buf, terminal = FrameBuffer(), TerminalEvents()
    for i, chunk in enumerate(chunks):
        terminal.observe(buf.feed(chunk), now=float(i))
    return terminal


def test_whole_stream_yields_first_terminal_event_per_job():
    terminal = _collect([STREAM])
    assert sorted(terminal.terminal) == ["job-0001", "job-0002"]
    assert terminal.terminal["job-0001"][1]["error"] == "fertig — ünïcode"
    assert terminal.job_events == 5


def test_every_two_way_split_gives_the_same_terminal_events():
    whole = _collect([STREAM]).terminal
    for cut in range(1, len(STREAM)):
        torn = _collect([STREAM[:cut], STREAM[cut:]]).terminal
        assert {k: v[1] for k, v in torn.items()} == {k: v[1] for k, v in whole.items()}, cut


def test_byte_at_a_time_feed_tears_utf8_runes_and_frames():
    chunks = [STREAM[i:i + 1] for i in range(len(STREAM))]
    terminal = _collect(chunks)
    assert terminal.terminal["job-0001"][1]["error"] == "fertig — ünïcode"
    assert "job-0003" not in terminal.terminal


def test_terminal_time_is_when_the_frame_completed():
    frame = _event("job", _job("job-0009", "cancelled")).encode("utf-8")
    terminal = _collect([frame[:10], frame[10:-1], frame[-1:]])
    assert terminal.terminal["job-0009"][0] == 2.0


def test_crlf_frames_and_comments():
    assert parse_frame(": just a comment") is None
    buf = FrameBuffer()
    frames = buf.feed(b"event: job\r\ndata: {}\r\n\r\nevent: x\r\n")
    assert frames == [("job", "{}")]
    assert buf.feed(b"data: 1\r\n\r\n") == [("x", "1")]

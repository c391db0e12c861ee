"""Cross-process execution counters for pool-task tests.

A task records each execution as one fixed-size line appended through
``O_APPEND``.  The kernel serialises appends, so executions running at
once in different worker processes can neither lose nor double-count a
run, as a read-modify-write counter file can.
"""

import os

_LINE = b"x\n"


def mark_run(marker_dir, name):
    """Record one execution of ``name``; return its ordinal (1 = first)."""
    fd = os.open(
        os.path.join(marker_dir, f"{name}.count"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
    )
    try:
        os.write(fd, _LINE)
        # The descriptor's offset is the end of this process's own append.
        return os.lseek(fd, 0, os.SEEK_CUR) // len(_LINE)
    finally:
        os.close(fd)


def run_count(marker_dir, name):
    """How many executions of ``name`` were recorded."""
    path = os.path.join(marker_dir, f"{name}.count")
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        return fh.read().count(_LINE)

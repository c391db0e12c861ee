"""Record helpers shared by the engine-equivalence and parity oracle tests."""


def key_orders(machine):
    """Key order of every per-phase mapping, which ``==`` on dicts ignores."""
    fields = ("reads_per_proc", "writes_per_proc", "ops_per_proc",
              "read_queue", "write_queue")
    return (
        [[list(getattr(record, f)) for f in fields] for record in machine.history],
        [[list(trace.reads), list(trace.writes)] for trace in machine.traces],
    )

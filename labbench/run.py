"""The lab benchmark's one command.

    python3 labbench/run.py --workload reproduce --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  It prints the workload's report,
every metric with its unit, and the outcome checks; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes a separate traced pass and reports the
per-layer metrics and a budget table.  See labbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="labbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A shell starts background jobs with SIGINT ignored and children inherit
    # that; the services are stopped with SIGINT, so give it a handler, which
    # the children see as the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [
        p for p in sys.path if os.path.abspath(p or ".") != here
    ]
    from labbench.procs import set_program_env

    set_program_env(ROOT)  # before the program is imported: it reads REPRO_TRACE
    from labbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".labbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), ROOT, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = result.outcomes
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'})")
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"outcome checks: {'PASS' if result.correct else 'FAIL'}; "
          f"attempted {out.attempted}, errors {out.failed} "
          f"(error_rate {out.error_rate:.4f})"
          + (f" {out.errors}" if out.errors else ""))
    for note in out.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

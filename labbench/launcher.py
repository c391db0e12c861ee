"""Run ``python -m repro`` with the benchmark's span hooks installed.

Usage: ``python -m labbench.launcher OUT.json serve run [flags...]``.
The hooks wrap the public calls listed in :mod:`labbench.hooks`, then
the program's own CLI runs exactly as ``python -m repro`` would.  When
it returns (``serve run`` returns on SIGINT after stopping the service)
everything recorded is written to ``OUT.json``.
"""

from __future__ import annotations

import sys

from labbench.hooks import install


def main(argv) -> int:
    out, rest = argv[0], argv[1:]
    hooks = install()
    from repro.cli import main as repro_main

    try:
        return repro_main(rest)
    finally:
        hooks.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

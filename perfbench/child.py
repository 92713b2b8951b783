"""One benchmark operation: a fresh process running the sigvol CLI.

Usage: python3 perfbench/child.py INFO TRACE [sigvol arguments...]

Imports `sigvol.cli` (from PYTHONPATH), notes the monotonic time at which
the import finished, and runs `cli.execute` on the arguments exactly as the
`sigvol` entry point does.  With TRACE=1 the tracing wrappers are installed
first and the spans are saved to INFO.npz.  Without arguments it only
imports, which is how the benchmark samples set-up time.  The times are
written to INFO as JSON; the exit code is the CLI's.
"""

import json
import sys
import time

from sigvol import cli

_READY = time.monotonic()


def main() -> int:
    info, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if traced:
        import tracing  # sits beside this script, which is on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        return cli.execute(argv) if argv else 0
    finally:
        done = time.monotonic()
        if tracer is not None:
            tracer.save(info + ".npz")
        with open(info, "w", encoding="utf-8") as fh:
            json.dump({"ready": _READY, "done": done}, fh)


if __name__ == "__main__":
    sys.exit(main())

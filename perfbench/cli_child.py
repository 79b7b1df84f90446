"""Run one circuitbench command under the tracer and write its layer totals.

Usage: python3 perfbench/cli_child.py OUT.json <circuitbench argv...>

Stdout and the exit code are the command's own.  OUT.json receives the
import time of circuitbench.cli, the per-layer aggregates, and the layers
that could not be wrapped.
"""

import json
import sys
import time

t0 = time.perf_counter()
import circuitbench.cli as cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "layers": tracer.summary(), "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

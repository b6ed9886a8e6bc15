"""Traced CLI child: ``python cli_child.py <supersdet arguments>``.

Imports ``supersdet.cli``, installs the tracer, runs ``supersdet.cli.main``
on the arguments with tracing on, and writes the trace summary as the last
line of standard error, after the marker below.  Standard output is the
CLI's own, byte for byte.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer

MARKER = "benchmark-trace "


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import supersdet.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.on = True
    try:
        code = supersdet.cli.main(sys.argv[1:])
    finally:
        tracer.on = False
        sys.stdout.flush()
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        sys.stderr.write(MARKER + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

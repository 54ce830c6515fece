"""Run one fblab command with spans.Tracer installed, for traced cli rounds.

    python3 perfbench/traced_cli.py TRACE_JSON <fblab arguments...>

Behaves like the `fblab` console script, and writes the spans and counts
of the command to TRACE_JSON when it ends.  Needs fblab on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

from fblab import cli

import spans


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        tracer.uninstall()
        Path(trace_path).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


if __name__ == "__main__":
    sys.exit(main())

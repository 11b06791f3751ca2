"""Run the hrsp CLI in this process with the span tracer installed.

    python perfbench/launcher.py SPANS_JSON OP_ID -- <hrsp CLI arguments>

Calls hrsp.cli.main with the arguments after ``--``, writes the recorded
spans to SPANS_JSON when main returns or raises, and exits with main's code.
"""

from __future__ import annotations

import json
import sys

import hrsp.cli
from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        return hrsp.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

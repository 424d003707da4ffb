"""Run one hypermat command with the span recorder installed.

Usage: python3 perfbench/traced_cli.py SPANS_FILE OP ARGS...

Prints what ``hypermat ARGS...`` prints and exits with its code; the spans
and counters recorded in this process, tagged with op number OP, are
written to SPANS_FILE.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out, op, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    recorder = spans.Recorder(op)
    recorder.install()
    from hypermat import cli

    try:
        return cli.main(argv)
    finally:
        recorder.uninstall()
        out.write_text(json.dumps(recorder.dump()))


if __name__ == "__main__":
    sys.exit(main())

"""Run the curve-mates command line under the span recorder.

    PYTHONPATH=src python3 perfbench/launch.py SPANS_FILE COMMAND-ARGS...

Behaves as ``curve-mates COMMAND-ARGS...`` (same output, exit code and
traceback) and writes the spans of the call to SPANS_FILE when it ends.
"""

import sys

from tracer import Tracer, write_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from curvemates import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        write_spans(spans_path, [tracer.take()])


if __name__ == "__main__":
    sys.exit(main())

"""Run the radmul command line under the span tracer, then dump the spans.

Usage: python3 radbench/traced_verify.py SPANS_JSON RADMUL_ARGS...

The exit code and every file the command writes are those of the untraced
``radmul`` command; the tracer only observes.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from radmul.cli import main as radmul_main
    try:
        return tracer.call("root", radmul_main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

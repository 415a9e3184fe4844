"""Run ``repro.cli serve`` with the benchmark's span wrappers installed.

    python3 perfbench/launcher.py --spans OUT.json -- serve --rmat-scale 11 ...

Everything after ``--`` is passed to ``repro.cli.main``.  The spans are
written to ``OUT.json`` when the server exits (on SIGINT).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.spans import SpanRecorder, install_layer_spans
    from repro import cli

    recorder = SpanRecorder()
    install_layer_spans(recorder, wire=True)
    try:
        return cli.main(argv[3:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

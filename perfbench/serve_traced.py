"""Start ``python -m repro serve`` with the span recorder installed.

Usage: ``PYTHONPATH=src python perfbench/serve_traced.py SPANS_JSON serve
[serve options...]``.
Runs the repository's own CLI entry point after wrapping every layer (see
``tracing.install``) and writes the recorded spans to ``SPANS_JSON`` when
the server stops (on SIGINT, as the benchmark stops it).
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        with open(spans_path, "w") as f:
            json.dump(recorder.to_jsonable(), f)


if __name__ == "__main__":
    sys.exit(main())

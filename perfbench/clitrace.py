"""Traced stand-in for ``python -m heisenmod.cli`` in a fresh interpreter.

Usage: python3 perfbench/clitrace.py <trace-out.json> <cli arguments...>

Times ``import heisenmod.cli``, installs the tracer, calls
``heisenmod.cli.main(argv)`` inside a ``cli.main`` span and writes the spans
and counters to the given JSON file. Stdout and the exit code are the CLI's.
"""

from __future__ import annotations

import json
import sys
import time

from spans import CLI_MAIN, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import heisenmod.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    sid = tracer.open(CLI_MAIN)
    try:
        return heisenmod.cli.main(argv)
    finally:
        tracer.close(sid)
        tracer.harvest_caches()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)


if __name__ == "__main__":
    raise SystemExit(main())

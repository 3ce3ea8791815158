"""Start ``repro serve`` with its result-cache operations timed.

    python3 perfbench/serve_traced.py OPS.json serve --port 0 [serve flags]

Traced benchmark runs start their servers through this script instead
of ``python -m repro serve``: it wraps ``ResultCache.get``/``put`` in
this process, runs the normal CLI, and when the server exits (SIGTERM
runs its graceful close path) writes every operation to ``OPS.json`` as
``[kind, start, seconds, hit]`` rows, ``start`` on the monotonic clock
the benchmark shares.  Untraced runs never load it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    from repro.cli import main as cli_main
    from repro.engine.cache import ResultCache

    ops: list[tuple[str, float, float, bool]] = []
    get, put = ResultCache.get, ResultCache.put

    def timed_get(self, key):
        start = time.monotonic()
        record = get(self, key)
        ops.append(("get", start, time.monotonic() - start, record is not None))
        return record

    def timed_put(self, key, record):
        start = time.monotonic()
        put(self, key, record)
        ops.append(("put", start, time.monotonic() - start, False))

    ResultCache.get = timed_get
    ResultCache.put = timed_put
    try:
        return cli_main(argv[1:])
    finally:
        out.write_text(json.dumps(ops))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

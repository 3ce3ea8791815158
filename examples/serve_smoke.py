"""Serving smoke test: start ``repro serve``, stream a batch, verify dedupe.

Starts a real ``repro serve`` subprocess on an ephemeral port, POSTs a
batch (three distinct tasks plus one duplicate) through the urllib
client, and checks the serving contract end to end:

* results come back as JSONL **in task order**;
* the duplicate digest is deduped server-side (``cached`` on first POST);
* re-POSTing the same batch hits the shared result cache for every task;
* ``/batch`` streams **incrementally**: with one deliberately slow task
  at the tail (a pure-Python reference-simplex LP capped by its
  ``timeout``), the first JSONL line reaches the client seconds before
  the last one — finished results are never held back by a slow
  neighbour;
* ``GET /metrics`` scraped **mid-batch** answers well-formed Prometheus
  exposition text showing the live stream (``repro_streams_in_flight``),
  and ``GET /stats`` answers the same registry as JSON.

CI runs this as the serving-smoke leg; it is also the minimal usage
example for :mod:`repro.serve`.
"""

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.core import Instance
from repro.instances import SWEEP_GENERATORS
from repro.serve import ServeClient, task_request

#: Budget for the deliberately slow task; the incremental-arrival
#: assertion keys off it (first line << SLOW_TIMEOUT, last line >= it).
SLOW_TIMEOUT = 2.5


def start_server(cache_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve --port 0`` and return (process, base URL)."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "2", "--cache-dir", cache_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"listening on (http://\S+)", banner)
    if not match:
        proc.terminate()
        raise RuntimeError(f"server did not announce a URL: {banner!r}")
    return proc, match.group(1)


def check_incremental_streaming(client: ServeClient) -> None:
    """First JSONL line must arrive long before the slow tail task ends.

    The slow task is deterministic: LP rounding through the pure-Python
    ``reference`` simplex on a 100-job instance takes far longer than
    ``SLOW_TIMEOUT``, and its per-task timeout (soft SIGALRM inside the
    worker, hard watchdog above it) cuts it off at ~``SLOW_TIMEOUT``
    seconds — so the batch's last line cannot arrive before then, while
    the two tiny leading tasks stream out immediately.
    """
    big = SWEEP_GENERATORS["active"](100, 200, 3, 7)
    requests = [
        task_request(Instance.from_tuples([(0, 5, 2), (1, 7, 3)]),
                     "active", 2, algorithm="minimal"),
        task_request(Instance.from_tuples([(0, 4, 1), (2, 9, 3)]),
                     "active", 2, algorithm="minimal"),
        task_request(big, "active", 3, algorithm="rounding",
                     backend="reference", timeout=SLOW_TIMEOUT),
    ]
    start = time.monotonic()
    arrivals = [
        (result.index, time.monotonic() - start, result.ok)
        for result in client.batch(requests)
    ]
    assert [index for index, _, _ in arrivals] == [0, 1, 2], arrivals
    first, last = arrivals[0][1], arrivals[-1][1]
    assert first < SLOW_TIMEOUT * 0.8, (
        f"first line took {first:.2f}s; streaming is not incremental"
    )
    assert last >= SLOW_TIMEOUT * 0.9, (
        f"slow task finished in {last:.2f}s; it no longer pins the tail"
    )
    slow = arrivals[-1]
    assert not slow[2], "the timeout-capped task should report a failure"
    print(
        f"incremental : first line {first:.2f}s, "
        f"last line {last:.2f}s after POST (slow tail capped at "
        f"{SLOW_TIMEOUT:g}s)"
    )


def check_metrics_scrape(client: ServeClient) -> None:
    """``GET /metrics`` answers valid Prometheus text *during* a batch.

    A batch with a deliberately slow tail keeps a stream open for
    seconds; once its first JSONL line proves the batch is live, the
    scrape must show ``repro_streams_in_flight >= 1`` and a well-formed
    exposition (every line a ``# HELP``/``# TYPE`` comment or a
    ``name[{labels}] value`` series with a parseable value).
    """
    big = SWEEP_GENERATORS["active"](100, 200, 3, 11)
    requests = [
        task_request(Instance.from_tuples([(0, 5, 2), (1, 7, 3)]),
                     "active", 2, algorithm="minimal"),
        task_request(big, "active", 3, algorithm="rounding",
                     backend="reference", timeout=SLOW_TIMEOUT),
    ]
    arrivals: list[object] = []

    def consume() -> None:
        # The client keeps one keep-alive connection per thread; this
        # thread's must be closed here, by the thread that opened it.
        try:
            for result in client.batch(requests):
                arrivals.append(result)
        finally:
            client.close()

    consumer = threading.Thread(target=consume)
    consumer.start()
    try:
        deadline = time.monotonic() + 30
        while not arrivals and time.monotonic() < deadline:
            time.sleep(0.05)
        assert arrivals, "batch produced no line within 30s"
        text = client.metrics()
    finally:
        consumer.join(timeout=60)
    assert not consumer.is_alive(), "batch consumer hung"

    lines = text.splitlines()
    assert lines, "empty exposition"
    series_re = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (\S+)$"
    )
    seen: dict[str, float] = {}
    for line in lines:
        assert line and line == line.strip(), f"malformed line {line!r}"
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        match = series_re.match(line)
        assert match, f"malformed series line {line!r}"
        raw = match.group(2)
        value = float("inf") if raw == "+Inf" else float(raw)
        seen[line.split("{")[0].split(" ")[0]] = value
    for needed in (
        "repro_streams_in_flight",
        "repro_tasks_total",
        "repro_task_seconds_bucket",
        "repro_cache_misses_total",
    ):
        assert needed in seen, f"required series {needed} missing"
    assert seen["repro_streams_in_flight"] >= 1, (
        "scrape overlapped a live batch; streams_in_flight must show it"
    )

    stats = client.stats()
    assert stats["ok"] and "task_seconds" in stats, stats
    print(
        f"metrics     : {len(lines)} exposition lines scraped mid-batch, "
        f"streams_in_flight={seen['repro_streams_in_flight']:g}"
    )


def main() -> None:
    instances = [
        Instance.from_tuples([(0, 4, 2), (1, 5, 3)]),
        Instance.from_tuples([(0, 3, 1), (2, 6, 2), (1, 4, 2)]),
        Instance.from_tuples([(0, 2, 1), (0, 5, 2)]),
    ]
    requests = [
        task_request(inst, "active", 3, algorithm="minimal", meta={"pos": i})
        for i, inst in enumerate(instances)
    ]
    # a duplicate digest: same instance/coordinates as task 0
    requests.append(
        task_request(instances[0], "active", 3, algorithm="minimal",
                     meta={"pos": 3})
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        proc, url = start_server(cache_dir)
        client = ServeClient(url, http_timeout=120.0)
        try:
            algos = client.algos()
            assert "minimal" in algos["problems"]["active"], algos["problems"]
            print(f"server at {url}: "
                  f"{len(algos['solvers'])} solvers, "
                  f"{len(algos['backends'])} backends")

            first = list(client.batch(requests))
            assert [r.index for r in first] == [0, 1, 2, 3], first
            assert all(r.ok for r in first), [r.error for r in first]
            assert first[3].cached, "duplicate digest was not deduped"
            assert first[3].objective == first[0].objective
            print("first batch : ordered, duplicate deduped server-side")

            second = list(client.batch(requests))
            assert [r.index for r in second] == [0, 1, 2, 3], second
            assert all(r.cached for r in second), second
            print("second batch: every task served from the shared cache")

            # 4 cache hits: every task of the second batch (the first
            # batch's duplicate is deduped in-run, not via the cache).
            health = client.health()
            assert health["ok"] and health["cache"]["hits"] >= 4, health
            print(f"serve smoke OK: {health['tasks_served']} tasks served, "
                  f"{health['cache']['hits']} cache hits")

            check_incremental_streaming(client)
            check_metrics_scrape(client)
        finally:
            client.close()
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


if __name__ == "__main__":
    main()  # assertion failures exit non-zero; success exits 0

"""Satellite: scrape ``GET /metrics`` while a ``/batch`` is streaming and
validate the Prometheus exposition text line by line.

A real server runs in-process (ThreadingHTTPServer), so the scrape and
the batch genuinely overlap; the slow test solver makes "mid-batch" a
window wide enough to hit deterministically.
"""

import http.client
import json
import math
import re
import threading
import time

import pytest

from repro.core import Instance
from repro.engine import REGISTRY, ResultCache
from repro.engine.registry import SolveOutcome, SolverSpec
from repro.serve import ServeClient, create_server, task_request

_SLOW_SECONDS = 0.6


def _slow_solver(instance, g, **params):
    time.sleep(_SLOW_SECONDS)
    return SolveOutcome(objective=float(g))


@pytest.fixture
def slow_solver():
    name = "slow-metrics-test"
    if ("active", name) not in REGISTRY:
        REGISTRY.register(
            SolverSpec(
                problem="active",
                name=name,
                solve=_slow_solver,
                exact=False,
                guarantee="-",
                complexity="-",
                description="sleeps then answers (test only)",
            )
        )
    yield name
    REGISTRY._specs.pop(("active", name), None)


@pytest.fixture(scope="module")
def server():
    srv = create_server(port=0, jobs=1, cache=ResultCache())
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def client(server):
    client = ServeClient(server.url)
    yield client
    client.close()


@pytest.fixture
def inst():
    return Instance.from_tuples([(0, 4, 2), (1, 5, 3)])


# ---------------------------------------------------------------------------
# Exposition-text validation helpers

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SERIES_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)  # raises (failing the test) on malformed values


def _parse_exposition(text):
    """Validate every line; return (series, helps, types).

    ``series`` maps ``(name, frozenset(labels))`` to the parsed value;
    label order inside the line must not matter to a scraper.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    series = {}
    helps, types = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        assert line == line.strip(), f"line {lineno}: stray whitespace"
        assert line, f"line {lineno}: blank line in exposition"
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            assert _METRIC_NAME.match(name), f"line {lineno}: {name!r}"
            helps[name] = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"line {lineno}: malformed TYPE"
            name, kind = parts[2], parts[3]
            assert _METRIC_NAME.match(name), f"line {lineno}: {name!r}"
            assert kind in ("counter", "gauge", "histogram"), kind
            types[name] = kind
            continue
        assert not line.startswith("#"), f"line {lineno}: unknown comment"
        match = _SERIES_LINE.match(line)
        assert match, f"line {lineno}: malformed series line {line!r}"
        labels = {}
        raw = match.group("labels")
        if raw is not None:
            joined = ",".join(
                f'{m.group("name")}="{m.group("value")}"'
                for m in _LABEL_PAIR.finditer(raw)
            )
            assert joined == raw, f"line {lineno}: malformed labels {raw!r}"
            labels = {
                m.group("name"): m.group("value")
                for m in _LABEL_PAIR.finditer(raw)
            }
        key = (match.group("name"), frozenset(labels.items()))
        assert key not in series, f"line {lineno}: duplicate series {key}"
        series[key] = _parse_value(match.group("value"))
    return series, helps, types


def _base_name(name, types):
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            return base
    return name


def _assert_histograms_well_formed(series, types):
    """Cumulative non-decreasing buckets ending at +Inf == _count."""
    buckets = {}
    for (name, labelset), value in series.items():
        base = _base_name(name, types)
        if types.get(base) != "histogram" or not name.endswith("_bucket"):
            continue
        labels = dict(labelset)
        le = labels.pop("le")
        buckets.setdefault((base, frozenset(labels.items())), []).append(
            (_parse_value(le), value)
        )
    assert buckets, "no histogram buckets in exposition"
    for (base, labelset), edges in buckets.items():
        edges.sort(key=lambda pair: pair[0])
        counts = [count for _, count in edges]
        assert counts == sorted(counts), f"{base}: non-cumulative buckets"
        assert edges[-1][0] == math.inf, f"{base}: missing +Inf bucket"
        count_key = (base + "_count", labelset)
        assert count_key in series, f"{base}: missing _count series"
        assert (base + "_sum", labelset) in series, f"{base}: missing _sum"
        assert edges[-1][1] == series[count_key], (
            f"{base}: +Inf bucket must equal _count"
        )


def _value(series, name, **labels):
    return series.get((name, frozenset({
        k: str(v) for k, v in labels.items()
    }.items())))


# ---------------------------------------------------------------------------


class TestMetricsDuringLiveBatch:
    def test_scrape_mid_batch_sees_stream_in_flight(
        self, server, client, inst, slow_solver
    ):
        requests = [
            task_request(inst, "active", g, algorithm=slow_solver)
            for g in (2, 3, 4)
        ]
        lines = []

        def consume():
            try:
                for result in client.batch(requests):
                    lines.append(result)
            finally:
                client.close()  # this thread's connection

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            # Wait until the first result proves the batch is live,
            # then scrape while tasks two and three are still solving.
            deadline = time.monotonic() + 30
            while not lines and time.monotonic() < deadline:
                time.sleep(0.02)
            assert lines, "batch produced nothing within 30s"
            text = client.metrics()
        finally:
            consumer.join(timeout=30)
        assert not consumer.is_alive()

        series, helps, types = _parse_exposition(text)
        in_flight = _value(series, "repro_streams_in_flight")
        assert in_flight is not None and in_flight >= 1, (
            "scrape overlapped a live batch; streams_in_flight must show it"
        )
        assert len(lines) == len(requests)

    def test_exposition_is_valid_line_by_line(self, client, inst):
        # At least one solve on the books so histograms have data.
        client.solve(inst, "active", 2, algorithm="minimal")
        text = client.metrics()
        series, helps, types = _parse_exposition(text)
        # every series belongs to a typed, documented family
        for name, _ in series:
            base = _base_name(name, types)
            assert base in types, f"series {name} has no # TYPE"
            assert base in helps, f"series {name} has no # HELP"
        _assert_histograms_well_formed(series, types)

    def test_required_series_present_after_solves(self, client, inst):
        client.solve(inst, "active", 3, algorithm="minimal")
        series, _, types = _parse_exposition(client.metrics())
        assert _value(series, "repro_tasks_total", status="ok") >= 1
        assert types.get("repro_task_seconds") == "histogram"
        assert types.get("repro_queue_wait_seconds") == "histogram"
        assert _value(series, "repro_queue_depth") == 0
        assert _value(series, "repro_cache_misses_total") >= 1
        # repeat -> a cache hit on the serving path
        client.solve(inst, "active", 3, algorithm="minimal")
        series, _, _ = _parse_exposition(client.metrics())
        assert _value(series, "repro_cache_hits_total", layer="memory") >= 1

    def test_metrics_content_type_and_raw_get(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "version=0.0.4" in response.getheader("Content-Type")
        assert int(response.getheader("Content-Length")) == len(
            body.encode("utf-8")
        )


class TestStatsEndpoint:
    def test_stats_digest_shape(self, client, inst):
        client.solve(inst, "active", 2, algorithm="minimal")
        stats = client.stats()
        assert stats["ok"] is True
        for key in (
            "jobs",
            "batches_served",
            "tasks_served",
            "queue_depth",
            "streams_in_flight",
            "tasks",
            "queue_wait_seconds",
            "task_seconds",
            "backend_solve_seconds",
            "cache",
        ):
            assert key in stats, key
        assert stats["tasks"].get("ok", 0) >= 1
        assert "hits" in stats["cache"]

    def test_stats_is_strict_json(self, server):
        # NaN/Infinity are not JSON; the digest must stay parseable by
        # a strict decoder even when histograms are empty (mean = NaN).
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/stats")
            response = conn.getresponse()
            body = response.read().decode("utf-8")
        finally:
            conn.close()
        assert response.status == 200
        parsed = json.loads(body, parse_constant=pytest.fail)
        assert parsed["ok"] is True

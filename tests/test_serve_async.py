"""Tests for the asyncio serving tier's new behaviors.

``test_serve.py`` pins the wire contract (it runs unmodified against the
asyncio server); this file covers what the rewrite *added*: the bounded
``/batch`` backpressure buffer, the configurable write-stall disconnect,
urgent ``/solve`` priority leases, connection accounting
(``/healthz`` ``connections``, ``--max-connections`` 503s), keep-alive
at soak scale, and the new ``repro serve`` CLI flags.
"""

import asyncio
import contextlib
import http.client
import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.cli import _build_parser
from repro.core import Instance
from repro.engine import REGISTRY
from repro.engine.registry import SolveOutcome, SolverSpec
from repro.obs import REGISTRY as OBS
from repro.serve import ServeClient, create_server, task_request
from repro.serve.server import _BatchBridge

_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test registers a solver that only fork-children inherit",
)

#: Sleep used by the test-only slow solver; latency assertions key off it.
_SLOW_SECONDS = 0.4


def _slow_solver(instance, g, **params):
    time.sleep(_SLOW_SECONDS)
    return SolveOutcome(objective=float(g))


@pytest.fixture
def slow_solver():
    name = "slow-async-test"
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


@contextlib.contextmanager
def _server(**kwargs):
    srv = create_server(port=0, **kwargs)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5.0)


def _instances(count, seed=0):
    """Distinct small instances (solver cost grows with the horizon, so
    distinctness comes from modular offsets, not growing coordinates)."""
    return [
        Instance.from_tuples([
            (0, 4 + (seed + i) % 7, 2),
            (1, 9 + (seed + i) % 11, 3),
            (2, 6 + (seed + i) % 5, 1),
        ])
        for i in range(count)
    ]


def _get_json(srv, path):
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Raw chunked-response plumbing (reading *partially* is the whole point
# of the backpressure tests, so http.client's eager dechunking is out).
# ----------------------------------------------------------------------

def _send_batch(sock, requests):
    body = "".join(json.dumps(r) + "\n" for r in requests).encode()
    sock.sendall(
        b"POST /batch HTTP/1.1\r\nHost: t\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


def _read_response_head(f):
    status = int(f.readline().split()[1])
    headers = {}
    while True:
        line = f.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers


def _read_chunk(f):
    """One chunk (= one JSONL result line), or ``b""`` at end-of-stream."""
    size = int(f.readline().strip() or b"0", 16)
    if size == 0:
        f.readline()
        return b""
    data = f.read(size)
    f.readline()
    return data


class TestBatchBridge:
    """The bounded thread→loop bridge behind every /batch response."""

    def test_put_blocks_at_cap_until_consumed(self):
        loop = asyncio.new_event_loop()
        try:
            bridge = _BatchBridge(loop, maxsize=2)
            progress = []

            def produce():
                for i in range(5):
                    bridge.put(i)
                    progress.append(i)
                bridge.finish()

            thread = threading.Thread(target=produce, daemon=True)
            thread.start()
            assert _wait_until(lambda: len(progress) == 2, timeout=5.0)
            time.sleep(0.2)
            assert len(progress) == 2, "producer ran past the cap"

            got = [loop.run_until_complete(bridge.get()) for _ in range(2)]
            assert got == [0, 1]
            # each consume admits exactly one more put; the last one
            # stays blocked until the consumer frees another slot
            assert _wait_until(lambda: len(progress) == 4, timeout=5.0)
            time.sleep(0.2)
            assert len(progress) == 4
            rest = [loop.run_until_complete(bridge.get()) for _ in range(3)]
            assert rest == [2, 3, 4]
            assert loop.run_until_complete(bridge.get()) is None
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            loop.close()

    def test_blocked_put_counts_a_backpressure_stall(self):
        loop = asyncio.new_event_loop()
        try:
            before = OBS.value("repro_serve_backpressure_stalls_total")
            bridge = _BatchBridge(loop, maxsize=1)
            bridge.put(0)
            blocked = threading.Thread(
                target=bridge.put, args=(1,), daemon=True
            )
            blocked.start()
            assert _wait_until(
                lambda: OBS.value("repro_serve_backpressure_stalls_total")
                > before,
                timeout=5.0,
            )
            bridge.cancel()
            blocked.join(timeout=5.0)
            assert not blocked.is_alive()
        finally:
            loop.close()

    def test_cancel_unblocks_producer_with_false(self):
        loop = asyncio.new_event_loop()
        try:
            bridge = _BatchBridge(loop, maxsize=1)
            outcomes = []

            def produce():
                outcomes.append(bridge.put("a"))
                outcomes.append(bridge.put("b"))  # blocks, then cancelled

            thread = threading.Thread(target=produce, daemon=True)
            thread.start()
            assert _wait_until(lambda: len(outcomes) == 1, timeout=5.0)
            bridge.cancel()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert outcomes == [True, False]
            assert bridge.put("c") is False, "cancel must be sticky"
        finally:
            loop.close()


class TestBackpressureCap:
    def test_stalled_reader_bounds_buffered_results(self):
        """A reader that stops consuming pins at most ``batch_buffer``
        engine results (plus transport slack) while other connections'
        requests keep flowing — then drains to a complete, ordered
        stream once it resumes."""
        total = 40
        cap = 3
        # tcp_wmem autotunes the server's kernel send buffer up to 4 MiB
        # on Linux; result lines must overflow that for the stall to
        # surface, so make each ~400 KB (16 MB of results overall)
        blob = "x" * 400_000
        with _server(jobs=1, batch_buffer=cap) as srv:
            base = _get_json(srv, "/stats")[1]
            requests = [
                task_request(
                    inst, "active", 2, algorithm="minimal",
                    meta={"pos": i, "blob": blob},
                )
                for i, inst in enumerate(_instances(total, seed=500))
            ]
            host, port = srv.server_address[:2]
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
            sock.settimeout(60)
            sock.connect((host, port))
            f = sock.makefile("rb")
            try:
                _send_batch(sock, requests)
                status, headers = _read_response_head(f)
                assert status == 200
                assert headers.get("transfer-encoding") == "chunked"
                first = json.loads(_read_chunk(f))
                assert first["index"] == 0
                # -- stall: stop reading, watch the server-side plateau
                last = -1
                stable = 0
                deadline = time.monotonic() + 20
                while stable < 3 and time.monotonic() < deadline:
                    time.sleep(0.4)
                    served = _get_json(srv, "/stats")[1]["tasks_served"]
                    stable = stable + 1 if served == last else 0
                    last = served
                assert stable >= 3, "tasks_served never plateaued"
                produced = last - base["tasks_served"]
                # cap + results sunk into socket/transport buffers
                # (≤ ~4.2 MB ≈ 11 lines) + producer/consumer in-hand
                # results + read slack; far below `total`
                assert produced <= cap + 15, produced
                assert produced < total, "engine ran ahead of the cap"
                stalls = _get_json(srv, "/stats")[1]["backpressure_stalls"]
                assert stalls > base["backpressure_stalls"]

                # -- other connections flow while this one is stalled
                with contextlib.closing(ServeClient(srv.url)) as client:
                    inst = _instances(1, seed=900)[0]
                    result = client.solve(
                        inst, "active", 2, algorithm="minimal"
                    )
                    assert result.ok
                    side = list(client.batch([
                        task_request(i2, "active", 2, algorithm="minimal",
                                     meta={"pos": k})
                        for k, i2 in enumerate(_instances(3, seed=950))
                    ]))
                assert [r.meta["pos"] for r in side] == [0, 1, 2]

                # -- resume: the full ordered stream still arrives
                records = [first]
                while True:
                    data = _read_chunk(f)
                    if not data:
                        break
                    records.append(json.loads(data))
                assert [r["index"] for r in records] == list(range(total))
                assert [r["meta"]["pos"] for r in records] == list(range(total))
            finally:
                f.close()
                sock.close()
            assert _wait_until(
                lambda: _get_json(srv, "/stats")[1]["tasks_served"]
                >= base["tasks_served"] + total + 4
            )


class TestWriteStallTimeout:
    def test_stalled_reader_is_disconnected_after_budget(self):
        """``write_stall_timeout`` bounds how long a /batch write may sit
        in ``drain()``; past it the connection is dropped and the server
        keeps serving everyone else."""
        # must overflow the ~4 MiB the kernel will buffer for the
        # server's send side before drain() can block at all
        blob = "y" * 400_000
        with _server(
            jobs=1, batch_buffer=2, write_stall_timeout=1.0
        ) as srv:
            requests = [
                task_request(inst, "active", 2, algorithm="minimal",
                             meta={"blob": blob})
                for inst in _instances(20, seed=700)
            ]
            host, port = srv.server_address[:2]
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16384)
            sock.settimeout(30)
            sock.connect((host, port))
            try:
                _send_batch(sock, requests)
                # read nothing at all: the server's drain() must time
                # out and drop us.  /healthz sees the stalled connection
                # disappear (the polling connection itself counts 1).
                assert _wait_until(
                    lambda: _get_json(srv, "/healthz")[1]["connections"]
                    <= 1,
                    timeout=15.0,
                ), "stalled connection was never reaped"
                # the socket is really dead: reading drains buffered
                # data then hits EOF/RST rather than blocking forever
                with contextlib.suppress(ConnectionError, socket.timeout):
                    while sock.recv(65536):
                        pass
            finally:
                sock.close()
            # server is unharmed
            with contextlib.closing(ServeClient(srv.url)) as client:
                result = client.solve(
                    _instances(1, seed=770)[0], "active", 2,
                    algorithm="minimal",
                )
            assert result.ok

    def test_default_is_generous_not_disabled(self):
        with _server(jobs=1) as srv:
            assert srv.app.write_stall_timeout == 300.0
        with _server(jobs=1, write_stall_timeout=None) as srv:
            assert srv.app.write_stall_timeout is None


@_FORK_ONLY
class TestPriorityServe:
    def test_solve_overtakes_large_batch(self, slow_solver):
        """A /solve landing mid-/batch completes without waiting for the
        batch queue to drain: the batch sheds it a worker at its next
        task completion (urgent lease priority)."""
        with _server(
            jobs=2, default_timeout=30.0, warm_pool=True
        ) as srv:
            client = ServeClient(srv.url)
            batch_requests = [
                task_request(inst, "active", 2, algorithm=slow_solver,
                             meta={"pos": i})
                for i, inst in enumerate(_instances(16, seed=600))
            ]
            batch_results = []

            def run_batch():
                try:
                    batch_results.extend(client.batch(batch_requests))
                finally:
                    client.close()  # this thread's connection

            thread = threading.Thread(target=run_batch, daemon=True)
            thread.start()
            try:
                time.sleep(_SLOW_SECONDS * 0.75)  # batch is mid-solve
                start = time.perf_counter()
                with contextlib.closing(ServeClient(srv.url)) as other:
                    result = other.solve(
                        _instances(1, seed=680)[0], "active", 2,
                        algorithm="minimal",
                    )
                elapsed = time.perf_counter() - start
            finally:
                thread.join(timeout=60.0)
            assert result.ok
            # the full batch needs ~16*0.4/2 = 3.2s of solving; waiting
            # for the queue to drain would put /solve past ~2.6s, while
            # an urgent lease lands within about one task completion
            assert elapsed < _SLOW_SECONDS * 4, (
                f"/solve waited {elapsed:.2f}s — queued behind the batch"
            )
            assert [r.meta["pos"] for r in batch_results] == list(range(16))
            assert all(r.ok for r in batch_results)


class TestConnectionAccounting:
    def test_healthz_reports_connections(self):
        with _server(jobs=1) as srv:
            status, health = _get_json(srv, "/healthz")
            assert status == 200
            # at minimum the connection asking is counted
            assert isinstance(health["connections"], int)
            assert health["connections"] >= 1

    def test_stats_reports_serving_tier_counters(self):
        with _server(jobs=1) as srv:
            stats = _get_json(srv, "/stats")[1]
            assert stats["connections"] >= 1
            assert "backpressure_stalls" in stats
            assert {"leases", "warmups", "reaped"} <= set(stats["pool"])

    def test_metrics_exposes_connection_gauge_and_stall_counter(self):
        with _server(jobs=1) as srv:
            host, port = srv.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("GET", "/metrics")
                text = conn.getresponse().read().decode()
            finally:
                conn.close()
            assert "repro_serve_connections" in text
            assert "repro_serve_backpressure_stalls_total" in text

    def test_max_connections_rejects_with_503(self):
        with _server(jobs=1, max_connections=2) as srv:
            host, port = srv.server_address[:2]
            held = []
            try:
                for _ in range(2):
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    conn.request("GET", "/healthz")
                    assert conn.getresponse().status == 200
                    held.append(conn)
                # the limit is enforced at accept time: the over-limit
                # connection is told 503 without sending a byte
                extra = socket.create_connection((host, port), timeout=30)
                try:
                    f = extra.makefile("rb")
                    status, headers = _read_response_head(f)
                    assert status == 503
                    payload = json.loads(
                        f.read(int(headers["content-length"]))
                    )
                    assert payload["status"] == 503
                    assert "connection limit" in payload["error"]
                    assert f.read(1) == b"", "503 must close the socket"
                finally:
                    extra.close()
                # freeing a slot restores service (the server notices
                # the closed idle connection asynchronously)
                held.pop().close()

                def _admitted():
                    probe = http.client.HTTPConnection(
                        host, port, timeout=30
                    )
                    try:
                        probe.request("GET", "/healthz")
                        return probe.getresponse().status == 200
                    except (http.client.HTTPException, OSError):
                        return False
                    finally:
                        probe.close()

                assert _wait_until(_admitted, timeout=10.0)
            finally:
                for conn in held:
                    conn.close()


class _StubWriter:
    """The slice of ``StreamWriter`` that a cancelled handler touches."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True

    async def wait_closed(self):
        return None

    def get_extra_info(self, name, default=None):
        return default


class TestCancellationPropagation:
    """Regression: ``_handle_connection`` used to swallow CancelledError.

    A connection task that catches the cancellation and returns
    normally reports ``cancelled() == False``, which wedges any caller
    awaiting its cancellation during server teardown (the asyncio
    contract is cleanup-then-reraise).  Lint rule REP002 now guards the
    pattern; this pins the runtime behavior.
    """

    def test_cancelled_batch_connection_propagates_cancellation(self):
        with _server(jobs=1) as srv:
            before = srv.app.connections
            loop = asyncio.new_event_loop()
            try:
                async def scenario():
                    reader = asyncio.StreamReader()
                    writer = _StubWriter()
                    task = asyncio.ensure_future(
                        srv._handle_connection(reader, writer)
                    )
                    # let the handler start and block reading the head
                    for _ in range(100):
                        if srv.app.connections > before:
                            break
                        await asyncio.sleep(0.01)
                    # a partial /batch request keeps the coroutine
                    # mid-request when the cancellation lands
                    reader.feed_data(b"POST /batch HTTP/1.1\r\nHost: t\r\n")
                    await asyncio.sleep(0.02)
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    return task, writer

                task, writer = loop.run_until_complete(scenario())
            finally:
                loop.close()
            assert task.cancelled(), (
                "handler swallowed CancelledError instead of re-raising"
            )
            assert writer.closed, "cleanup must still run before re-raise"
            assert srv.app.connections == before


class TestKeepAliveSoak:
    def test_hundreds_of_idle_connections_with_live_traffic(self):
        """~200 idle keep-alive connections cost the server nothing:
        live /solve + /batch traffic interleaves normally, idle
        connections can be reused afterwards, and the accounting drops
        back once they close."""
        idle_count = 200
        with _server(jobs=1) as srv:
            host, port = srv.server_address[:2]
            idle = []
            client = ServeClient(srv.url)
            try:
                for _ in range(idle_count):
                    conn = http.client.HTTPConnection(host, port, timeout=30)
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                    idle.append(conn)  # keep-alive: stays open
                health = _get_json(srv, "/healthz")[1]
                assert health["connections"] >= idle_count

                for round_no in range(3):
                    result = client.solve(
                        _instances(1, seed=800 + round_no)[0],
                        "active", 2, algorithm="minimal",
                    )
                    assert result.ok
                    batch = list(client.batch([
                        task_request(inst, "active", 2, algorithm="minimal",
                                     meta={"pos": i})
                        for i, inst in enumerate(
                            _instances(4, seed=820 + 10 * round_no)
                        )
                    ]))
                    assert [r.meta["pos"] for r in batch] == [0, 1, 2, 3]

                # idle connections are still usable after sitting out
                for conn in idle[:10]:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                client.close()
                for conn in idle:
                    conn.close()
            assert _wait_until(
                lambda: _get_json(srv, "/healthz")[1]["connections"] <= 2,
                timeout=15.0,
            ), "connection accounting never drained after the soak"


class TestServeCliFlags:
    def test_new_serving_flags_parse(self):
        parser = _build_parser()
        args = parser.parse_args([
            "serve", "--warm-pool", "--idle-ttl", "30",
            "--max-connections", "128", "--write-stall-timeout", "5",
        ])
        assert args.warm_pool is True
        assert args.idle_ttl == 30.0
        assert args.max_connections == 128
        assert args.write_stall_timeout == 5.0

    def test_defaults_match_server_defaults(self):
        args = _build_parser().parse_args(["serve"])
        assert args.warm_pool is False
        assert args.idle_ttl is None
        assert args.max_connections is None
        assert args.write_stall_timeout == 300.0

"""Tests for the HTTP/JSONL serving front end (repro.serve).

A real ThreadingHTTPServer is started on an ephemeral port and driven
through the urllib client plus raw HTTP where headers matter.  The
server runs in-process, so tests can temporarily register slow solvers
to pin down streaming/concurrency behavior deterministically.
"""

import http.client
import json
import socket
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import Instance
from repro.engine import REGISTRY, ResultCache, backend_task_params, make_task
from repro.engine.registry import SolveOutcome, SolverSpec
from repro.io import FORMAT_MARKER, instance_from_payload
from repro.serve import (
    RequestError,
    ServeApp,
    ServeClient,
    ServeClientError,
    create_server,
    parse_task_request,
    task_request,
)

#: Sleep used by the test-only slow solver; latency assertions key off it.
_SLOW_SECONDS = 0.8


def _slow_solver(instance, g, **params):
    time.sleep(_SLOW_SECONDS)
    return SolveOutcome(objective=float(g))


@pytest.fixture
def slow_solver():
    name = "slow-serve-test"
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
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    srv = create_server(
        port=0,
        jobs=1,
        cache=ResultCache(directory=cache_dir),
    )
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
def new_client(server):
    """Factory for extra clients; closes each one's connection after."""
    made = []

    def make():
        made.append(ServeClient(server.url))
        return made[-1]

    yield make
    for client in made:
        client.close()


@pytest.fixture
def inst():
    return Instance.from_tuples([(0, 4, 2), (1, 5, 3)])


def _post_raw(server, path, body: bytes):
    """Raw POST for header-level and malformed-body assertions."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestAlgosEndpoint:
    def test_lists_every_registered_solver(self, client):
        payload = client.algos()
        served = {(s["problem"], s["name"]) for s in payload["solvers"]}
        assert served == {spec.key for spec in REGISTRY.specs()}
        assert payload["problems"]["active"] == list(REGISTRY.names("active"))

    def test_lists_backends_with_capabilities(self, client):
        backends = {b["name"]: b for b in client.algos()["backends"]}
        assert set(backends) == {"scipy-highs", "reference"}
        assert "lp" in backends["scipy-highs"]["capabilities"]
        assert backends["scipy-highs"]["status"] == "default"
        assert backends["reference"]["status"] == "available"

    def test_healthz(self, client):
        health = client.health()
        assert health["ok"] is True
        assert "cache" in health and "jobs" in health


class TestSolveEndpoint:
    def test_roundtrip_matches_inprocess_solve(self, client, inst):
        result = client.solve(inst, "active", 2, algorithm="minimal")
        direct = REGISTRY.solve("active", "minimal", inst, 2)
        assert result.ok
        assert result.objective == direct.objective
        assert result.n == 2

    def test_default_algorithm_is_cli_default(self, client, inst):
        result = client.solve(inst, "busy", 2)
        assert result.ok
        assert result.algorithm == "greedy_tracking"

    def test_meta_and_params_roundtrip(self, client, inst):
        result = client.solve(
            inst, "active", 2, algorithm="minimal", meta={"source": "test"}
        )
        assert result.meta == {"source": "test"}

    def test_repeat_solve_is_a_cache_hit(self, client):
        fresh = Instance.from_tuples([(0, 6, 2), (2, 7, 3), (1, 5, 1)])
        first = client.solve(fresh, "active", 3, algorithm="minimal")
        again = client.solve(fresh, "active", 3, algorithm="minimal")
        assert not first.cached
        assert again.cached
        assert again.objective == first.objective

    def test_unknown_algorithm_gets_menu(self, client, inst):
        with pytest.raises(ServeClientError) as err:
            client.solve(inst, "active", 2, algorithm="nope")
        assert err.value.status == 400
        # the registry's menu message, verbatim
        assert "registered" in str(err.value)
        assert "minimal" in str(err.value)

    def test_unknown_backend_gets_menu(self, client, inst):
        with pytest.raises(ServeClientError) as err:
            client.solve(inst, "active", 2, backend="glpk")
        assert err.value.status == 400
        assert "scipy-highs" in str(err.value)

    def test_backend_on_combinatorial_algorithm_errors(self, client, inst):
        with pytest.raises(ServeClientError) as err:
            client.solve(
                inst, "active", 2, algorithm="minimal", backend="reference"
            )
        assert err.value.status == 400
        assert "combinatorial" in str(err.value)

    def test_solver_failure_is_an_ok_false_record_not_an_error(self, client):
        infeasible = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        result = client.solve(infeasible, "active", 1, algorithm="minimal")
        assert not result.ok
        assert result.error

    def test_bad_json_body_is_400(self, server):
        status, _, body = _post_raw(server, "/solve", b"{not json")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_missing_g_is_400(self, server, inst):
        request = task_request(inst, "active", 2)
        del request["g"]
        status, _, body = _post_raw(
            server, "/solve", json.dumps(request).encode()
        )
        assert status == 400
        assert "'g'" in json.loads(body)["error"]

    def test_unknown_field_is_400(self, server, inst):
        request = {**task_request(inst, "active", 2), "algoritm": "minimal"}
        status, _, body = _post_raw(
            server, "/solve", json.dumps(request).encode()
        )
        assert status == 400
        assert "algoritm" in json.loads(body)["error"]

    def test_handwritten_instance_without_marker(self, server):
        # curl-style minimal body: bare jobs array, ids defaulted
        request = {
            "instance": {"jobs": [
                {"release": 0, "deadline": 4, "length": 2},
                {"release": 1, "deadline": 5, "length": 3},
            ]},
            "problem": "active",
            "algorithm": "minimal",
            "g": 2,
        }
        status, _, body = _post_raw(
            server, "/solve", json.dumps(request).encode()
        )
        assert status == 200
        assert json.loads(body)["ok"]


class TestBatchEndpoint:
    def _requests(self, inst):
        other = Instance.from_tuples([(0, 3, 1), (2, 6, 2), (1, 4, 2)])
        return [
            task_request(inst, "active", 2, algorithm="minimal",
                         meta={"pos": 0}),
            task_request(other, "active", 2, algorithm="minimal",
                         meta={"pos": 1}),
            task_request(inst, "active", 2, algorithm="minimal",
                         meta={"pos": 2}),  # duplicate of pos 0
            task_request(other, "busy", 2, algorithm="first_fit",
                         meta={"pos": 3}),
        ]

    def test_ordered_jsonl_with_server_side_dedupe(self, client, inst):
        results = list(client.batch(self._requests(inst)))
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.meta["pos"] for r in results] == [0, 1, 2, 3]
        assert all(r.ok for r in results)
        # the duplicate reuses the first occurrence's result
        assert results[2].cached
        assert results[2].objective == results[0].objective

    def test_repost_hits_cache_for_every_task(self, client, inst):
        requests = self._requests(inst)
        list(client.batch(requests))
        again = list(client.batch(requests))
        assert [r.index for r in again] == [0, 1, 2, 3]
        assert all(r.cached for r in again)

    def test_streams_chunked_ndjson(self, server, inst):
        body = "".join(
            json.dumps(r) + "\n" for r in self._requests(inst)
        ).encode()
        status, headers, raw = _post_raw(server, "/batch", body)
        assert status == 200
        assert headers.get("Transfer-Encoding") == "chunked"
        assert headers.get("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line) for line in raw.splitlines() if line]
        assert [r["index"] for r in lines] == [0, 1, 2, 3]

    def test_malformed_line_fails_whole_batch_before_solving(
        self, server, client, inst
    ):
        tasks_before = client.health()["tasks_served"]
        good = json.dumps(task_request(inst, "active", 2))
        status, _, body = _post_raw(
            server, "/batch", (good + "\n{oops\n").encode()
        )
        assert status == 400
        assert "line 2" in json.loads(body)["error"]
        assert client.health()["tasks_served"] == tasks_before

    def test_invalid_task_names_its_line(self, server, inst):
        bad = json.dumps(task_request(inst, "active", 2, algorithm="nope"))
        status, _, body = _post_raw(server, "/batch", (bad + "\n").encode())
        assert status == 400
        message = json.loads(body)["error"]
        assert "line 1" in message and "registered" in message

    def test_empty_batch_is_empty_stream(self, client):
        assert list(client.batch([])) == []


class TestIncrementalStreaming:
    """Per-result streaming on /batch and the no-lock concurrency model."""

    def _stream_raw(self, server, requests):
        """POST a batch and return ``(index, seconds_since_post)`` lines."""
        body = "".join(json.dumps(r) + "\n" for r in requests).encode()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        arrivals = []
        try:
            start = time.perf_counter()
            conn.request(
                "POST", "/batch", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            while True:
                line = response.readline()
                if not line:
                    break
                if line.strip():
                    record = json.loads(line)
                    arrivals.append(
                        (record["index"], time.perf_counter() - start)
                    )
        finally:
            conn.close()
        return arrivals

    def test_first_line_arrives_before_slow_task_finishes(
        self, server, slow_solver
    ):
        # One slow task at the tail must not hold back finished
        # predecessors: under the old per-wave streaming all three
        # results landed in one wave, after the slow solve.
        fresh = Instance.from_tuples([(0, 5, 2), (1, 6, 3), (2, 7, 1)])
        other = Instance.from_tuples([(0, 4, 1), (3, 8, 2)])
        arrivals = self._stream_raw(server, [
            task_request(fresh, "active", 2, algorithm="minimal"),
            task_request(other, "active", 2, algorithm="minimal"),
            task_request(fresh, "active", 2, algorithm=slow_solver),
        ])
        assert [i for i, _ in arrivals] == [0, 1, 2]
        assert arrivals[0][1] < _SLOW_SECONDS * 0.75, arrivals
        assert arrivals[-1][1] >= _SLOW_SECONDS * 0.9, arrivals

    def test_solve_is_not_blocked_behind_a_long_batch(
        self, server, client, slow_solver, inst
    ):
        # Regression for the whole-wave lock: a /solve issued while a
        # long /batch is mid-solve used to queue behind the entire wave.
        slow_inst = Instance.from_tuples([(0, 9, 3), (1, 7, 2)])
        batch_results = []

        def run_batch():
            try:
                batch_results.extend(
                    client.batch(
                        [task_request(slow_inst, "active", 2,
                                      algorithm=slow_solver)]
                    )
                )
            finally:
                client.close()  # this thread's connection

        thread = threading.Thread(target=run_batch)
        thread.start()
        try:
            time.sleep(0.15)  # batch is now mid-solve
            start = time.perf_counter()
            result = client.solve(inst, "active", 2, algorithm="minimal")
            elapsed = time.perf_counter() - start
        finally:
            thread.join()
        assert result.ok
        assert elapsed < _SLOW_SECONDS / 2, elapsed
        assert len(batch_results) == 1 and batch_results[0].ok

    def test_disconnect_mid_batch_keeps_counters_and_server_healthy(
        self, server, client, slow_solver, inst
    ):
        # Regression: a BrokenPipeError from _write_chunk escaped the
        # handler as a traceback and left batches_served permanently
        # short of the batches actually started.
        before = client.health()
        fast = Instance.from_tuples([(0, 6, 1), (2, 8, 2), (1, 5, 2)])
        requests = [
            task_request(fast, "active", 3, algorithm="minimal"),
            task_request(fast, "active", 2, algorithm=slow_solver),
            task_request(fast, "active", 3, algorithm="minimal"),
        ]
        body = "".join(json.dumps(r) + "\n" for r in requests).encode()
        host, port = server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=30)
        try:
            sock.sendall(
                b"POST /batch HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            buf = b""
            while b'"ok"' not in buf:  # first result line has arrived
                buf += sock.recv(4096)
        finally:
            # hang up while the slow task is still solving
            sock.close()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            health = client.health()
            if health["batches_served"] > before["batches_served"]:
                break
            time.sleep(0.05)
        assert health["batches_served"] == before["batches_served"] + 1
        # only results actually yielded were counted, never the full list
        served = health["tasks_served"] - before["tasks_served"]
        assert 1 <= served <= len(requests)
        # and the server keeps serving
        assert client.solve(inst, "active", 2, algorithm="minimal").ok


class TestClientTransportErrors:
    def test_connection_refused_is_wrapped_with_target_url(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        client = ServeClient(f"http://127.0.0.1:{port}", http_timeout=2.0)
        with pytest.raises(ServeClientError) as err:
            client.health()
        assert "cannot reach" in str(err.value)
        assert f"127.0.0.1:{port}/healthz" in str(err.value)
        assert err.value.status == 0


class TestHTTPPlumbing:
    def test_unknown_path_is_404_with_endpoint_menu(self, server):
        status, _, body = _post_raw(server, "/nope", b"{}")
        assert status == 404
        assert "/batch" in json.loads(body)["error"]

    def test_get_on_post_endpoint_is_404(self, client, server):
        with pytest.raises(ServeClientError) as err:
            client._get_json("/solve")
        assert err.value.status == 404

    def test_liveness_answers_on_healthz_only(self, client):
        assert client._get_json("/healthz")["ok"] is True
        with pytest.raises(ServeClientError) as err:
            client._get_json("/health")
        assert err.value.status == 404
        assert "GET /healthz" in str(err.value)

    def test_missing_content_length_is_411(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 411
        finally:
            conn.close()

    def test_non_numeric_job_field_is_400_not_a_dropped_connection(
        self, server
    ):
        # Regression: a quoted number in a hand-written payload raised
        # TypeError inside Job arithmetic, escaping the RequestError
        # handler — the thread tracebacked and the client saw a reset.
        request = {
            "instance": {"jobs": [
                {"release": "0", "deadline": 4, "length": 2},
            ]},
            "problem": "active", "algorithm": "minimal", "g": 2,
        }
        status, _, body = _post_raw(
            server, "/solve", json.dumps(request).encode()
        )
        assert status == 400
        assert "'release'" in json.loads(body)["error"]

    def test_oversized_body_is_413_and_closes_the_connection(self, server):
        # Regression: erroring before draining the body left the unread
        # bytes on a keep-alive connection, where they were parsed as
        # the next request line and corrupted every later request.
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.putheader("Content-Length", str(200 * 1024 * 1024))
            conn.endheaders()
            conn.send(b'{"x": 1}')  # partial body the server never reads
            response = conn.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()


def _raw_exchange(server, request: bytes, *, half_close=False):
    """Send raw bytes and read until the server closes the connection.

    Answers ``(status or None, closed)``: ``status`` is ``None`` when the
    server closed without a response; ``closed`` is False when it kept
    the connection open past the read timeout.
    """
    host, port = server.server_address[:2]
    chunks = []
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        closed = True
        try:
            while data := sock.recv(65536):
                chunks.append(data)
        except ConnectionResetError:
            pass
        except socket.timeout:
            closed = False
    raw = b"".join(chunks)
    status = int(raw.split(None, 2)[1]) if raw else None
    return status, closed


_SOLVE_BODY = json.dumps({
    "instance": {"jobs": [[0, 4, 2], [1, 5, 3]]},
    "problem": "active",
    "algorithm": "minimal",
    "g": 2,
}).encode()


def _post(length: str, *, extra: str = "", body: bytes = _SOLVE_BODY):
    head = (
        "POST /solve HTTP/1.1\r\nHost: x\r\n"
        f"Content-Type: application/json\r\n{extra}"
        + (f"Content-Length: {length}\r\n" if length is not None else "")
        + "\r\n"
    )
    return head.encode("latin-1") + body


_LENGTH = str(len(_SOLVE_BODY))
_CHUNKED = (
    f"{len(_SOLVE_BODY):x}\r\n".encode() + _SOLVE_BODY + b"\r\n0\r\n\r\n"
)

#: ``(request bytes, half-close after sending, expected status)``; a
#: ``None`` status means the server must close without answering.
_MALFORMED_REQUESTS = {
    "underscore-length": (
        _post(f"{_LENGTH[0]}_{_LENGTH[1:]}"), False, 411
    ),
    "signed-length": (_post("+" + _LENGTH), False, 411),
    "negative-length": (_post("-5"), False, 411),
    "chunked-and-length": (
        _post(
            str(len(_CHUNKED)),
            extra="Transfer-Encoding: chunked\r\n",
            body=_CHUNKED,
        ),
        False,
        501,
    ),
    "chunked-alone": (
        _post(None, extra="Transfer-Encoding: chunked\r\n", body=_CHUNKED),
        False,
        501,
    ),
    "two-token-request-line": (b"GET /healthz\r\n\r\n", False, None),
    "non-ascii-request-line": (
        b"GET /h\xe9althz HTTP/1.1\r\n\r\n", False, None
    ),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(300))
        + b"\r\n",
        False,
        None,
    ),
    "too-many-repeated-headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-H: v\r\n" * 300 + b"\r\n",
        False,
        None,
    ),
    "truncated-body": (
        _post(_LENGTH, body=_SOLVE_BODY[: len(_SOLVE_BODY) // 2]),
        True,
        400,
    ),
    "unsupported-method": (
        b"PUT /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        False,
        501,
    ),
}


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "request_bytes, half_close, expected",
        list(_MALFORMED_REQUESTS.values()),
        ids=list(_MALFORMED_REQUESTS),
    )
    def test_is_refused_and_server_stays_healthy(
        self, server, request_bytes, half_close, expected
    ):
        status, closed = _raw_exchange(
            server, request_bytes, half_close=half_close
        )
        assert (status, closed) == (expected, True)
        healthz = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert _raw_exchange(server, healthz) == (200, True)


class TestParseTaskRequest:
    """Unit-level validation, independent of HTTP."""

    def test_produces_same_digest_as_cli_path(self, inst):
        from repro.engine import make_task

        task = parse_task_request(task_request(inst, "active", 2,
                                               algorithm="minimal"))
        direct = make_task(index=0, problem="active", algorithm="minimal",
                           g=2, instance=inst)
        assert task.digest == direct.digest

    def test_default_backend_applies_to_lp_algorithms_only(self, inst):
        lp_task = parse_task_request(
            task_request(inst, "active", 2, algorithm="rounding"),
            default_backend="reference",
        )
        assert lp_task.params["backend"] == "reference"
        comb_task = parse_task_request(
            task_request(inst, "active", 2, algorithm="minimal"),
            default_backend="reference",
        )
        assert "backend" not in comb_task.params

    def test_default_timeout_applies_when_unset(self, inst):
        task = parse_task_request(
            task_request(inst, "active", 2), default_timeout=4.5
        )
        assert task.timeout == 4.5
        override = parse_task_request(
            task_request(inst, "active", 2, timeout=1.0),
            default_timeout=4.5,
        )
        assert override.timeout == 1.0

    def test_explicit_null_timeout_cannot_disable_the_server_default(
        self, inst
    ):
        # Regression: ``"timeout": null`` used to bypass default_timeout
        # entirely, letting a client shed the protective deadline and
        # wedge a worker on an unbounded exact solve.
        request = task_request(inst, "active", 2)
        request["timeout"] = None
        task = parse_task_request(request, default_timeout=4.5)
        assert task.timeout == 4.5

    def test_explicit_null_timeout_without_default_stays_unbounded(
        self, inst
    ):
        request = task_request(inst, "active", 2)
        request["timeout"] = None
        assert parse_task_request(request).timeout is None

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda r: r.__setitem__("g", 0), "'g'"),
            (lambda r: r.__setitem__("g", True), "'g'"),
            (lambda r: r.__setitem__("timeout", -1), "'timeout'"),
            (lambda r: r.__setitem__("params", []), "'params'"),
            (lambda r: r.__setitem__("problem", "both"), "unknown problem"),
            (lambda r: r.pop("instance"), "missing 'instance'"),
            (
                lambda r: r.__setitem__("instance", {"jobs": "x"}),
                "'jobs' array",
            ),
        ],
    )
    def test_rejects_bad_fields(self, inst, mutate, fragment):
        request = task_request(inst, "active", 2, timeout=2.0)
        mutate(request)
        with pytest.raises(RequestError) as err:
            parse_task_request(request)
        assert fragment in str(err.value)


@st.composite
def _instance_payloads(draw):
    """An instance payload whose numbers mix ints, floats and -0.0."""
    jobs = []
    for pos in range(draw(st.integers(0, 4))):
        release = draw(st.sampled_from([0, 1, 0.0, -0.0, 1.0, 2.5]))
        length = draw(st.sampled_from([1, 2, 1.0, 0.5]))
        job = {
            "release": release,
            "deadline": release + length + draw(st.sampled_from([0, 1, 1.5])),
            "length": length,
        }
        if draw(st.booleans()):
            job["id"] = pos
        if draw(st.booleans()):
            job["label"] = draw(st.sampled_from(["", "a", 1, True]))
        jobs.append(job)
    payload = {"jobs": jobs}
    if draw(st.booleans()):
        payload["format"] = FORMAT_MARKER
    return payload


def _job_fields(instance):
    return [
        (j.release, type(j.release), str(j.release), j.deadline,
         type(j.deadline), j.length, type(j.length), j.id, j.label)
        for j in instance.jobs
    ]


class TestParseBatch:
    """``/batch`` decodes each distinct instance payload once per body,
    and every task still matches a task built on its own."""

    @pytest.fixture
    def app(self):
        app = ServeApp(jobs=1)
        yield app
        app.close()

    @staticmethod
    def _body(requests):
        return "".join(json.dumps(r) + "\n" for r in requests).encode()

    @settings(max_examples=40, deadline=None)
    @given(
        payloads=st.lists(_instance_payloads(), min_size=1, max_size=4),
        picks=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from([
                    ("busy", "greedy_tracking"),
                    ("busy", "first_fit"),
                    ("active", "rounding"),
                    ("active", "minimal"),
                ]),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_repeated_instances_give_make_task_digests(self, payloads, picks):
        app = ServeApp(jobs=1)
        try:
            requests = [
                {"instance": payloads[k % len(payloads)], "problem": problem,
                 "algorithm": algorithm, "g": g}
                for k, (problem, algorithm), g in picks
            ]
            tasks = app.parse_batch(self._body(requests))
        finally:
            app.close()
        assert len(tasks) == len(requests)
        for index, (task, request) in enumerate(zip(tasks, requests)):
            # Through JSON, as the server sees it: -0.0 and 1.0 survive.
            raw = json.loads(json.dumps(request["instance"]))
            instance = instance_from_payload(raw)
            expected = make_task(
                index, request["problem"], request["algorithm"],
                request["g"], instance,
                params=backend_task_params(
                    request["problem"], request["algorithm"], None
                ),
            )
            assert task.digest == expected.digest
            assert task.index == index
            assert task.params == expected.params
            assert _job_fields(task.instance) == _job_fields(instance)

    def test_one_one_point_zero_and_true_never_share_an_entry(self, app):
        def request(release):
            job = {"release": release, "deadline": 4, "length": 2}
            return {"instance": {"jobs": [job]}, "problem": "busy", "g": 2}

        first, second = app.parse_batch(
            self._body([request(1), request(1.0)])
        )
        assert type(first.instance.jobs[0].release) is int
        assert type(second.instance.jobs[0].release) is float
        assert first.digest != second.digest
        with pytest.raises(RequestError) as err:
            app.parse_batch(
                self._body([request(1), request(1.0), request(True)])
            )
        assert str(err.value).startswith("line 3: ")
        assert "field 'release' must be a number" in str(err.value)

    def test_zero_and_negative_zero_keep_their_own_digests(self, app):
        tasks = app.parse_batch(self._body([
            {"instance": {"jobs": [{"release": zero, "deadline": 3,
                                    "length": 2}]},
             "problem": "busy", "g": 2}
            for zero in (0.0, -0.0, 0.0)
        ]))
        assert [str(t.instance.jobs[0].release) for t in tasks] == [
            "0.0", "-0.0", "0.0"
        ]
        assert tasks[0].digest == tasks[2].digest != tasks[1].digest

    def test_invalid_line_repeating_a_valid_instance_names_its_line(
        self, app, inst
    ):
        good = task_request(inst, "busy", 2)
        with pytest.raises(RequestError) as err:
            app.parse_batch(self._body([good, good, {**good, "g": 0}]))
        assert str(err.value).startswith("line 3: task 2: 'g'")

    def test_payload_without_the_plain_shape_fails_on_its_own_line(
        self, app, inst
    ):
        good = task_request(inst, "busy", 2)
        odd = {**good, "instance": {"jobs": [[0, 4, 2]]}}
        with pytest.raises(RequestError) as err:
            app.parse_batch(self._body([good, odd]))
        assert str(err.value).startswith("line 2: task 1: job 0 must be")

    def test_payload_too_deep_to_key_is_decoded_alone(self, app):
        # JSON nests deeper than pickle can walk: this label parses but
        # cannot key the memo, and must decode as it would on its own.
        label = "[" * 600 + "]" * 600
        line = (
            '{"instance": {"jobs": [{"release": 0, "deadline": 4, '
            f'"length": 2, "label": {label}}}]}}, "problem": "busy", "g": 2}}'
        )
        tasks = app.parse_batch(f"{line}\n{line}\n".encode())
        assert [len(t.instance.jobs[0].label) for t in tasks] == [1200] * 2
        assert tasks[0].digest == tasks[1].digest

    def test_invalid_repeat_fails_before_anything_solves(
        self, server, client, inst
    ):
        tasks_before = client.health()["tasks_served"]
        good = task_request(inst, "busy", 2)
        body = self._body([good, {**good, "algorithm": "nope"}])
        status, _, raw = _post_raw(server, "/batch", body)
        assert status == 400
        assert json.loads(raw)["error"].startswith("line 2: ")
        assert client.health()["tasks_served"] == tasks_before


class TestHealthzCapacity:
    def test_reports_window_sizing_fields(self, client):
        # The fabric dispatcher sizes per-host windows from these; they
        # must be present and sane even on an idle server.
        health = client.health()
        assert health["jobs"] == 1
        assert health["queue_depth"] >= 0
        assert health["streams_in_flight"] >= 0

    def test_capacity_tracks_live_batch(self, new_client, slow_solver):
        client = new_client()
        # Distinct digests: identical requests would dedupe into one
        # solve and the stream could finish before the probe lands.
        requests = [
            task_request(
                Instance.from_tuples([(0, 5 + i, 2), (1, 6 + i, 3)]),
                "active",
                2,
                algorithm=slow_solver,
            )
            for i in range(3)
        ]
        stream = client.batch(requests)
        first = next(stream)  # at least one task solving server-side
        probe = new_client()
        health = probe.health()
        assert health["streams_in_flight"] >= 1
        assert first.ok
        assert len(list(stream)) == 2


class TestClientKeepAlive:
    def test_connection_reused_across_requests(self, new_client):
        client = new_client()
        client.algos()
        conn = client._local.conn
        assert conn is not None
        client.health()
        client.stats()
        assert client._local.conn is conn

    def test_wedged_connection_state_recovers_transparently(
        self, new_client
    ):
        # A keep-alive connection stuck mid-exchange (CannotSendRequest)
        # must be replaced and the request resent, not surfaced.
        client = new_client()
        assert client.health()["ok"] is True
        conn = client._local.conn
        conn._HTTPConnection__state = "Request-sent"
        assert client.health()["ok"] is True
        assert client._local.conn is not conn

    def test_close_is_reusable(self, new_client):
        client = new_client()
        client.health()
        client.close()
        assert getattr(client._local, "conn", None) is None
        assert client.health()["ok"] is True  # reconnects on demand

    def test_threads_get_independent_connections(self, new_client):
        client = new_client()
        client.health()
        main_conn = client._local.conn
        seen = []

        def probe():
            client.health()
            seen.append(client._local.conn)
            client.close()

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=10)
        assert seen and seen[0] is not main_conn
        assert client._local.conn is main_conn


class TestClientGetRetries:
    def _dead_port(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_get_retries_with_exponential_backoff(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", sleeps.append
        )
        monkeypatch.setattr("repro.serve.client._BACKOFF_BASE", 0.2)
        monkeypatch.setattr("repro.serve.client._BACKOFF_CAP", 10.0)
        client = ServeClient(
            f"http://127.0.0.1:{self._dead_port()}",
            http_timeout=2.0,
            get_retries=3,
        )
        with pytest.raises(ServeClientError) as err:
            client.health()
        assert err.value.status == 0
        assert len(sleeps) == 3
        # Exponential schedule with jitter in [0.5, 1.0]x.
        for attempt, slept in enumerate(sleeps):
            assert 0.2 * (2 ** attempt) * 0.5 <= slept
            assert slept <= 0.2 * (2 ** attempt)

    def test_backoff_is_capped(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", sleeps.append
        )
        monkeypatch.setattr("repro.serve.client._BACKOFF_BASE", 1.0)
        monkeypatch.setattr("repro.serve.client._BACKOFF_CAP", 1.5)
        client = ServeClient(
            f"http://127.0.0.1:{self._dead_port()}",
            http_timeout=2.0,
            get_retries=4,
        )
        with pytest.raises(ServeClientError):
            client.algos()
        assert len(sleeps) == 4
        assert all(s <= 1.5 for s in sleeps)

    def test_posts_never_auto_retry(self, monkeypatch, inst):
        # Retry policy for solves belongs to the caller (the fabric
        # dispatcher); the client must fail POSTs fast.
        sleeps = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", sleeps.append
        )
        client = ServeClient(
            f"http://127.0.0.1:{self._dead_port()}",
            http_timeout=2.0,
            get_retries=3,
        )
        with pytest.raises(ServeClientError):
            client.solve(inst, "active", 2, algorithm="minimal")
        assert sleeps == []

    def test_4xx_does_not_retry(self, monkeypatch, client):
        sleeps = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", sleeps.append
        )
        with pytest.raises(ServeClientError) as err:
            client._get_json("/no-such-endpoint")
        assert err.value.status == 404
        assert sleeps == []

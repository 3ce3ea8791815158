"""Unit tests for the work-stealing fabric dispatcher (fake clients).

Every host here is an in-memory :class:`FakeServer` injected through the
dispatcher's ``client_factory`` hook, so steal/retry/dedupe/probe logic
runs deterministically with no sockets or subprocesses involved.
"""

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.core import Instance
from repro.engine import SweepGrid, build_sweep_tasks
from repro.engine.workers import TaskResult, make_task
from repro.fabric import RemoteDispatcher, normalize_hosts, task_payload
from repro.fabric import dispatcher as dispatcher_module
from repro.serve.client import ServeClientError
from repro.serve.server import parse_task_request

URL_A = "http://hosta:8977"
URL_B = "http://hostb:8977"


class FakeServer:
    """In-memory stand-in for one ``repro serve`` host.

    ``solve_errors`` maps a task key (``meta["k"]``) to a list of
    :class:`ServeClientError` statuses to raise, one per call, before
    succeeding; ``down=True`` fails every call with a transport error.
    """

    def __init__(self, jobs=2, delay=0.0):
        self.jobs = jobs
        self.delay = delay
        self.down = False
        self.health_failures = 0
        self.health_calls = 0
        self.solve_errors = {}
        self.solved = []  # task keys, in completion order
        self.lock = threading.Lock()

    def health(self):
        with self.lock:
            self.health_calls += 1
            if self.down or self.health_failures > 0:
                if not self.down:
                    self.health_failures -= 1
                raise ServeClientError("cannot reach host", status=0)
            return {"ok": True, "jobs": self.jobs}

    def solve_payload(self, payload):
        key = payload["meta"]["k"]
        with self.lock:
            if self.down:
                raise ServeClientError("cannot reach host", status=0)
            pending = self.solve_errors.get(key)
            if pending:
                raise ServeClientError("injected", status=pending.pop(0))
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.solved.append(key)
        return TaskResult(
            index=0,
            digest="server-side",
            problem=payload["problem"],
            algorithm=payload["algorithm"],
            g=payload["g"],
            n=len(payload["instance"]["jobs"]),
            ok=True,
            objective=float(key),
            metrics={"trace": {"spans": [{"name": "total", "dur": 0.0}]}},
            meta=dict(payload.get("meta", {})),
        )


class FakeClient:
    def __init__(self, server):
        self.server = server

    def health(self):
        return self.server.health()

    def solve_payload(self, payload):
        return self.server.solve_payload(payload)

    def close(self):
        pass


@pytest.fixture(autouse=True)
def fast_probes(monkeypatch):
    """Test-friendly re-probe timing for every dispatcher here."""
    monkeypatch.setattr(dispatcher_module, "_PROBE_BASE", 0.01)
    monkeypatch.setattr(dispatcher_module, "_PROBE_CAP", 0.05)


def make_dispatcher(servers, **kwargs):
    """Dispatcher over ``{url: FakeServer}``."""
    return RemoteDispatcher(
        list(servers),
        client_factory=lambda url, **_: FakeClient(servers[url]),
        **kwargs,
    )


def make_tasks(count, *, g=2, start=0):
    """``count`` distinct-digest tasks, keyed by ``meta["k"]``."""
    tasks = []
    for i in range(count):
        k = start + i
        inst = Instance.from_tuples([(0, 4 + k, 2), (1, 5 + k, 3)])
        tasks.append(
            make_task(
                index=i,
                problem="busy",
                algorithm="first_fit",
                g=g,
                instance=inst,
                meta={"k": k},
            )
        )
    return tasks


class TestNormalizeHosts:
    def test_bare_host_port_gets_scheme(self):
        assert normalize_hosts("h1:8977,h2:9000") == [
            "http://h1:8977",
            "http://h2:9000",
        ]

    def test_bare_host_gets_default_port(self):
        from repro.serve.server import DEFAULT_PORT

        assert normalize_hosts("somewhere") == [
            f"http://somewhere:{DEFAULT_PORT}"
        ]

    def test_sequence_and_trailing_slash(self):
        assert normalize_hosts(["http://h:1/", " h2:2 "]) == [
            "http://h:1",
            "http://h2:2",
        ]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            normalize_hosts("h:1,h:1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no fabric hosts"):
            normalize_hosts(" , ")


class TestTaskPayload:
    def test_backend_param_moves_to_wire_field(self):
        inst = Instance.from_tuples([(0, 4, 2)])
        task = make_task(
            index=0,
            problem="active",
            algorithm="rounding",
            g=2,
            instance=inst,
            params={"backend": "reference"},
            meta={"k": 0},
        )
        payload = task_payload(task)
        assert payload["backend"] == "reference"
        assert "params" not in payload  # only held the backend pin

    def test_timeout_and_meta_ride_along(self):
        inst = Instance.from_tuples([(0, 4, 2)])
        task = make_task(
            index=3,
            problem="busy",
            algorithm="first_fit",
            g=2,
            instance=inst,
            meta={"k": 3},
            timeout=1.5,
        )
        payload = task_payload(task)
        assert payload["timeout"] == 1.5
        assert payload["meta"] == {"k": 3}

    def test_server_rebuilds_the_same_digest(self):
        inst = Instance.from_tuples([(0, 4, 2), (1, 5, 1)])
        task = make_task(
            index=4,
            problem="active",
            algorithm="rounding",
            g=2,
            instance=inst,
            params={"seed": 7, "backend": "reference"},
            meta={"k": 4},
            timeout=1.5,
        )
        payload = task_payload(task)
        assert payload["params"] == {"seed": 7}
        assert payload["backend"] == "reference"
        served = parse_task_request(json.loads(json.dumps(payload)))
        assert served.digest == task.digest
        assert served.params == task.params
        assert (served.timeout, served.meta) == (1.5, {"k": 4})


class TestDispatch:
    def test_all_results_in_task_order(self):
        # A small solve delay keeps the queue from being drained by the
        # first host's threads before the second host's even start.
        servers = {
            URL_A: FakeServer(jobs=2, delay=0.01),
            URL_B: FakeServer(jobs=2, delay=0.01),
        }
        tasks = make_tasks(12)
        results = make_dispatcher(servers).run(tasks)
        assert [r.index for r in results] == list(range(12))
        assert all(r.ok for r in results)
        assert [r.objective for r in results] == [float(i) for i in range(12)]
        # Both hosts contributed and nothing was solved twice.
        assert servers[URL_A].solved and servers[URL_B].solved
        assert sorted(servers[URL_A].solved + servers[URL_B].solved) == list(
            range(12)
        )

    def test_results_carry_fabric_host_meta(self):
        servers = {URL_A: FakeServer()}
        results = make_dispatcher(servers).run(make_tasks(2))
        assert all(r.meta["fabric_host"] == "hosta:8977" for r in results)

    def test_window_sized_from_healthz_jobs(self):
        servers = {URL_A: FakeServer(jobs=3), URL_B: FakeServer(jobs=1)}
        dispatcher = make_dispatcher(servers)
        dispatcher.run(make_tasks(4))
        stats = dispatcher.last_stats
        assert stats.hosts["hosta:8977"].window == 3
        assert stats.hosts["hostb:8977"].window == 1

    def test_window_clamped_to_max_window(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "_MAX_WINDOW", 4)
        servers = {URL_A: FakeServer(jobs=64)}
        dispatcher = make_dispatcher(servers)
        dispatcher.run(make_tasks(2))
        assert dispatcher.last_stats.hosts["hosta:8977"].window == 4

    def test_explicit_window_skips_probe(self):
        servers = {URL_A: FakeServer(jobs=8)}
        dispatcher = make_dispatcher(servers, window=2)
        dispatcher.run(make_tasks(2))
        assert dispatcher.last_stats.hosts["hosta:8977"].window == 2

    def test_fast_host_steals_more_work(self):
        # One window slot each; host B is 20x slower, so A must pull the
        # bulk of the queue — the point of stealing from a global deque.
        servers = {
            URL_A: FakeServer(jobs=1, delay=0.005),
            URL_B: FakeServer(jobs=1, delay=0.1),
        }
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(16))
        assert all(r.ok for r in results)
        assert len(servers[URL_A].solved) > len(servers[URL_B].solved)

    def test_empty_task_list(self):
        servers = {URL_A: FakeServer()}
        assert make_dispatcher(servers).run([]) == []

    def test_streaming_is_incremental(self):
        # The first result must be observable while later tasks are
        # still queued behind a single window slot.
        servers = {URL_A: FakeServer(jobs=1, delay=0.05)}
        stream = make_dispatcher(servers).run_stream(make_tasks(6))
        first = next(iter(stream))
        assert first.index == 0
        assert stream.stats.completed < 6
        assert list(stream)  # drain cleanly
        stream.close()


class TestDedupe:
    def test_duplicate_digests_solved_once(self):
        servers = {URL_A: FakeServer(jobs=2)}
        tasks = make_tasks(4)
        dup = make_task(
            index=4,
            problem="busy",
            algorithm="first_fit",
            g=2,
            instance=tasks[1].instance,
            meta={"k": 99},  # meta differs, digest matches tasks[1]
        )
        assert dup.digest == tasks[1].digest
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(tasks + [dup])
        assert [r.index for r in results] == list(range(5))
        assert all(r.ok for r in results)
        # The duplicate never reached a host; its result is the fan-out.
        assert sorted(servers[URL_A].solved) == list(range(4))
        assert results[4].cached is True
        assert results[4].objective == results[1].objective
        assert results[4].meta["k"] == 99  # local meta preserved
        assert dispatcher.last_stats.dedup_hits == 1
        # The copy is the engine's: it owns its metrics dict and drops
        # the server-side trace of a solve it did not make, but still
        # names the host that solved the original.
        assert "trace" in results[1].metrics
        assert "trace" not in results[4].metrics
        assert results[4].metrics is not results[1].metrics
        assert results[4].meta["fabric_host"] == "hosta:8977"

    def test_failed_first_occurrence_requeues_duplicate(self):
        servers = {URL_A: FakeServer(jobs=1)}
        tasks = make_tasks(2)
        dup = make_task(
            index=2,
            problem="busy",
            algorithm="first_fit",
            g=2,
            instance=tasks[0].instance,
            meta={"k": 50},
        )
        # First attempt at k=0 is rejected outright (4xx, no retry);
        # the duplicate must then be dispatched on its own, and its key
        # (k=50) succeeds.
        servers[URL_A].solve_errors[0] = [400]
        results = make_dispatcher(servers).run(tasks + [dup])
        assert results[0].ok is False
        assert "rejected" in results[0].error
        assert results[2].ok is True
        assert results[2].cached is False


class TestPlacement:
    def test_down_hosts_task_requeues_at_the_back(self):
        # Host A takes task 0, and that solve takes A down: task 0
        # re-queues at the back.  B is dark until then; once up it takes
        # the queue head every time, so the rest of task 0's sweep cell
        # does not pull it forward.
        servers = {URL_A: FakeServer(jobs=1), URL_B: FakeServer(jobs=1)}
        a, b = servers[URL_A], servers[URL_B]
        b.health_failures = 10**6

        def dying_solve(payload):
            with a.lock:
                a.down = True
            with b.lock:
                b.health_failures = 0
            raise ServeClientError("connection reset", status=0)

        a.solve_payload = dying_solve
        grid = SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("minimal", "rounding"),
            g_values=(3,),
            instances_per_cell=3,
        )
        tasks = [
            replace(task, meta=dict(task.meta, k=task.index))
            for task in build_sweep_tasks([grid])
        ]
        results = make_dispatcher(servers).run(tasks)
        assert all(r.ok for r in results)
        assert a.solved == []
        assert b.solved == [1, 2, 3, 4, 5, 0]


class TestFailureHandling:
    @pytest.mark.parametrize(
        ("status", "transient"),
        [(0, True), (500, True), (503, True), (499, False), (404, False)],
    )
    def test_transport_failures_and_5xx_are_transient(self, status, transient):
        """The retry decision: re-queue only what a retry could fix."""
        assert ServeClientError("x", status=status).transient is transient

    def test_transient_errors_redispatch_to_surviving_host(self):
        servers = {URL_A: FakeServer(jobs=2), URL_B: FakeServer(jobs=2)}
        servers[URL_B].down = True
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(8))
        assert all(r.ok for r in results)
        assert sorted(servers[URL_A].solved) == list(range(8))
        stats = dispatcher.last_stats
        assert stats.hosts["hostb:8977"].up is False
        # B was probed but never recovered; all its pulls were retried
        # on A. (B may have been detected down at planning time, in
        # which case no task ever reached it.)
        assert stats.hosts["hostb:8977"].completed == 0

    def test_mid_run_failure_increments_retried(self):
        # A is slowed down so B is guaranteed to pull work — and every
        # solve B pulls dies in transport, forcing a re-dispatch to A.
        servers = {
            URL_A: FakeServer(jobs=1, delay=0.01),
            URL_B: FakeServer(jobs=1),
        }
        servers[URL_B].solve_errors = {k: [0] for k in range(8)}
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(8))
        assert all(r.ok for r in results)
        stats = dispatcher.last_stats
        assert stats.retried > 0
        assert stats.hosts["hostb:8977"].retried > 0

    def test_bounced_host_rejoins_after_probe(self):
        servers = {URL_A: FakeServer(jobs=1, delay=0.02)}
        server = servers[URL_A]
        # Fail the first solve (marks the host down), then two health
        # probes, then recover fully.
        server.solve_errors[0] = [0]
        server.health_failures = 2
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(4))
        assert all(r.ok for r in results)
        stats = dispatcher.last_stats
        assert stats.hosts["hosta:8977"].probes >= 2
        assert stats.hosts["hosta:8977"].up is True
        assert stats.retried == 1

    def test_4xx_fails_immediately_without_retry(self):
        servers = {URL_A: FakeServer(jobs=1)}
        servers[URL_A].solve_errors[1] = [422]
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(3))
        assert [r.ok for r in results] == [True, False, True]
        assert "HTTP 422" in results[1].error
        assert dispatcher.last_stats.retried == 0
        # k=1 was dispatched once and never solved.
        assert sorted(servers[URL_A].solved) == [0, 2]

    def test_attempts_exhausted_gives_up(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "_MAX_TASK_ATTEMPTS", 2)
        servers = {URL_A: FakeServer(jobs=1)}
        # Health always answers (the host keeps "recovering") but every
        # solve dies in transport — the per-task attempt budget must
        # end the run with failure results, not a hang.
        servers[URL_A].solve_errors = {k: [0] * 10 for k in range(3)}
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(3))
        assert all(not r.ok for r in results)
        assert all("gave up after 2" in r.error for r in results)
        assert dispatcher.last_stats.gave_up == 3

    def test_all_hosts_dark_past_grace_fails_queue(self, monkeypatch):
        monkeypatch.setattr(dispatcher_module, "_ALL_DOWN_GRACE", 0.3)
        servers = {URL_A: FakeServer()}
        servers[URL_A].down = True
        dispatcher = make_dispatcher(servers)
        start = time.perf_counter()
        results = dispatcher.run(make_tasks(4))
        elapsed = time.perf_counter() - start
        assert all(not r.ok for r in results)
        assert all("unreachable" in r.error for r in results)
        assert elapsed < 10.0

    def test_host_down_at_start_joins_via_probe(self):
        servers = {URL_A: FakeServer(jobs=2)}
        # The capacity probe fails, so the host enters the run down
        # with a window of 1 — then the re-probe loop brings it up.
        servers[URL_A].health_failures = 1
        dispatcher = make_dispatcher(servers)
        results = dispatcher.run(make_tasks(3))
        assert all(r.ok for r in results)
        stats = dispatcher.last_stats
        assert stats.hosts["hosta:8977"].window == 1
        assert stats.hosts["hosta:8977"].up is True


class TestValidation:
    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            RemoteDispatcher("h:1", window=0)


class TestObservability:
    def test_per_host_counters_reach_metrics_and_stats(self):
        servers = {URL_A: FakeServer(jobs=1, delay=0.005)}
        make_dispatcher(servers).run(make_tasks(3))

        from repro.obs import REGISTRY as OBS
        from repro.obs.prom import render_prometheus
        from repro.serve.server import _fabric_digest

        text = render_prometheus(OBS)
        assert 'repro_fabric_dispatched_total{host="hosta:8977"}' in text
        assert 'repro_fabric_completed_total{host="hosta:8977"}' in text
        assert 'repro_fabric_host_up{host="hosta:8977"} 1' in text
        assert 'repro_fabric_task_seconds_bucket{host="hosta:8977"' in text

        # The same families feed the "fabric" section of GET /stats.
        digest = _fabric_digest()
        assert digest["hosta:8977"]["dispatched"] >= 3
        assert digest["hosta:8977"]["up"] == 1.0
        assert digest["hosta:8977"]["task_seconds"]["count"] >= 3

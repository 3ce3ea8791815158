"""One task list gives the same records on every execution path.

Serial (``BatchRunner(jobs=1)``), the worker pool (``jobs=2``), ``POST
/batch`` on an in-process ``repro serve`` and the fabric over two
in-process hosts all run the engine's one scheduling core, so their
records must agree field for field.  Only what describes one execution
may differ: timings, the cache flag, the trace and the fabric's host
label.  Every record goes through its JSON form first, as the HTTP
paths' records already have.
"""

import contextlib
import json
import threading

import pytest

from repro.engine import BatchRunner, SweepGrid, build_sweep_tasks, make_task
from repro.fabric import RemoteDispatcher, task_payload
from repro.serve import ServeClient, create_server


def _task_list():
    """18 tasks: active ``minimal``/``rounding`` at g in {2, 3} (the four
    g=2 cells are infeasible), three busy packers, and four repeated
    digests, one of them an infeasible cell's."""
    tasks = build_sweep_tasks([
        SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("minimal", "rounding"),
            g_values=(2, 3),
            instances_per_cell=2,
            n=10,
            horizon=10,
        ),
        SweepGrid(
            problem="busy",
            generators=("interval",),
            algorithms=("first_fit", "greedy_tracking", "kumar_rudra"),
            g_values=(2,),
            instances_per_cell=2,
        ),
    ])
    for source in (tasks[0], tasks[3], tasks[8], tasks[13]):
        tasks.append(
            make_task(
                index=len(tasks),
                problem=source.problem,
                algorithm=source.algorithm,
                g=source.g,
                instance=source.instance,
                params=source.params,
                meta={**source.meta, "repeat_of": source.index},
            )
        )
    return tasks


def _record(result):
    record = json.loads(json.dumps(result.to_record()))
    del record["elapsed"], record["cached"]
    record["metrics"].pop("trace", None)
    record["meta"].pop("fabric_host", None)
    return record


@contextlib.contextmanager
def _servers(count, jobs):
    servers = [create_server(port=0, jobs=jobs) for _ in range(count)]
    threads = [
        threading.Thread(target=srv.serve_forever, daemon=True)
        for srv in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield [srv.url for srv in servers]
    finally:
        for srv, thread in zip(servers, threads):
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def tasks():
    return _task_list()


@pytest.fixture(scope="module")
def serial(tasks):
    with BatchRunner(jobs=1) as runner:
        return runner.run(tasks)


class TestPathEquivalence:
    def test_task_list_covers_failures_and_repeats(self, tasks, serial):
        assert len(tasks) == 18
        assert len({t.digest for t in tasks}) == 14
        assert sum(not r.ok for r in serial) == 5  # 4 cells + 1 repeat
        assert sum(r.cached for r in serial) == 3  # failures are retried

    def test_pool(self, tasks, serial):
        with BatchRunner(jobs=2) as runner:
            pool = runner.run(tasks)
        assert [_record(r) for r in pool] == [_record(r) for r in serial]

    def test_serve_batch(self, tasks, serial):
        with _servers(1, jobs=2) as (url,):
            client = ServeClient(url)
            try:
                served = list(client.batch([task_payload(t) for t in tasks]))
            finally:
                client.close()
        assert [_record(r) for r in served] == [_record(r) for r in serial]

    def test_fabric(self, tasks, serial):
        with _servers(2, jobs=1) as urls:
            fabric = RemoteDispatcher(urls, http_timeout=60.0).run(tasks)
        assert [_record(r) for r in fabric] == [_record(r) for r in serial]
        assert all(r.meta["fabric_host"] for r in fabric)

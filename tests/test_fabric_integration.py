"""Integration tests for the fabric against real ``repro serve`` processes.

The host-loss test is the contract the fabric exists for: SIGKILL one of
two live servers mid-sweep and the sweep must still finish with exactly
one result per task, in task order, with the loss visible in the retry
counters.  Servers run as subprocesses (a SIGKILL inside a thread pool
would prove nothing) that register a deliberately slow solver first, so
the kill reliably lands while work is in flight.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import Instance
from repro.engine.workers import make_task
from repro.fabric import RemoteDispatcher
from repro.fabric import dispatcher as dispatcher_module

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Bootstrap for one server subprocess: register a slow test-only solver
#: (0.12s per task keeps several tasks in flight at any instant), then
#: run the normal CLI serve loop on an ephemeral port.
_SERVER_BOOT = """
import sys, time
from repro.engine.registry import REGISTRY, SolveOutcome, SolverSpec

def _slow(instance, g, **params):
    time.sleep(0.12)
    return SolveOutcome(objective=float(g + len(instance.jobs)))

REGISTRY.register(
    SolverSpec(
        problem="busy",
        name="fabric-slow-test",
        solve=_slow,
        exact=False,
        guarantee="-",
        complexity="-",
        description="sleeps then answers (fabric test only)",
    )
)
from repro.cli import main
sys.exit(main(["serve", "--port", "0", "--jobs", "2", "--no-cache"]))
"""


def _start_server(timeout=30.0):
    """Launch one serve subprocess; return ``(proc, base_url)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVER_BOOT],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise RuntimeError("server died before announcing its port")
        match = re.search(r"(http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise RuntimeError("server did not announce its port in time")


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.stdout.close()
    proc.wait(timeout=10)


@pytest.fixture
def two_servers():
    p1, url1 = _start_server()
    try:
        p2, url2 = _start_server()
    except Exception:
        _stop(p1)
        raise
    yield (p1, url1), (p2, url2)
    _stop(p1)
    _stop(p2)


def _slow_tasks(count):
    return [
        make_task(
            index=i,
            problem="busy",
            algorithm="fabric-slow-test",
            g=2,
            instance=Instance.from_tuples([(0, 4 + i, 2), (1, 6 + i, 3)]),
            meta={"i": i},
        )
        for i in range(count)
    ]


class TestHostLossRecovery:
    def test_sigkill_one_of_two_hosts_mid_sweep(self, two_servers, monkeypatch):
        (p1, url1), (p2, url2) = two_servers
        tasks = _slow_tasks(20)
        monkeypatch.setattr(dispatcher_module, "_PROBE_BASE", 0.05)
        monkeypatch.setattr(dispatcher_module, "_PROBE_CAP", 0.25)
        dispatcher = RemoteDispatcher([url1, url2], http_timeout=30.0)
        stream = dispatcher.run_stream(tasks)
        results = []
        for result in stream:
            results.append(result)
            if len(results) == 4:
                # 16 tasks still unresolved: the victim's window is
                # holding in-flight work when the SIGKILL lands.
                p2.send_signal(signal.SIGKILL)
                p2.wait(timeout=10)
        # Exactly one result per task, in task order, all solved.
        assert [r.index for r in results] == list(range(20))
        assert all(r.ok for r in results), [
            r.error for r in results if not r.ok
        ]
        stats = dispatcher.last_stats
        label_lost = url2.split("://", 1)[1]
        label_kept = url1.split("://", 1)[1]
        assert stats.retried > 0
        assert stats.hosts[label_lost].retried > 0
        assert stats.hosts[label_lost].up is False
        # Everything the victim dropped was re-dispatched and solved by
        # the survivor.
        solved_by = [r.meta["fabric_host"] for r in results]
        assert solved_by.count(label_kept) + solved_by.count(
            label_lost
        ) == len(results)
        assert stats.hosts[label_kept].completed + stats.hosts[
            label_lost
        ].completed == len(results)

    def test_healthy_two_host_sweep_uses_both(self, two_servers):
        (_, url1), (_, url2) = two_servers
        dispatcher = RemoteDispatcher([url1, url2], http_timeout=30.0)
        results = dispatcher.run(_slow_tasks(12))
        assert [r.index for r in results] == list(range(12))
        assert all(r.ok for r in results)
        hosts_used = {r.meta["fabric_host"] for r in results}
        assert hosts_used == {
            url1.split("://", 1)[1],
            url2.split("://", 1)[1],
        }
        # Capacity report sized each window from the server's --jobs 2.
        for host in dispatcher.last_stats.hosts.values():
            assert host.window == 2

"""Benchmark plumbing shared by every workload.

Seeds, percentiles, the correctness gate, process-tree memory sampling
and ``repro serve`` subprocess control.  Nothing here imports the
program under test, so ``run.py`` can load it before checking that the
checkout actually holds the program's source.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout (result caches, server working
#: directories, traced servers' cache logs); removed when a run ends.
WORK_ROOT = ROOT / ".perfbench-work"
#: Traced runs write their span log here when they end.
SPANS_ROOT = ROOT / ".perfbench-spans"

#: Relative slack for objective comparisons (LP objectives are floats).
TOL = 1e-6


def sub_seed(seed: int, stream: int, index: int = 0) -> int:
    """A deterministic 31-bit seed for item ``index`` of ``stream``.

    Separate streams keep warm-up inputs, timed rounds and request mixes
    disjoint, so warm-up never pre-fills a cache entry or a dedupe slot
    that the timed phase then hits.
    """
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)
    return int(state[0] >> 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0-100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def result_problems(result: Any) -> list[str]:
    """What is wrong with one result record (empty when it is correct).

    Every result must be ``ok`` with ``objective >= lower_bound``, and an
    active-time ``rounding`` result must also satisfy
    ``objective <= 2 * lp_objective`` (Theorem 2).
    """
    if not result.ok:
        return [f"not ok: {result.error}"]
    objective = result.objective
    bound = result.metrics.get("lower_bound")
    if objective is None or bound is None:
        return ["result carries no objective or lower_bound"]
    problems = []
    if objective < bound - TOL * max(1.0, abs(bound)):
        problems.append(f"objective {objective} below lower_bound {bound}")
    if result.problem == "active" and result.algorithm == "rounding":
        lp = result.metrics.get("lp_objective")
        if lp is None or objective > 2.0 * lp + TOL * max(1.0, abs(lp)):
            problems.append(
                f"rounding objective {objective} exceeds 2 * lp_objective "
                f"{lp} (Theorem 2)"
            )
    return problems


class Gate:
    """Counts operations and correctness violations for one run.

    Besides :func:`result_problems`, every result for one digest must
    carry the same objective, whichever path produced it (pool,
    ``repro serve``, fabric, a dedupe hit or the serial replay).  Each
    violation is printed to stderr with its digest and seed and counts
    as one failed operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self._first: dict[str, tuple[float, str]] = {}
        self._lock = threading.Lock()

    def check(
        self, result: Any, path: str, expect_digest: str | None = None
    ) -> bool:
        problems = result_problems(result)
        if expect_digest is not None and result.digest != expect_digest:
            problems.append(
                f"{path} answered digest {result.digest[:12]}, "
                f"expected {expect_digest[:12]}"
            )
        with self._lock:
            self.attempted += 1
            if result.ok and result.objective is not None:
                first, where = self._first.setdefault(
                    result.digest, (result.objective, path)
                )
                if abs(first - result.objective) > TOL * max(1.0, abs(first)):
                    problems.append(
                        f"objective {result.objective} from {path} differs "
                        f"from {first} from {where}"
                    )
            if problems:
                self._fail(result.digest, result.meta.get("seed"), problems)
        return not problems

    def fail(self, digest: str, seed: Any, error: str) -> None:
        """Count an operation that produced no result at all."""
        with self._lock:
            self.attempted += 1
            self._fail(digest, seed, [error])

    def _fail(self, digest: str, seed: Any, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            line = f"violation: digest={digest[:12]} seed={seed}: {problem}"
            self.violations.append(line)
            print(line, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Process tree: discovery, memory, cleanup
# ----------------------------------------------------------------------
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a process, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw[raw.rindex(b")") + 2:].split()
    return fields[0].decode(), int(fields[1])


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (zombies excluded)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[0] != "Z":
                children.setdefault(stat[1], []).append(int(entry))
    found: list[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def wait_gone(pids: Sequence[int], timeout: float = 15.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL and re-wait any that linger."""
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 5.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


def reap_local_workers(timeout: float = 15.0) -> None:
    """Join worker processes this process started through multiprocessing.

    ``BatchRunner.close`` shuts its process pool down without waiting;
    the benchmark waits here so no worker outlives the run.
    """
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        return 0


class TreeMemory:
    """Samples the summed resident memory of this process and its tree.

    The tree is the benchmark, its pool workers, its ``repro serve``
    processes and their workers; :attr:`peak_mb` is the largest sum seen.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="perfbench-rss"
        )

    def __enter__(self) -> "TreeMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def sample(self) -> None:
        me = os.getpid()
        total = sum(_rss_bytes(pid) for pid in [me, *descendants(me)])
        self.peak = max(self.peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# ----------------------------------------------------------------------
# repro serve subprocesses
# ----------------------------------------------------------------------
def program_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's source only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_LP_BACKEND", None)  # every workload uses the default
    return env


class Server:
    """One ``repro serve`` process on an ephemeral localhost port.

    With ``cache_log`` set the server starts through
    ``perfbench/serve_traced.py``, which times the server's result-cache
    operations and writes them to that file when the server exits.
    """

    def __init__(
        self, args: Sequence[str], cwd: Path, cache_log: Path | None = None
    ) -> None:
        serve = ["serve", "--port", "0", *args]
        if cache_log is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            script = Path(__file__).with_name("serve_traced.py")
            cmd = [sys.executable, str(script), str(cache_log), *serve]
        self.cache_log = cache_log
        self.url: str | None = None
        self._tail: deque[str] = deque(maxlen=40)
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=program_env(),
            cwd=cwd,
        )
        self._pump = threading.Thread(
            target=self._read_output, daemon=True, name="perfbench-serve-out"
        )
        self._pump.start()

    def _read_output(self) -> None:
        # Drains the pipe for the server's whole life so it never blocks
        # on a full pipe; keeps the tail for error reports.
        for line in self.proc.stdout:
            self._tail.append(line.rstrip())
            if self.url is None:
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    self.url = match.group(1)
                    self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 60.0) -> str:
        self._ready.wait(timeout)
        if self.url is None:
            self.stop()
            tail = "\n".join(self._tail)
            raise RuntimeError(f"repro serve did not start:\n{tail}")
        return self.url

    def stop(self) -> None:
        """SIGTERM (the server's graceful close path), then wait for the
        server and every process it started to be gone."""
        kids = descendants(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._pump.join(timeout=5)
        self.proc.stdout.close()
        wait_gone(kids)


def metric_sum(exposition: str, name: str) -> float:
    """Sum of every sample of ``name`` in Prometheus text exposition."""
    pattern = re.compile(rf"^{re.escape(name)}(?:\{{[^}}]*\}})?\s+(\S+)$")
    total = 0.0
    for line in exposition.splitlines():
        match = pattern.match(line)
        if match:
            total += float(match.group(1))
    return total

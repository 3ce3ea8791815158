"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload busy-batch --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn, each in a fresh process.
Run it from the root of a checkout.  The program under test is imported
from the ``src/`` directory next to ``perfbench/``, never from an
installed copy, so a directory without that source fails fast with a
non-zero exit and no result line.

``--trace 0`` measures with nothing wrapped and prints every end-to-end
metric; ``--trace 1`` installs the layer wrappers of
``perfbench/layers.py`` and prints the per-layer metrics instead.  Each
metric is printed by name with its unit, then a provenance line, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: End-to-end metrics and their units (BENCHMARK.json lists the same).
E2E_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "solve_p50_ms": "ms",
    "solve_p95_ms": "ms",
    "batch_tasks_per_s": "tasks/s",
    "batch_ttfr_ms": "ms",
    "ok_frac": "ratio",
    "cost_vs_lb": "ratio",
    "peak_rss_mb": "MB",
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all'"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs, for the benchmark's own self-test",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}; run from the root of "
            "a checkout of this repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ.pop("REPRO_LP_BACKEND", None)  # the default backend only

    from perfbench import harness, workloads

    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    import_s = time.perf_counter() - STARTED

    gate = harness.Gate()
    with harness.work_dir() as work, harness.TreeMemory() as memory:
        ctx = workloads.Context(
            seed=args.seed,
            seconds=args.seconds,
            tiny=args.tiny,
            work=work,
            traced=bool(args.trace),
        )
        if args.trace:
            from perfbench import layers

            metrics = layers.traced_run(workload, ctx, gate)
        else:
            setups, m = _untraced(workload, ctx, gate, 1 if args.tiny else SETUP_REPS)
    harness.reap_local_workers()
    harness.wait_gone(harness.descendants(os.getpid()))
    if not args.trace:
        metrics = end_to_end(
            m, gate, import_s + harness.median(setups), memory.peak_mb
        )

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit}")
    print("provenance " + json.dumps(provenance(args, workload), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def _run_all(args: argparse.Namespace, names) -> int:
    """Run every workload in turn, each in a fresh interpreter."""
    codes = [
        subprocess.call(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), *(["--tiny"] if args.tiny else [])]
        )
        for name in names
    ]
    return max(codes)


def _untraced(workload, ctx, gate, reps: int):
    """Set up ``reps`` times (timing each), then run the timed phase on
    the last set-up; pools and servers are fresh for every set-up."""
    setups: list[float] = []
    rig = None
    try:
        for _ in range(reps):
            if rig is not None:
                workload.teardown(rig)
                rig = None
            start = time.perf_counter()
            rig = workload.setup(ctx)
            setups.append(time.perf_counter() - start)
        m = workload.run(rig, ctx.seconds, gate)
    finally:
        if rig is not None:
            workload.teardown(rig)
    return setups, m


def end_to_end(m, gate, setup_s: float, peak_mb: float) -> dict:
    """The end-to-end metrics of one untraced run, ``{name: (value, unit)}``."""
    from repro.obs import trace_spans

    from perfbench.harness import median, percentile

    objective = sum(r.objective for r in m.cost_results if r.ok)
    bound = sum(r.metrics.get("lower_bound", 0.0) for r in m.cost_results if r.ok)
    if m.latencies_ms:
        # serve-mixed: the /solve latency from each request's due time.
        solve_ms = m.latencies_ms
    else:
        # Batch workloads: each solved task's time in its worker, as the
        # engine reports it (the ``solving`` span); hits have none.
        spans = (trace_spans(r.metrics) for r in m.results)
        solve_ms = [s["solving"] * 1e3 for s in spans if "solving" in s]
    values = {
        "setup_s": setup_s,
        # Every result delivered (dedupe hits and, on serve-mixed, the
        # /solve responses included) per second of the timed phase.
        "tasks_per_s": len(m.results) / m.wall,
        "solve_p50_ms": percentile(solve_ms, 50),
        "solve_p95_ms": percentile(solve_ms, 95),
        "batch_tasks_per_s": m.bulk_results / m.wall,
        "batch_ttfr_ms": median(m.ttfr_ms),
        "ok_frac": (gate.attempted - gate.failed) / max(1, gate.attempted),
        "cost_vs_lb": objective / bound if bound > 0 else 0.0,
        "peak_rss_mb": peak_mb,
    }
    return {name: (float(values[name]), E2E_UNITS[name]) for name in E2E_UNITS}


def provenance(args: argparse.Namespace, workload) -> dict:
    """Machine and program facts recorded with every run."""
    import multiprocessing

    import numpy
    import scipy
    from repro.solvers import available_backend_names, resolve_backend

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backends": list(available_backend_names()),
        "default_backend": resolve_backend().name,
        "start_method": multiprocessing.get_start_method(),
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha() -> str | None:
    """The checkout's commit, when it is a git work tree (else None)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over the program's source files: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``active``
    Solve an active-time instance from a JSON/CSV file:
    ``python -m repro active jobs.json --g 2 --algorithm rounding``
``busy``
    Solve a busy-time instance:
    ``python -m repro busy jobs.csv --g 3 --algorithm greedy_tracking``
``algos``
    List every registered solver with its metadata.
``sweep``
    Run a generator x algorithm x g experiment grid through the batch
    engine: ``python -m repro sweep --jobs 4 --out results.jsonl``;
    add ``--remote host1:8977,host2:8978`` to fan the grid out across
    running ``repro serve`` hosts via the work-stealing fabric.
``batch``
    Solve many instance files in one run:
    ``python -m repro batch a.json b.csv --problem busy --g 2 --jobs 4``
``gadget``
    Materialize one of the paper's constructions to a file:
    ``python -m repro gadget figure3 --g 5 --out fig3.json``
``cache``
    Inspect the on-disk result cache; ``--prune`` evicts oldest-mtime
    entries down to a byte budget:
    ``python -m repro cache --prune --budget 50M``
``serve``
    HTTP/JSONL serving front end over the batch engine:
    ``python -m repro serve --port 8977 --jobs 4 --disk-budget 200M``
``stats``
    Query a running ``repro serve`` for its metrics digest
    (``GET /stats``), or the raw Prometheus text with ``--raw``:
    ``python -m repro stats --url http://127.0.0.1:8977``
``bounds``
    Print all lower bounds for a busy-time instance.
``experiments``
    Run the registered paper experiments.

Algorithm dispatch goes through :data:`repro.engine.REGISTRY` — the
CLI holds no algorithm lists of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

from .analysis import format_table
from .analysis.experiments import EXPERIMENTS, run_all, run_experiment
from .busytime import (
    best_lower_bound,
    demand_profile_lower_bound,
    mass_lower_bound,
    span_lower_bound,
)
from .engine import (
    REGISTRY,
    BatchRunner,
    ResultCache,
    SweepGrid,
    aggregate_table,
    backend_task_params,
    default_grid,
    make_task,
    run_sweep,
    write_results,
)
from .obs import EventLog, trace_spans
from .instances import (
    PROBLEM_GENERATORS,
    SWEEP_GENERATORS,
    figure1,
    figure3,
    figure6,
    figure8,
    figure9,
    figure10,
    lp_gap,
)
from .io import load_instance, load_instances, save_instance
from .solvers import backend_names, backend_status, resolve_backend

__all__ = ["main"]

GADGETS = {
    "figure1": lambda args: figure1(),
    "figure3": lambda args: figure3(args.g),
    "lp_gap": lambda args: lp_gap(args.g),
    "figure6": lambda args: figure6(args.g, eps=args.eps),
    "figure8": lambda args: figure8(eps=args.eps, eps_prime=args.eps / 2),
    "figure9": lambda args: figure9(args.g, eps=args.eps),
    "figure10": lambda args: figure10(args.g, eps=args.eps, eps_prime=args.eps / 2),
}

DEFAULT_CACHE_DIR = ".repro-cache"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Active/busy-time scheduling (Chang-Khuller-Mukherjee, SPAA 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    backend_help = (
        "LP/MILP backend for LP-based algorithms "
        "(default: $REPRO_LP_BACKEND or scipy-highs)"
    )

    p_active = sub.add_parser("active", help="solve an active-time instance")
    p_active.add_argument("path", help="instance file (.json or .csv)")
    p_active.add_argument("--g", type=int, required=True, help="slot capacity")
    p_active.add_argument(
        "--algorithm", choices=REGISTRY.names("active"), default="rounding"
    )
    p_active.add_argument("--backend", default=None, help=backend_help)

    p_busy = sub.add_parser("busy", help="solve a busy-time instance")
    p_busy.add_argument("path", help="instance file (.json or .csv)")
    p_busy.add_argument("--g", type=int, required=True, help="machine capacity")
    p_busy.add_argument(
        "--algorithm",
        choices=REGISTRY.names("busy"),
        default="greedy_tracking",
    )
    p_busy.add_argument("--backend", default=None, help=backend_help)

    sub.add_parser("algos", help="list registered solvers and backends")

    p_sweep = sub.add_parser(
        "sweep", help="run an experiment grid through the batch engine"
    )
    p_sweep.add_argument(
        "--problem",
        choices=("active", "busy", "both"),
        default="both",
        help="which problem grids to run (default both)",
    )
    p_sweep.add_argument(
        "--generators",
        help=f"comma-separated subset of {sorted(SWEEP_GENERATORS)} "
        "(default: first two families for the problem)",
    )
    p_sweep.add_argument(
        "--algorithms",
        help="comma-separated solver names (default: all cheap registered)",
    )
    p_sweep.add_argument(
        "--g", help="comma-separated g values (default 3,4 active / 2,3 busy)"
    )
    p_sweep.add_argument("--n", type=int, default=10, help="jobs per instance")
    p_sweep.add_argument("--horizon", type=int, default=20)
    p_sweep.add_argument(
        "--instances", type=int, default=3, help="instances per grid cell"
    )
    p_sweep.add_argument("--seed", type=int, default=2014)
    p_sweep.add_argument("--backend", default=None, help=backend_help)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task timeout (s); hard (watchdog-enforced, survives "
        "solvers stuck in native code) with --jobs >= 2, soft at the "
        "default --jobs 1",
    )
    p_sweep.add_argument(
        "--limit", type=int, default=None, help="cap on total tasks"
    )
    p_sweep.add_argument(
        "--out", default="sweep_results.jsonl", help="JSONL result file"
    )
    p_sweep.add_argument(
        "--stream",
        action="store_true",
        help="print each result as a JSONL line on stdout the moment it "
        "completes (tables/summary move to stderr)",
    )
    p_sweep.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache (default {DEFAULT_CACHE_DIR})",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p_sweep.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="append one structured JSON event per result (plus run "
        "start/end) to this JSONL file",
    )
    p_sweep.add_argument(
        "--remote",
        default=None,
        metavar="HOSTS",
        help="dispatch the sweep across running `repro serve` hosts "
        "(comma-separated host:port list) instead of solving locally; "
        "--jobs/--cache-dir then belong to the servers and are ignored",
    )
    p_sweep.add_argument(
        "--window",
        type=int,
        default=None,
        help="fixed per-host in-flight window for --remote (default: "
        "sized from each host's /healthz capacity report)",
    )

    p_batch = sub.add_parser(
        "batch", help="solve many instance files through the engine"
    )
    p_batch.add_argument(
        "paths",
        nargs="+",
        help="instance files (.json/.csv, or .jsonl with one instance per line)",
    )
    p_batch.add_argument(
        "--problem", choices=("active", "busy"), default="active"
    )
    p_batch.add_argument("--g", type=int, required=True)
    p_batch.add_argument("--algorithm", default=None,
                         help="solver name (default: rounding / greedy_tracking)")
    p_batch.add_argument("--backend", default=None, help=backend_help)
    p_batch.add_argument("--jobs", type=int, default=1)
    p_batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task timeout (s); hard with --jobs >= 2, soft at "
        "--jobs 1 (see sweep --timeout)",
    )
    p_batch.add_argument("--out", default=None, help="JSONL result file")
    p_batch.add_argument(
        "--stream",
        action="store_true",
        help="print each result as a JSONL line on stdout the moment it "
        "completes (tables/summary move to stderr)",
    )
    p_batch.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p_batch.add_argument("--no-cache", action="store_true")
    p_batch.add_argument(
        "--obs-log",
        default=None,
        metavar="PATH",
        help="append one structured JSON event per result (plus run "
        "start/end) to this JSONL file",
    )
    p_batch.add_argument(
        "--remote",
        default=None,
        metavar="HOSTS",
        help="dispatch the batch across running `repro serve` hosts "
        "(comma-separated host:port list) instead of solving locally",
    )
    p_batch.add_argument(
        "--window",
        type=int,
        default=None,
        help="fixed per-host in-flight window for --remote (default: "
        "sized from each host's /healthz capacity report)",
    )

    p_serve = sub.add_parser(
        "serve", help="HTTP/JSONL serving front end over the batch engine"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 to expose)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8977,
        help="TCP port (default 8977; 0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, help="worker processes per wave"
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-task timeout (s) for requests that set none; "
        "hard (watchdog-enforced) with --jobs >= 2",
    )
    p_serve.add_argument("--backend", default=None, help=backend_help)
    p_serve.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache (default {DEFAULT_CACHE_DIR})",
    )
    p_serve.add_argument(
        "--disk-budget",
        default=None,
        help="byte budget for the disk cache, K/M/G suffixes accepted "
        "(default unbounded)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="no disk cache (an in-memory cache still dedupes requests)",
    )
    p_serve.add_argument(
        "--warm-pool",
        action="store_true",
        help="pre-spawn the watchdog worker pool at startup (--jobs >= 2) "
        "so the first deadlined request pays no process-spawn latency",
    )
    p_serve.add_argument(
        "--idle-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="reap watchdog workers idle for this long, so a quiet "
        "server releases its worker processes (default: keep warm)",
    )
    p_serve.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="refuse connections past this count with 503 "
        "(default: unbounded)",
    )
    p_serve.add_argument(
        "--write-stall-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="treat a /batch client that accepts no bytes for this long "
        "as disconnected, freeing its leased workers (default 300)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )

    p_stats = sub.add_parser(
        "stats", help="query a running repro serve for its metrics"
    )
    p_stats.add_argument(
        "--url",
        default="http://127.0.0.1:8977",
        help="server base URL (default http://127.0.0.1:8977)",
    )
    p_stats.add_argument(
        "--raw",
        action="store_true",
        help="print the raw Prometheus /metrics text instead of the "
        "JSON /stats digest",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk result cache"
    )
    p_cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p_cache.add_argument(
        "--prune",
        action="store_true",
        help="evict oldest-mtime entries until the store fits --budget",
    )
    p_cache.add_argument(
        "--budget",
        default="0",
        help="byte budget for --prune; accepts K/M/G suffixes "
        "(default 0 = empty the store)",
    )

    p_gadget = sub.add_parser("gadget", help="materialize a paper gadget")
    p_gadget.add_argument("name", choices=sorted(GADGETS))
    p_gadget.add_argument("--g", type=int, default=3)
    p_gadget.add_argument("--eps", type=float, default=0.1)
    p_gadget.add_argument("--out", help="write the instance to this file")

    p_bounds = sub.add_parser("bounds", help="busy-time lower bounds")
    p_bounds.add_argument("path", help="instance file (.json or .csv)")
    p_bounds.add_argument("--g", type=int, required=True)

    p_exp = sub.add_parser(
        "experiments", help="run registered paper experiments"
    )
    p_exp.add_argument(
        "keys", nargs="*", help=f"subset of {sorted(EXPERIMENTS)} (default all)"
    )

    p_lint = sub.add_parser(
        "lint",
        help="project-specific static analysis (rules REP001-REP006)",
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to scan (default: src benchmarks)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of text findings",
    )
    p_lint.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    p_lint.add_argument(
        "--root", metavar="DIR", default=None,
        help="project root for relative paths and the README metrics catalog",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )

    return parser


def _cmd_active(args) -> int:
    instance = load_instance(args.path)
    params = backend_task_params("active", args.algorithm, args.backend)
    outcome = REGISTRY.solve(
        "active", args.algorithm, instance, args.g, **params
    )
    spec = REGISTRY.get("active", args.algorithm)
    schedule = outcome.schedule
    print(f"instance : {instance.describe()}")
    print(f"algorithm: {args.algorithm} ({spec.guarantee})")
    if args.backend:
        print(f"backend  : {args.backend}")
    print(f"active time: {schedule.cost} slots")
    print(f"active slots: {list(schedule.active_slots)}")
    for key in ("lp_objective", "ratio_vs_lp"):
        if key in outcome.metrics:
            print(f"{key}: {outcome.metrics[key]:.3f}")
    return 0


def _cmd_busy(args) -> int:
    instance = load_instance(args.path)
    params = backend_task_params("busy", args.algorithm, args.backend)
    outcome = REGISTRY.solve(
        "busy", args.algorithm, instance, args.g, **params
    )
    schedule = outcome.schedule
    print(f"instance : {instance.describe()}")
    print(f"algorithm: {args.algorithm}")
    if args.backend:
        print(f"backend  : {args.backend}")
    print(f"busy time: {schedule.total_busy_time:g}")
    print(f"machines : {schedule.num_machines}")
    rows = [
        [k + 1, b.busy_time, len(b), b.job_ids()]
        for k, b in enumerate(schedule.bundles)
    ]
    print(format_table("bundles", ["machine", "busy", "jobs", "ids"], rows))
    return 0


def _cmd_algos(args) -> int:
    rows = [spec.describe_row() for spec in REGISTRY.specs()]
    print(
        format_table(
            f"registered solvers ({len(rows)})",
            ["problem", "name", "guarantee", "backend", "complexity",
             "description"],
            rows,
        )
    )
    print()
    backend_rows = []
    for name in backend_names():
        status = backend_status(name)
        backend_rows.append(
            [name, ",".join(status["capabilities"]), status["status"]]
        )
    print(
        format_table(
            f"LP/MILP backends ({len(backend_rows)})",
            ["backend", "capabilities", "status"],
            backend_rows,
        )
    )
    return 0


def _split_csv(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _make_cache(args) -> ResultCache | None:
    if args.no_cache:
        return None
    return ResultCache(directory=args.cache_dir)


def _emit_jsonl(result) -> None:
    """Print one result as a sorted-key JSONL line, unbuffered.

    The flush is the point of ``--stream``: each record must reach a
    pipe/consumer the moment the engine yields it, not at exit.
    """
    print(json.dumps(result.to_record(), sort_keys=True), flush=True)


def _obs_event(result) -> dict:
    """The ``--obs-log`` event fields for one task result."""
    return {
        "index": result.index,
        "digest": result.digest[:12],
        "problem": result.problem,
        "algorithm": result.algorithm,
        "g": result.g,
        "ok": result.ok,
        "objective": result.objective,
        "cached": result.cached,
        "elapsed": round(result.elapsed, 6),
        "spans": trace_spans(result.metrics),
        **({"error": result.error} if result.error else {}),
    }


def _make_dispatcher(args):
    """Build the fabric dispatcher for ``--remote``, or ``None``."""
    if not getattr(args, "remote", None):
        return None
    from .fabric import RemoteDispatcher

    return RemoteDispatcher(args.remote, window=args.window)


def _fabric_report(stats, report) -> None:
    """Per-host fabric table after a ``--remote`` run."""
    rows = [
        [
            label,
            host.window,
            "up" if host.up else "DOWN",
            host.dispatched,
            host.completed,
            host.retried,
            host.probes,
        ]
        for label, host in sorted(stats.hosts.items())
    ]
    print(file=report)
    print(
        format_table(
            "fabric hosts",
            ["host", "window", "state", "dispatched", "completed",
             "retried", "probes"],
            rows,
        ),
        file=report,
    )
    if stats.retried or stats.gave_up:
        print(
            f"fabric   : {stats.retried} re-dispatches, "
            f"{stats.gave_up} tasks given up",
            file=report,
        )


def _cmd_sweep(args) -> int:
    problems = ("active", "busy") if args.problem == "both" else (args.problem,)
    generators = _split_csv(args.generators)
    algorithms = _split_csv(args.algorithms)
    g_values = _split_csv(args.g)

    # A requested name may legitimately apply to only one of the selected
    # problems, but a name unknown to every selected problem is a typo —
    # silently dropping it would fake a successful run.
    if generators:
        known = {g for p in problems for g in PROBLEM_GENERATORS[p]}
        unknown = [g for g in generators if g not in known]
        if unknown:
            raise ValueError(
                f"unknown generator(s) {unknown} for problem "
                f"{args.problem!r}; choose from {sorted(known)}"
            )
    if algorithms:
        known = {a for p in problems for a in REGISTRY.names(p)}
        unknown = [a for a in algorithms if a not in known]
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown} for problem "
                f"{args.problem!r}; choose from {sorted(known)}"
            )
    if args.backend:
        # Same fail-fast UX as the filters above: a typo'd backend name
        # errors with the menu instead of silently solving elsewhere.
        resolve_backend(args.backend)

    grids = []
    for problem in problems:
        base = default_grid(problem)
        gens = (
            tuple(
                g for g in generators if g in PROBLEM_GENERATORS[problem]
            )
            if generators
            else base.generators
        )
        algos = (
            tuple(a for a in algorithms if a in REGISTRY.names(problem))
            if algorithms
            else base.algorithms
        )
        if generators and not gens:
            continue  # user-picked generators all belong to the other problem
        if algorithms and not algos:
            continue
        grids.append(
            SweepGrid(
                problem=problem,
                generators=gens,
                algorithms=algos,
                g_values=(
                    tuple(int(v) for v in g_values)
                    if g_values
                    else base.g_values
                ),
                instances_per_cell=args.instances,
                n=args.n,
                horizon=args.horizon,
                timeout=args.timeout,
                backend=args.backend,
            )
        )
    if not grids:
        raise ValueError("no grid cells match the requested filters")

    obs_log = EventLog(args.obs_log) if args.obs_log else None
    dispatcher = _make_dispatcher(args)

    def on_result(result):
        if args.stream:
            _emit_jsonl(result)
        if obs_log is not None:
            obs_log.emit("task_result", **_obs_event(result))

    try:
        if obs_log is not None:
            obs_log.emit(
                "sweep_start",
                jobs=args.jobs,
                problems=list(problems),
                **({"remote": dispatcher.urls} if dispatcher else {}),
            )
        outcome = run_sweep(
            grids,
            jobs=args.jobs,
            cache=None if dispatcher else _make_cache(args),
            base_seed=args.seed,
            limit=args.limit,
            on_result=(
                on_result if (args.stream or obs_log is not None) else None
            ),
            dispatcher=dispatcher,
        )
        if obs_log is not None:
            obs_log.emit(
                "sweep_done",
                tasks=len(outcome.results),
                errors=outcome.errors,
                cache_hits=outcome.cache_hits,
                elapsed=round(outcome.elapsed, 6),
            )
    finally:
        if obs_log is not None:
            obs_log.close()
    written = write_results(outcome.results, args.out)
    # With --stream, stdout is a JSONL pipe; human-facing report lines
    # move to stderr so downstream parsers see records only.
    report = sys.stderr if args.stream else sys.stdout
    print(outcome.table, file=report)
    print(file=report)
    print(outcome.summary, file=report)
    print(f"results  : {written} records -> {args.out}", file=report)
    if dispatcher is not None and dispatcher.last_stats is not None:
        _fabric_report(dispatcher.last_stats, report)
    for result in outcome.results:
        if not result.ok:
            print(f"error    : {result.error}", file=sys.stderr)
    # Partial failures are expected in exploratory sweeps (some cells may
    # be infeasible) and keep exit 0; a sweep where nothing succeeded is
    # a broken setup and must be visible to scripts and CI.
    if outcome.results and outcome.errors == len(outcome.results):
        return 1
    return 0


def _cmd_batch(args) -> int:
    algorithm = args.algorithm or (
        "rounding" if args.problem == "active" else "greedy_tracking"
    )
    REGISTRY.get(args.problem, algorithm)  # fail fast on unknown names
    params = backend_task_params(args.problem, algorithm, args.backend)
    tasks = []
    for path in args.paths:
        loaded = load_instances(path)
        for pos, instance in enumerate(loaded):
            label = path if len(loaded) == 1 else f"{path}#{pos}"
            tasks.append(
                make_task(
                    index=len(tasks),
                    problem=args.problem,
                    algorithm=algorithm,
                    g=args.g,
                    instance=instance,
                    params=params,
                    meta={"path": label},
                    timeout=args.timeout,
                )
            )
    obs_log = EventLog(args.obs_log) if args.obs_log else None
    dispatcher = _make_dispatcher(args)
    try:
        if obs_log is not None:
            obs_log.emit(
                "batch_start",
                jobs=args.jobs,
                tasks=len(tasks),
                **({"remote": dispatcher.urls} if dispatcher else {}),
            )
        results = []
        with (
            nullcontext(dispatcher)
            if dispatcher is not None
            else BatchRunner(jobs=args.jobs, cache=_make_cache(args))
        ) as executor:
            for result in executor.run_stream(tasks):
                if args.stream:
                    _emit_jsonl(result)
                if obs_log is not None:
                    obs_log.emit("task_result", **_obs_event(result))
                results.append(result)
        cache_hits = sum(r.cached for r in results)
        if obs_log is not None:
            obs_log.emit(
                "batch_done",
                tasks=len(results),
                errors=sum(1 for r in results if not r.ok),
                cache_hits=cache_hits,
            )
    finally:
        if obs_log is not None:
            obs_log.close()
    rows = [
        [
            r.meta.get("path", r.digest[:12]),
            "ok" if r.ok else "ERROR",
            r.objective if r.ok else "-",
            "hit" if r.cached else "",
            f"{r.elapsed:.3f}",
        ]
        for r in results
    ]
    # With --stream, stdout carries records only; reports go to stderr.
    report = sys.stderr if args.stream else sys.stdout
    print(
        format_table(
            f"batch {args.problem}/{algorithm} g={args.g}",
            ["instance", "status", "objective", "cache", "sec"],
            rows,
        ),
        file=report,
    )
    print(file=report)
    print(aggregate_table(results, "batch aggregate"), file=report)
    print(f"cache hits: {cache_hits}/{len(tasks)}", file=report)
    if dispatcher is not None and dispatcher.last_stats is not None:
        _fabric_report(dispatcher.last_stats, report)
    if args.out:
        written = write_results(results, args.out)
        print(f"results  : {written} records -> {args.out}", file=report)
    failures = [r for r in results if not r.ok]
    for result in failures:
        print(f"error    : {result.error}", file=sys.stderr)
    return 1 if failures else 0


def _parse_bytes(text: str) -> int:
    """Parse a byte count with optional K/M/G suffix (``"50M"`` etc.)."""
    text = text.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:].upper())
    try:
        value = int(float(text[:-1]) * scale) if scale else int(text)
    except ValueError:
        raise ValueError(
            f"cannot parse byte budget {text!r}; use e.g. 1048576, 512K, "
            "50M or 2G"
        ) from None
    if value < 0:
        raise ValueError(f"byte budget must be non-negative, got {text!r}")
    return value


def _cmd_cache(args) -> int:
    directory = Path(args.cache_dir)
    if not directory.is_dir():
        print(f"no cache directory at {directory}")
        return 0
    cache = ResultCache(directory=directory)
    num, size = cache.disk_usage()
    print(f"cache dir: {directory}")
    print(f"entries  : {num}")
    print(f"bytes    : {size}")
    if args.prune:
        budget = _parse_bytes(args.budget)
        summary = cache.prune(budget)
        print(
            f"pruned   : {summary['removed']} entries "
            f"({summary['removed_bytes']} bytes) to budget {budget}"
        )
        print(
            f"kept     : {summary['kept']} entries "
            f"({summary['kept_bytes']} bytes)"
        )
    return 0


def _cmd_serve(args) -> int:
    import signal

    from .serve import create_server

    if args.no_cache:
        cache = ResultCache()  # memory-only: still dedupes across requests
    else:
        budget = (
            _parse_bytes(args.disk_budget)
            if args.disk_budget is not None
            else None
        )
        cache = ResultCache(directory=args.cache_dir, disk_budget=budget)
    server = create_server(
        args.host,
        args.port,
        jobs=args.jobs,
        cache=cache,
        default_backend=args.backend,
        default_timeout=args.timeout,
        verbose=args.verbose,
        write_stall_timeout=args.write_stall_timeout,
        max_connections=args.max_connections,
        warm_pool=args.warm_pool,
        idle_ttl=args.idle_ttl,
    )

    # The runner's worker pool outlives individual batches, so a bare
    # SIGTERM (docker stop, subprocess .terminate()) must run the close
    # path below — otherwise worker processes are orphaned holding each
    # other's inherited pipe ends and linger long after the server.  A
    # running event loop is stopped gracefully (request_shutdown only
    # pokes the loop's wake-up pipe, which is signal-safe); raising
    # from the handler is the fallback for a signal landing before the
    # loop is up.
    term_signum = []

    def _on_term(signum, frame):
        term_signum.append(signum)
        if not server.request_shutdown():
            raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _on_term)
    try:
        print(f"repro serve listening on {server.url}")
        print(
            f"  jobs={args.jobs} "
            f"cache={'memory-only' if args.no_cache else args.cache_dir} "
            f"backend={args.backend or 'default'} "
            f"timeout={args.timeout or 'none'}"
        )
        print(
            "  endpoints: GET /algos, GET /healthz, GET /metrics, "
            "GET /stats, POST /solve, POST /batch"
        )
        sys.stdout.flush()
        server.serve_forever()
    finally:
        server.server_close()
    if term_signum:
        return 128 + term_signum[0]
    return 0


def _cmd_stats(args) -> int:
    from .serve.client import ServeClient

    client = ServeClient(args.url, http_timeout=10.0)
    if args.raw:
        sys.stdout.write(client.metrics())
        return 0
    print(json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_gadget(args) -> int:
    gadget = GADGETS[args.name](args)
    print(f"gadget  : {gadget.name} (g={gadget.g})")
    print(f"instance: {gadget.instance.describe()}")
    for key, value in gadget.facts.items():
        print(f"  {key}: {value}")
    if args.out:
        save_instance(gadget.instance, args.out, gadget=gadget.name, g=gadget.g)
        print(f"written to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    instance = load_instance(args.path)
    rows = [
        ["mass  (Obs. 2)", mass_lower_bound(instance, args.g)],
        ["span  (Obs. 3)", span_lower_bound(instance)],
        ["profile (Obs. 4)", demand_profile_lower_bound(instance, args.g)],
        ["best", best_lower_bound(instance, args.g)],
    ]
    print(
        format_table(
            f"lower bounds, {instance.describe()}, g={args.g}",
            ["bound", "value"],
            rows,
        )
    )
    return 0


def _cmd_experiments(args) -> int:
    if args.keys:
        for key in args.keys:
            print(run_experiment(key))
            print()
    else:
        print(run_all())
    return 0


def _cmd_lint(args) -> int:
    # Delegate to the lint package's own CLI so ``repro lint`` and
    # ``python -m repro.lint`` stay one surface (same flags, same exits).
    from .lint.cli import main as lint_main

    argv: list[str] = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.rules:
        argv.extend(["--rules", args.rules])
    if args.root is not None:
        argv.extend(["--root", args.root])
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "active": _cmd_active,
        "busy": _cmd_busy,
        "algos": _cmd_algos,
        "sweep": _cmd_sweep,
        "batch": _cmd_batch,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "gadget": _cmd_gadget,
        "bounds": _cmd_bounds,
        "experiments": _cmd_experiments,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout was closed early (e.g. ``repro algos | head``); exit
        # quietly instead of tracebacking.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ValueError, RuntimeError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Self-test for the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that:

* a tiny pass of every workload in ``BENCHMARK.json``, untraced and
  traced, exits 0, ends with a correct result line and emits exactly the
  ``end_to_end`` (untraced) or ``per_layer`` (traced) metrics named
  there, each with its unit;
* a deliberately wrong objective -- below the lower bound, above
  2 * LP for ``rounding``, or differing from the same digest's first
  result -- trips the correctness gate;
* without the program's source next to it, ``run.py`` exits non-zero
  and prints no result.

Exits 0 when every check passes.  Not part of the repository's test
suite: it starts servers and pools and takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_workloads(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", "7",
                 "--seconds", "2", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit 0")
            if proc.returncode != 0:
                print(proc.stderr[-3000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys",
            )
            expect(
                result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{label}: correct, {result['attempted']} attempted",
            )
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: every {key} metric with its unit")


def check_gate() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.engine import TaskResult

    from perfbench.harness import Gate

    gate = Gate()
    good = TaskResult(
        index=0, digest="a" * 64, problem="busy", algorithm="first_fit",
        g=2, n=3, ok=True, objective=10.0, metrics={"lower_bound": 8.0},
    )
    expect(gate.check(good, "selftest"), "gate passes a correct result")
    below = replace(good, digest="b" * 64, objective=7.0)
    expect(not gate.check(below, "selftest"), "gate trips: objective < lower_bound")
    rounding = replace(
        good, digest="c" * 64, problem="active", algorithm="rounding",
        objective=9.0, metrics={"lower_bound": 4.0, "lp_objective": 4.0},
    )
    expect(not gate.check(rounding, "selftest"), "gate trips: rounding > 2 * LP")
    drift = replace(good, objective=11.0)
    expect(not gate.check(drift, "other path"),
           "gate trips: objective differs across paths")
    expect(gate.failed == 3 and gate.attempted == 4, "gate counts 3 of 4 failed")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "busy-batch",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program source: non-zero exit, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_bare_directory()
    check_workloads(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

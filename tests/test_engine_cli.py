"""CLI smoke tests for the engine commands (algos/sweep/batch).

``sweep`` and ``batch`` are exercised through ``subprocess`` so the
worker-pool path runs exactly as a user would run it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import save_instance

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestAlgosCommand:
    def test_lists_all_solvers(self, capsys):
        assert main(["algos"]) == 0
        out = capsys.readouterr().out
        for name in ("rounding", "minimal", "greedy_tracking", "kumar_rudra"):
            assert name in out
        assert "guarantee" in out


class TestSweepCommand:
    def test_smoke_parallel_then_cached(self, tmp_path):
        first = _run(["sweep", "--limit", "4", "--jobs", "2"], tmp_path)
        assert first.returncode == 0, first.stderr
        assert "cache hits: 0" in first.stdout
        assert (tmp_path / "sweep_results.jsonl").exists()
        records = [
            json.loads(line)
            for line in (tmp_path / "sweep_results.jsonl").read_text().splitlines()
        ]
        assert len(records) == 4
        assert all(r["ok"] for r in records)

        second = _run(["sweep", "--limit", "4", "--jobs", "2"], tmp_path)
        assert second.returncode == 0, second.stderr
        assert "cache hits: 4" in second.stdout

    def test_no_cache_flag(self, tmp_path):
        run = _run(
            ["sweep", "--limit", "2", "--no-cache", "--out", "r.jsonl"],
            tmp_path,
        )
        assert run.returncode == 0, run.stderr
        assert not (tmp_path / ".repro-cache").exists()

    def test_typoed_filter_names_are_errors(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--generators", "intervall", "--limit", "1"]) == 1
        assert "unknown generator" in capsys.readouterr().err
        assert main(["sweep", "--algorithms", "greedy_traking",
                     "--limit", "1"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_all_tasks_failing_exits_nonzero(self, tmp_path, capsys,
                                             monkeypatch):
        # 60 jobs of mass >= 1 into 20 slots at g=1: certainly infeasible.
        monkeypatch.chdir(tmp_path)
        rc = main(["sweep", "--problem", "active", "--algorithms", "minimal",
                   "--g", "1", "--n", "60", "--horizon", "20",
                   "--instances", "1", "--limit", "2",
                   "--no-cache", "--out", "r.jsonl"])
        captured = capsys.readouterr()
        assert "task " in captured.err
        assert rc == 1

    def test_stream_prints_pure_jsonl_on_stdout(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "sweep", "--limit", "3", "--no-cache", "--stream",
            "--out", "r.jsonl",
        ]) == 0
        captured = capsys.readouterr()
        records = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        assert [r["index"] for r in records] == [0, 1, 2]
        # the report (table + summary) moved to stderr
        assert "tasks: 3" in captured.err
        assert "sweep aggregate" in captured.err

    def test_inprocess_filters(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "sweep", "--problem", "busy", "--generators", "interval",
            "--algorithms", "first_fit", "--g", "2", "--instances", "1",
            "--no-cache", "--out", "r.jsonl",
        ]) == 0
        out = capsys.readouterr().out
        assert "busy/first_fit g=2" in out
        assert "tasks: 1" in out


class TestBatchCommand:
    @pytest.fixture
    def files(self, tmp_path, tiny_instance, interval_instance):
        a = tmp_path / "a.json"
        b = tmp_path / "b.csv"
        save_instance(tiny_instance, a)
        save_instance(interval_instance, b)
        return a, b

    def test_subprocess_smoke(self, tmp_path, files):
        a, b = files
        run = _run(
            ["batch", str(a), str(b), "--problem", "busy", "--g", "2",
             "--jobs", "2", "--out", "batch.jsonl"],
            tmp_path,
        )
        assert run.returncode == 0, run.stderr
        assert "batch busy/greedy_tracking g=2" in run.stdout
        records = [
            json.loads(line)
            for line in (tmp_path / "batch.jsonl").read_text().splitlines()
        ]
        assert [r["ok"] for r in records] == [True, True]

    def test_jsonl_workload_file(self, tmp_path, capsys, monkeypatch,
                                 tiny_instance, interval_instance):
        from repro.io import instance_to_payload

        monkeypatch.chdir(tmp_path)
        work = tmp_path / "work.jsonl"
        work.write_text("".join(
            json.dumps(instance_to_payload(inst)) + "\n"
            for inst in (tiny_instance, interval_instance)
        ))
        assert main([
            "batch", str(work), "--problem", "busy", "--g", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert f"{work}#0" in out
        assert f"{work}#1" in out

    def test_stream_prints_pure_jsonl_on_stdout(
        self, tmp_path, capsys, monkeypatch, files
    ):
        a, b = files
        monkeypatch.chdir(tmp_path)
        assert main([
            "batch", str(a), str(b), "--problem", "busy", "--g", "2",
            "--no-cache", "--stream", "--out", "batch.jsonl",
        ]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.strip()]
        records = [json.loads(line) for line in lines]  # stdout: JSONL only
        assert [r["index"] for r in records] == [0, 1]
        assert all(r["ok"] for r in records)
        # human-facing report moved to stderr, and --out still written
        assert "batch aggregate" in captured.err
        assert (tmp_path / "batch.jsonl").read_text().splitlines() == lines

    def test_inprocess_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from repro.core import Instance

        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        save_instance(Instance.from_tuples([(0, 1, 1), (0, 1, 1)]), bad)
        assert main([
            "batch", str(bad), "--problem", "active", "--g", "1",
            "--algorithm", "minimal", "--no-cache",
        ]) == 1
        captured = capsys.readouterr()
        assert "ERROR" in captured.out
        assert "task " in captured.err


class TestBackendFlag:
    @pytest.fixture
    def active_file(self, tmp_path, tiny_instance):
        path = tmp_path / "inst.json"
        save_instance(tiny_instance, path)
        return path

    def test_reference_and_scipy_agree(self, active_file, capsys):
        costs = {}
        for backend in ("reference", "scipy-highs"):
            assert main([
                "active", str(active_file), "--g", "2",
                "--backend", backend,
            ]) == 0
            out = capsys.readouterr().out
            assert f"backend  : {backend}" in out
            costs[backend] = [
                line for line in out.splitlines() if "active time" in line
            ]
        assert costs["reference"] == costs["scipy-highs"]

    @pytest.mark.parametrize("backend", ["glpk", "highs"])
    def test_unknown_backend_exits_nonzero_with_menu(self, active_file,
                                                     capsys, backend):
        assert main([
            "active", str(active_file), "--g", "2", "--backend", backend,
        ]) == 1
        err = capsys.readouterr().err
        assert f"unknown backend {backend!r}" in err
        assert "scipy-highs (" in err and "reference (" in err

    def test_backend_on_combinatorial_algorithm_errors(self, active_file,
                                                       capsys):
        assert main([
            "active", str(active_file), "--g", "2",
            "--algorithm", "minimal", "--backend", "reference",
        ]) == 1
        assert "combinatorial" in capsys.readouterr().err

    def test_sweep_backend_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "sweep", "--problem", "active", "--algorithms", "rounding",
            "--generators", "active", "--g", "3", "--instances", "1",
            "--backend", "reference", "--no-cache", "--out", "r.jsonl",
        ]) == 0
        out = capsys.readouterr().out
        assert "errors: 0" in out

    def test_sweep_unknown_backend_errors(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--backend", "glpk", "--limit", "1"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_algos_lists_backend_capabilities(self, capsys):
        assert main(["algos"]) == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "milp" in out
        assert "scipy-highs" in out and "reference" in out


class TestCacheCommand:
    def test_stats_and_prune(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--limit", "3", "--out", "r.jsonl"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries  : 3" in out
        assert main(["cache", "--prune", "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned   : 3 entries" in out
        assert main(["cache"]) == 0
        assert "entries  : 0" in capsys.readouterr().out

    def test_missing_directory_is_graceful(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["cache"]) == 0
        assert "no cache directory" in capsys.readouterr().out

    # "infK" and "1e400K" scale to an infinite float, which int() rejects
    # with OverflowError rather than ValueError.
    @pytest.mark.parametrize("budget", ["10Q", "infK", "1e400K"])
    def test_bad_budget_errors(self, budget, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / ".repro-cache").mkdir()
        assert main(["cache", "--prune", "--budget", budget]) == 1
        assert "cannot parse byte budget" in capsys.readouterr().err

    def test_bad_serve_disk_budget_errors_before_binding(self, capsys):
        assert main(["serve", "--port", "0", "--disk-budget", "1e400K"]) == 1
        assert "cannot parse byte budget" in capsys.readouterr().err

    def test_negative_budget_rejected(self, tmp_path, capsys, monkeypatch):
        # a typo'd negative budget must not silently empty the store
        monkeypatch.chdir(tmp_path)
        (tmp_path / ".repro-cache").mkdir()
        (tmp_path / ".repro-cache" / "k.json").write_text("{}")
        assert main(["cache", "--prune", "--budget=-1K"]) == 1
        assert "non-negative" in capsys.readouterr().err
        assert (tmp_path / ".repro-cache" / "k.json").exists()

"""Tests for ``repro.lint`` — the project static-analysis framework.

Each rule gets a positive (violating), negative (clean) and waived
fixture; the framework itself is pinned by waiver-parsing, ``--json``
schema and exit-code tests.  Two tests run against the *real* tree: the
self-lint (the framework must keep the repo clean, waivers included)
and README↔registry metrics-catalog parity (REP004 in both directions).
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths
from repro.lint.base import Finding
from repro.lint.callgraph import (
    called_names,
    function_table,
    reachable_names,
    worker_entry_names,
    worker_path_names,
)
from repro.lint.cli import main as lint_main
from repro.lint.report import render_text
from repro.lint.runner import LintReport, collect_files
from repro.lint.waivers import parse_waivers

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules_hit(report):
    return {f.rule for f in report.findings}


def _lint_dir(tmp_path, **kwargs):
    kwargs.setdefault("root", tmp_path)
    return lint_paths([tmp_path], **kwargs)


# ----------------------------------------------------------------------
# Rule fixtures: positive / negative / waived
# ----------------------------------------------------------------------

class TestREP001AsyncBlocking:
    def test_blocking_calls_in_coroutine_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import time

            async def handler():
                time.sleep(1)
                open("x")
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP001"])
        assert len(report.findings) == 2
        assert _rules_hit(report) == {"REP001"}
        assert report.findings[0].line == 4

    def test_async_sleep_and_sync_helpers_pass(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import asyncio
            import time

            async def handler():
                await asyncio.sleep(1)

                def executor_target():
                    time.sleep(1)  # sync helper: allowed to block
                return executor_target

            def plain():
                time.sleep(1)
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP001"]).ok

    def test_banned_server_imports_only_in_serve_package(self, tmp_path):
        source = "import socketserver\n"
        _write(tmp_path, "src/repro/serve/bad.py", source)
        _write(tmp_path, "src/repro/other/fine.py", source)
        report = _lint_dir(tmp_path, rule_ids=["REP001"])
        assert [f.path for f in report.findings] == [
            "src/repro/serve/bad.py"
        ]


class TestREP002BroadExcept:
    def test_broad_except_in_coroutine_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            async def fetch():
                try:
                    await step()
                except Exception:
                    return None
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP002"])
        assert _rules_hit(report) == {"REP002"}
        assert "CancelledError" in report.findings[0].message

    def test_cancelled_sibling_reraise_accepted(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import asyncio

            async def fetch():
                try:
                    await step()
                except asyncio.CancelledError:
                    raise
                except Exception:
                    return None
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP002"]).ok

    def test_swallowed_cancellederror_is_the_violation(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import asyncio

            async def fetch():
                try:
                    await step()
                except asyncio.CancelledError:
                    return None
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP002"])
        assert not report.ok
        assert "without re-raise" in report.findings[0].message

    def test_worker_path_wants_keyboardinterrupt(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading

            def boot():
                threading.Thread(target=work).start()

            def work():
                try:
                    step()
                except Exception:
                    pass

            def not_a_worker():
                try:
                    step()
                except Exception:
                    pass
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP002"])
        assert len(report.findings) == 1
        assert report.findings[0].line == 9
        assert "KeyboardInterrupt" in report.findings[0].message

    def test_worker_reraise_patterns_accepted(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading

            def boot():
                threading.Thread(target=work).start()

            def work():
                try:
                    step()
                except KeyboardInterrupt:
                    raise
                except Exception:
                    pass
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP002"]).ok

    def test_waived_with_reason(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            async def teardown():
                try:
                    await close()
                except Exception:  # lint: waive[REP002] best-effort close
                    pass
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP002"])
        assert report.ok
        assert len(report.waived) == 1


class TestREP003LockDiscipline:
    def test_lock_free_read_of_guarded_field_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def peek(self):
                    return self.count
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP003"])
        assert len(report.findings) == 1
        assert "peek" in report.findings[0].message
        assert "count" in report.findings[0].message

    def test_guarded_read_and_dunders_pass(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def peek(self):
                    with self._lock:
                        return self.count

                def __repr__(self):
                    return f"Counter({self.count})"
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP003"]).ok

    def test_manual_acquire_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    self._lock.acquire()
                    try:
                        pass
                    finally:
                        self._lock.release()
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP003"])
        assert len(report.findings) == 2  # acquire + release
        assert "with" in report.findings[0].message

    def test_deliberately_racy_read_waived(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def peek(self):
                    return self.count  # lint: waive[REP003] monotonic counter; torn reads acceptable for reporting
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP003"])
        assert report.ok
        assert len(report.waived) == 1


class TestREP004MetricsHygiene:
    def test_bad_name_duplicate_and_catalog_drift(self, tmp_path):
        _write(tmp_path, "README.md", """\
            Metrics catalog (all names prefixed `repro_`):

            | metric        | type    |
            |---------------|---------|
            | `good_total`  | counter |
            | `ghost_total` | counter |

            # next section
        """)
        _write(tmp_path, "src/repro/obs/metrics.py", """\
            OBS = object()
        """)
        _write(tmp_path, "mod.py", """\
            from repro.obs import REGISTRY as OBS

            A = OBS.counter("repro_good_total", "cataloged")
            B = OBS.counter("myapp_bad_total", "wrong prefix")
            C = OBS.counter("repro_good_total", "duplicate")
            D = OBS.counter("repro_undocumented_total", "not in catalog")
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP004"])
        messages = "\n".join(f.message for f in report.findings)
        assert "myapp_bad_total" in messages          # naming
        assert "already registered" in messages       # uniqueness
        assert "repro_undocumented_total" in messages  # code → catalog
        assert "repro_ghost_total" in messages         # catalog → code
        ghost = [f for f in report.findings if "ghost" in f.message]
        assert ghost[0].path == "README.md"

    def test_computed_name_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            from repro.obs import REGISTRY as OBS

            NAME = "repro_dynamic_total"
            A = OBS.counter(NAME, "computed names cannot be audited")
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP004"])
        assert "string literal" in report.findings[0].message

    def test_clean_registrations_pass_without_readme(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            from repro.obs import REGISTRY as OBS

            A = OBS.counter("repro_things_total", "fine")
            B = OBS.gauge("repro_depth", "fine")
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP004"]).ok


class TestREP005ForkSafety:
    def test_lambda_lock_and_closure_to_process_pool_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import threading
            from concurrent.futures import ProcessPoolExecutor

            guard = threading.Lock()

            def go():
                pool = ProcessPoolExecutor()
                pool.submit(lambda: 1)
                pool.submit(work, guard)

                def closure():
                    return 1
                pool.submit(closure)

            def work(lock):
                pass
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP005"])
        messages = "\n".join(f.message for f in report.findings)
        assert "lambda" in messages
        assert "lock" in messages
        assert "closure" in messages
        assert len(report.findings) == 3

    def test_process_target_lambda_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import multiprocessing

            def go():
                ctx = multiprocessing.get_context("fork")
                proc = ctx.Process(target=lambda: 1)
                proc.start()
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP005"])
        assert len(report.findings) == 1
        assert "lambda" in report.findings[0].message

    def test_module_level_functions_and_thread_pools_pass(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures import ThreadPoolExecutor

            def work(n):
                return n

            def go():
                pool = ProcessPoolExecutor()
                pool.submit(work, 3)
                threads = ThreadPoolExecutor()
                threads.submit(lambda: 1)  # threads never pickle
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP005"]).ok


class TestREP006DigestDeterminism:
    def test_clock_in_digest_path_flagged(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import hashlib
            import time

            def task_digest(task):
                return hashlib.sha256(str(_salt()).encode()).hexdigest()

            def _salt():
                return time.time()
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP006"])
        assert len(report.findings) == 1
        assert "time.time()" in report.findings[0].message
        assert "_salt" in report.findings[0].message

    def test_unsorted_dict_iteration_flagged_sorted_passes(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            def task_digest(params):
                bad = [k for k, v in params.items()]
                good = [k for k, v in sorted(params.items())]
                return bad + good
        """)
        report = _lint_dir(tmp_path, rule_ids=["REP006"])
        assert len(report.findings) == 1
        assert "sorted" in report.findings[0].message

    def test_unreachable_nondeterminism_is_fine(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import json
            import time

            def task_digest(task):
                return json.dumps(task, sort_keys=True)

            def jitter():
                return time.time()
        """)
        assert _lint_dir(tmp_path, rule_ids=["REP006"]).ok


# ----------------------------------------------------------------------
# Waiver parsing and REP000 hygiene
# ----------------------------------------------------------------------

class TestWaivers:
    def test_parse_ids_and_reason(self):
        waivers = parse_waivers(
            ["x = 1  # lint: waive[REP002,REP005] crosses no boundary"]
        )
        waiver = waivers[1]
        assert waiver.ids == frozenset({"REP002", "REP005"})
        assert waiver.reason == "crosses no boundary"
        assert not waiver.malformed
        assert waiver.covers("REP005") and not waiver.covers("REP001")

    def test_malformed_ids_recorded(self):
        waivers = parse_waivers(["x  # lint: waive[REP1,nope] why"])
        assert waivers[1].malformed == ["REP1", "nope"]
        assert waivers[1].ids == frozenset()

    def test_missing_reason_is_rep000(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            import time

            async def handler():
                time.sleep(1)  # lint: waive[REP001]
        """)
        report = _lint_dir(tmp_path)
        assert _rules_hit(report) == {"REP000"}
        assert "no reason" in report.findings[0].message
        # the violation itself is still waived — but the naked waiver
        # is a finding, so the file cannot pass as-is
        assert [w.rule for w in report.waived] == ["REP001"]

    def test_rep000_cannot_be_waived(self, tmp_path):
        _write(tmp_path, "mod.py", """\
            x = 1  # lint: waive[REP000,REP001]
        """)
        report = _lint_dir(tmp_path)
        assert not report.ok
        assert all(f.rule == "REP000" for f in report.findings)

    def test_unparsable_module_is_rep000(self, tmp_path):
        _write(tmp_path, "mod.py", "def broken(:\n")
        report = _lint_dir(tmp_path)
        assert not report.ok
        assert report.findings[0].rule == "REP000"
        assert "cannot parse" in report.findings[0].message


# ----------------------------------------------------------------------
# CLI surface: exit codes, --json schema, rule selection
# ----------------------------------------------------------------------

class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        _write(clean, "ok.py", "x = 1\n")
        assert lint_main([str(clean), "--root", str(clean)]) == 0

        dirty = tmp_path / "dirty"
        _write(dirty, "bad.py", """\
            import time

            async def handler():
                time.sleep(1)
        """)
        assert lint_main([str(dirty), "--root", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:4: REP001" in out

        assert lint_main(["--rules", "REP999", str(clean)]) == 2
        assert lint_main([str(tmp_path / "missing")]) == 2

    def test_json_schema(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", """\
            import time

            async def handler():
                time.sleep(0)
                time.sleep(1)  # lint: waive[REP001] measured; sub-ms on this path
        """)
        code = lint_main([str(tmp_path), "--json", "--root", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["rules_run"] == sorted(RULES)
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "rule", "message"}
        assert finding["rule"] == "REP001"
        assert finding["line"] == 4
        assert payload["waived"][0]["line"] == 5

    def test_repro_lint_is_the_lint_parser(self, tmp_path, capsys):
        """``repro lint`` hands its arguments to the lint package's own
        parser: one help text, and the same flags and exit codes."""
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["lint", "-h"])
        via_repro = capsys.readouterr().out
        with pytest.raises(SystemExit):
            lint_main(["-h"])
        assert capsys.readouterr().out == via_repro
        assert "--list-rules" in via_repro

        _write(tmp_path, "bad.py", """\
            import time

            async def handler():
                time.sleep(1)
        """)
        code = repro_main(["lint", "--json", "--root", str(tmp_path),
                           str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["findings"][0]["line"] == 4
        assert repro_main(["lint", "--rules", "REP999", str(tmp_path)]) == 2

    def test_list_rules_documents_every_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005",
                        "REP006"):
            assert rule_id in out

    def test_rule_selection_runs_only_selected(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", """\
            import time

            async def handler():
                try:
                    time.sleep(1)
                except Exception:
                    pass
        """)
        assert lint_main(
            [str(tmp_path), "--rules", "REP002", "--root", str(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "REP002" in out and "REP001" not in out


#: One seeded violation per rule; any of these must fail the CI gate.
_SEEDED = {
    "REP001": "import time\n\nasync def h():\n    time.sleep(1)\n",
    "REP002": ("async def h():\n    try:\n        await s()\n"
               "    except Exception:\n        pass\n"),
    "REP003": ("import threading\n\n\nclass C:\n"
               "    def __init__(self):\n"
               "        self._lock = threading.Lock()\n\n"
               "    def bad(self):\n        self._lock.acquire()\n"),
    "REP004": ("from repro.obs import REGISTRY as OBS\n\n"
               "A = OBS.counter('wrong_prefix_total', 'x')\n"),
    "REP005": ("from concurrent.futures import ProcessPoolExecutor\n\n"
               "def go():\n    pool = ProcessPoolExecutor()\n"
               "    pool.submit(lambda: 1)\n"),
    "REP006": ("import time\n\n\ndef task_digest(t):\n"
               "    return time.time()\n"),
}


@pytest.mark.parametrize("rule_id", sorted(_SEEDED))
def test_seeded_violation_fails_the_gate(rule_id, tmp_path, capsys):
    """Acceptance: one violation per rule must turn the CLI red."""
    _write(tmp_path, "seeded.py", _SEEDED[rule_id])
    assert lint_main([str(tmp_path), "--root", str(tmp_path)]) == 1
    assert rule_id in capsys.readouterr().out


# ----------------------------------------------------------------------
# The real tree: self-lint and metrics-catalog parity
# ----------------------------------------------------------------------

class TestTextReport:
    """``render_text``: one line per finding, then one summary line."""

    def test_findings_then_their_count(self):
        report = LintReport(
            findings=[Finding("a.py", 4, "REP001", "blocking call")],
            waived=[Finding("a.py", 9, "REP002", "broad except")],
            files_scanned=3,
            rules_run=["REP001", "REP002"],
        )
        assert render_text(report).splitlines() == [
            "a.py:4: REP001 blocking call",
            "1 finding(s) across 3 file(s); 1 waived",
        ]

    def test_clean_report_names_the_rules_run(self):
        report = LintReport(files_scanned=2, rules_run=["REP001", "REP006"])
        assert render_text(report) == (
            "lint clean: 2 file(s), rules REP001, REP006"
        )

    def test_clean_report_counts_its_waivers(self):
        report = LintReport(
            waived=[Finding("a.py", 1, "REP002", "broad except")],
            files_scanned=1,
            rules_run=["REP002"],
        )
        assert render_text(report) == (
            "lint clean: 1 file(s), rules REP002; 1 finding(s) waived"
        )


class TestCallGraph:
    """The name-level call graph behind REP002, REP005 and REP006."""

    SOURCE = textwrap.dedent(
        """
        import json
        import threading

        def a():
            b()
            json.dumps(1)

        def b():
            helper.c()

        def c():
            return a

        def d():
            a()

        class Pool:
            def start(self, pool):
                threading.Thread(target=self.run).start()
                pool.submit(d, 1)

            def run(self):
                c()
        """
    )

    def test_called_names_are_bare_call_targets(self):
        tree = ast.parse(self.SOURCE)
        table = function_table([tree])
        assert called_names(table["a"][0]) == {"b", "dumps"}
        assert called_names(table["c"][0]) == set()  # a bare name, no call

    def test_reachable_names_propagate_only_through_defined_functions(self):
        table = function_table([ast.parse(self.SOURCE)])
        assert reachable_names(table, ["a", "missing"]) == {"a", "b", "c"}
        assert reachable_names(table, ["c"]) == {"c"}

    def test_worker_paths_start_at_thread_targets_and_pool_submits(self):
        tree = ast.parse(self.SOURCE)
        assert worker_entry_names([tree]) == {"run", "d"}
        assert worker_path_names([tree]) == {"run", "c", "d", "a", "b"}


class TestCollectFiles:
    def test_sorted_deduplicated_python_files_only(self, tmp_path):
        for name in ("b.py", "a.py", "notes.txt", "sub/c.py",
                     "__pycache__/x.py"):
            _write(tmp_path, name, "")
        files = list(collect_files(
            [tmp_path, tmp_path / "a.py", tmp_path / "notes.txt"]
        ))
        assert files == [tmp_path / n for n in ("a.py", "b.py", "sub/c.py")]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            list(collect_files([tmp_path / "absent"]))


class TestRealTree:
    def test_framework_keeps_the_tree_clean(self):
        """`repro lint src benchmarks` — the CI gate — is green, and
        every waiver in the tree carries a reason (REP000 would fire
        otherwise)."""
        report = lint_paths([ROOT / "src", ROOT / "benchmarks"], root=ROOT)
        assert report.ok, "\n".join(f.format() for f in report.findings)
        assert report.files_scanned > 100

    def test_metrics_catalog_parity_both_directions(self):
        """Every OBS registration is cataloged in the README and every
        catalog row is registered (the catalog is the wire contract)."""
        report = lint_paths(
            [ROOT / "src"], rule_ids=["REP004"], root=ROOT
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)

    def test_self_lint_covers_the_lint_package(self):
        report = lint_paths(
            [ROOT / "src" / "repro" / "lint"], root=ROOT
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)
        assert report.files_scanned >= 12

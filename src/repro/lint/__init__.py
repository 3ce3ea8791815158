"""Project-specific static analysis (``repro lint``).

A stdlib-only, pluggable AST framework that walks every module under
``src/`` and ``benchmarks/`` and runs a registry of checks,
each motivated by a concurrency, caching or wire-contract bug this
codebase actually shipped and fixed:

=======  ==========================================================
REP001   blocking calls inside coroutines (event-loop stalls)
REP002   broad ``except`` swallowing CancelledError/KeyboardInterrupt
REP003   lock discipline (``with``-only, no lock-free reads of
         lock-guarded fields)
REP004   metrics hygiene (``repro_*`` snake_case, unique, README
         catalog parity in both directions)
REP005   fork/pickle safety of work sent to process pools
REP006   determinism in content-digest paths
=======  ==========================================================

``REP000`` is the framework's meta rule (parse failures, waiver
hygiene).  Findings print as ``path:line: REP### message``; a finding
that is deliberate is waived *on its line* with an auditable reason::

    handler()   # lint: waive[REP002] teardown path must never raise

The framework lints itself; the CI gate runs ``repro lint src
benchmarks`` and fails on any unwaived finding.
"""

from .base import Finding, ModuleContext, Rule, RULES, TreeContext, register
from .cli import main
from .runner import LintReport, lint_paths

__all__ = [
    "Finding",
    "LintReport",
    "ModuleContext",
    "RULES",
    "Rule",
    "TreeContext",
    "lint_paths",
    "main",
    "register",
]

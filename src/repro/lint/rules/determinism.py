"""REP006 — determinism in content-digest paths.

``Task.digest`` (built by ``task_digest``/``canonical_task``) and
``instance_digest`` are the engine's *addresses*: the result cache,
server-side dedupe and fabric re-dispatch all assume that
equal inputs produce equal digests across
processes and hosts.  The PR 8 digest-drift bug (params ordering
leaking into the wire digest) is the motivating incident: one
nondeterministic byte and every cache tier silently stops hitting.

This rule walks a name-level call graph from the digest entry points
(``task_digest``, ``instance_digest``) and flags, inside every
transitively reachable function:

* wall-clock and randomness sources — ``time.time()`` & friends,
  ``random.*``, ``uuid.*``, ``os.urandom``, ``datetime.now/utcnow``,
  and direct calls of names imported *from* ``time``/``random``/
  ``uuid``;
* dict-order-dependent iteration — looping over ``.items()`` /
  ``.keys()`` / ``.values()`` in ``for`` statements or comprehensions
  without a ``sorted(...)`` wrapper (insertion order is deterministic
  per process but not part of any cross-process contract; canonical
  forms must sort).

The call graph is name-based and over-approximate (see
:mod:`repro.lint.callgraph`); a function that shares a name with a
digest helper but is provably unrelated can be waived with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..base import Finding, Rule, TreeContext, register
from ..callgraph import function_table, reachable_names

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Digest computation roots; reachability fans out from these names.
ENTRY_POINTS = ("task_digest", "instance_digest")

_TIME_ATTRS = {"time", "time_ns", "monotonic", "monotonic_ns",
               "perf_counter", "perf_counter_ns"}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
_NONDET_MODULES = {"random", "uuid"}
_IMPORT_TAINT_MODULES = {"time", "random", "uuid"}


def _tainted_imports(tree: ast.AST) -> Set[str]:
    """Names imported from time/random/uuid (``from time import time``)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in _IMPORT_TAINT_MODULES:
                for alias in node.names:
                    names.add(alias.asname or alias.name)
    return names


def _nondet_call(node: ast.Call, tainted: Set[str]) -> str | None:
    """A human-readable label if ``node`` is a nondeterminism source."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner, attr = func.value.id, func.attr
        if owner == "time" and attr in _TIME_ATTRS:
            return f"time.{attr}()"
        if owner in _NONDET_MODULES:
            return f"{owner}.{attr}()"
        if owner == "os" and attr == "urandom":
            return "os.urandom()"
        if owner in ("datetime", "dt") and attr in _DATETIME_ATTRS:
            return f"{owner}.{attr}()"
    elif isinstance(func, ast.Name) and func.id in tainted:
        return f"{func.id}() (imported from a clock/random module)"
    return None


def _unsorted_dict_iters(func: ast.AST) -> List[ast.Call]:
    """``.items()/.keys()/.values()`` calls used directly as loop or
    comprehension iterables (a ``sorted(...)`` wrapper moves the call
    out of the iterable position, so wrapped uses pass)."""
    iters: List[ast.AST] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
    flagged = []
    for it in iters:
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("items", "keys", "values")
            and not it.args
        ):
            flagged.append(it)
    return flagged


@register
class DigestDeterminismRule(Rule):
    __doc__ = __doc__

    id = "REP006"
    title = "nondeterminism (clock/random/dict order) in a digest path"

    def check_tree(self, tree: TreeContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        table = function_table(m.tree for m in tree.modules)
        reachable = reachable_names(table, ENTRY_POINTS)
        if not reachable:
            return iter(findings)
        for module in tree.modules:
            tainted = _tainted_imports(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, _FuncDef):
                    continue
                if node.name not in reachable:
                    continue
                for call in ast.walk(node):
                    if isinstance(call, ast.Call):
                        label = _nondet_call(call, tainted)
                        if label:
                            findings.append(module.finding(
                                "REP006", call,
                                f"{label} inside {node.name}(), which is "
                                "reachable from digest computation — "
                                "digests must be pure functions of their "
                                "inputs",
                            ))
                for it in _unsorted_dict_iters(node):
                    findings.append(module.finding(
                        "REP006", it,
                        f"unsorted dict iteration (.{it.func.attr}()) "
                        f"inside {node.name}(), which is reachable from "
                        "digest computation — wrap in sorted(...) for a "
                        "canonical order",
                    ))
        return iter(findings)

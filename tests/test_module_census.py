"""Census: every ``src/repro`` module, public symbol, import and option is live.

Code is live when something a user runs reaches it: a command, an
example or a perfbench workload.  A benchmark or a test only measures
what it imports, so code that only benchmarks and tests reach is dead
weight; the exact oracles and proof checkers they compare against live
in ``tests/oracles.py`` instead.  Four checks parse every ``.py`` file
under ``src/``, ``examples/`` and ``perfbench/`` (:data:`CONSUMER_DIRS`):

* **Modules.**  Each module needs an importer.  A module does not count
  as its own importer, and neither does a package ``__init__``; the
  re-exports of ``__init__`` files are followed instead, so
  ``from repro.busytime import first_fit`` credits
  ``repro.busytime.firstfit``.  Exempt: ``__main__`` modules (run, not
  imported) and ``repro.lint.rules.*``, which
  ``repro/lint/rules/__init__.py`` imports for their ``@register`` side
  effect.
* **Symbols.**  Each public function, class and method defined in
  ``src/repro`` needs a mention of its name.  A mention is a name, an
  attribute, a keyword argument, or a string constant whose whole value
  is the name (``perfbench/layers.py`` wraps methods and module
  attributes by string).  Imports, ``__all__`` lists and mentions inside
  the symbol's own definition do not count.  Exempt: dunders,
  ``visit_*`` methods (``ast.NodeVisitor`` dispatch), the rules of
  ``repro.lint.rules.*`` and the names in :data:`ALLOWED`, each kept on
  purpose for the reason given.  Names are matched, not resolved, so a
  dead method that shares its name with a live one (``verify``) passes:
  the check fails only on sure findings.
* **Imports.**  Each module-level import of a non-``__init__`` module
  must be used in that module, as a name or as a whole-name string.
  Exempt: imports marked ``# noqa: F401`` (imported for a side effect).
* **Options.**  Each parameter with a default, positional or
  keyword-only, of a public function or method (or of a public class's
  ``__init__``) needs a live call that sets it: a call outside the
  function's own body whose callee is named like the function (like the
  class, for ``__init__``) and that passes the parameter by keyword,
  positionally at or past its position, or through ``*``/``**``.  A
  literal equal to the default does not set it.  An option only tests
  set is a knob nobody turns: fold it into a constant (tests monkeypatch
  the constant) or delete the code only it reached.  Exempt: the entries
  of :data:`ALLOWED_OPTIONS`, keyed ``module:Qual.name(param)``, each
  with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONSUMER_DIRS = ("src", "examples", "perfbench")

#: Public symbols kept although nothing a user runs mentions them,
#: keyed ``module:qualified.name``, each with the reason it stays.
ALLOWED = {
    "repro.activetime.rounding:RoundedSolution.guarantee_holds": (
        "Theorem 2's bound (cost <= 2 LP); the result certificates on the "
        "roadmap check it on every rounding"
    ),
    "repro.activetime.rightshift:RightShiftedSolution.is_feasible_fractional": (
        "Lemma 3's check (LP2 is feasible); the rounding certificate uses it"
    ),
    "repro.activetime.rightshift:RightShiftedSolution.fractional_slot_of_block": (
        "the slot carrying a block's remainder; the rounding certificate "
        "uses it to name the slot Lemma 5 misses"
    ),
    "repro.flow.dinic:Dinic.min_cut_reachable": (
        "the source side of a minimum cut: the proof an infeasible-verdict "
        "certificate hands out"
    ),
    "repro.flow.dinic:Dinic.max_flow": (
        "the cold max-flow reference the warm feasibility oracle is pinned "
        "against"
    ),
    "repro.flow.dinic:Dinic.add_edge": (
        "the per-edge reference Dinic.add_edges is pinned against"
    ),
    "repro.obs.trace:trace_labels": "public API that README documents",
    "repro.obs.metrics:MetricsRegistry.enable": (
        "public API that README documents (with disable)"
    ),
    "repro.obs.metrics:MetricsRegistry.disable": (
        "public API that README documents"
    ),
}

#: Options kept although nothing a user runs sets them, keyed
#: ``module:Qual.name(param)``, each with the reason it stays.
ALLOWED_OPTIONS = {
    "repro.fabric.dispatcher:RemoteDispatcher.__init__(client_factory)": (
        "tests substitute fake hosts through it"
    ),
    "repro.serve.client:ServeClient.__init__(get_retries)": (
        "the dispatcher passes 1 through client_factory; every other "
        "caller keeps 3"
    ),
    "repro.fabric.dispatcher:RemoteDispatcher.__init__(http_timeout)": (
        "perfbench/workloads.py passes it 300.0, the default; the "
        "benchmark's files change only in a change of their own"
    ),
    "repro.activetime.rightshift:RightShiftedSolution.is_feasible_fractional(backend)": (
        "belongs to an allow-listed certificate symbol (Lemma 3's check)"
    ),
    "repro.flow.feasibility:ActiveTimeFeasibility.max_flow_value(jobs)": (
        "the warm-oracle pins compare prefix flow values with a fresh "
        "oracle; the live prefix probe, is_feasible(jobs=), answers a bool"
    ),
    "repro.flow.feasibility:ActiveTimeFeasibility.assignment(jobs)": (
        "the warm-oracle pins compare prefix assignments with a fresh "
        "oracle; the live prefix probe, is_feasible(jobs=), answers a bool"
    ),
}


def _dotted(path: Path, src: Path = SRC) -> str | None:
    """Dotted module name of a file under ``src``; ``None`` elsewhere."""
    if src not in path.parents:
        return None
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imports(path: Path):
    """Yield ``(module, names)`` per import in ``path``, made absolute."""
    name = _dotted(path)
    # the package a relative import starts from (one level up per dot)
    anchor = (name or "").split(".")
    if path.name != "__init__.py":
        anchor.pop()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if name is None:
                    continue  # relative import outside src/: not repro
                parts = anchor[: len(anchor) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            yield base, tuple(alias.name for alias in node.names)


PACKAGES = {_dotted(p): p for p in SRC.rglob("__init__.py")}
MODULES = {
    _dotted(p) for p in SRC.rglob("*.py") if p.name != "__init__.py"
}
#: package -> {name its ``__init__`` imports: the module it comes from}
REEXPORTS = {
    package: {
        name: module for module, names in _imports(path) for name in names
    }
    for package, path in PACKAGES.items()
}


def _credited(module: str, names: tuple[str, ...]) -> set[str]:
    """The non-package modules that ``from module import names`` reaches."""
    if module in MODULES:
        return {module}
    found = set()
    for name in names:
        source = REEXPORTS.get(module, {}).get(name)
        if f"{module}.{name}" in MODULES:
            found.add(f"{module}.{name}")
        elif source not in (None, module):  # ``from . import subpackage``
            found |= _credited(source, (name,))
    return found


def _exempt(module: str) -> bool:
    return module.endswith(".__main__") or module.startswith("repro.lint.rules.")


def test_every_src_module_has_a_live_importer():
    imported = set()
    for folder in CONSUMER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for module, names in _imports(path):
                imported |= _credited(module, names) - {_dotted(path)}
    orphans = sorted(m for m in MODULES - imported if not _exempt(m))
    assert not orphans, (
        "modules no command, example or perfbench workload imports "
        "(only benchmarks and tests reach them; delete or wire them in): "
        f"{orphans}"
    )


def test_census_follows_reexports():
    # ``repro`` re-exports ``Instance`` from ``repro.core``, which takes
    # it from ``repro.core.jobs``.
    assert _credited("repro", ("Instance",)) == {"repro.core.jobs"}
    assert _credited("repro.serve", ("server",)) == {"repro.serve.server"}
    assert _credited("repro.engine.registry", ("REGISTRY",)) == {
        "repro.engine.registry"
    }


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(body):
    """Statements of a module or class body, looking into ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", [])):
                yield from _statements(block)
            for handler in getattr(node, "handlers", []):
                yield from _statements(handler.body)
        else:
            yield node


def _public_definitions(scope: ast.Module | ast.ClassDef, prefix: str = ""):
    """Yield ``(qualified name, node)`` per function, class and method
    that the census counts, recursing into class bodies."""
    for node in _statements(scope.body):
        if not isinstance(node, _DEFS):
            continue
        name = node.name
        visitor = not isinstance(node, ast.ClassDef) and name.startswith("visit_")
        if not (name.startswith("_") or visitor):  # "_" covers dunders
            yield prefix + name, node
        if isinstance(node, ast.ClassDef):
            yield from _public_definitions(node, prefix + name + ".")


def _mentions(tree: ast.Module):
    """Yield ``(name, enclosing definitions)`` per mention in ``tree``."""
    stack: list[ast.AST] = []

    def visit(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                return
        if isinstance(node, ast.Name):
            yield node.id, tuple(stack)
        elif isinstance(node, ast.Attribute):
            yield node.attr, tuple(stack)
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, tuple(stack)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, tuple(stack)
        opened = isinstance(node, _DEFS)
        if opened:
            stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if opened:
            stack.pop()

    yield from visit(tree)


def dead_symbols(src: Path, consumers) -> dict[str, str]:
    """``module:qualified.name -> file:line`` for each public definition
    under ``src`` whose name no file under ``consumers`` mentions outside
    the definition itself."""
    trees = {
        path: _parse(path)
        for folder in consumers
        for path in sorted(Path(folder).rglob("*.py"))
    }
    where: dict[str, list[tuple[ast.AST, ...]]] = {}
    for tree in trees.values():
        for name, enclosing in _mentions(tree):
            where.setdefault(name, []).append(enclosing)
    dead = {}
    for path, tree in trees.items():
        module = _dotted(path, src)
        if module is None or module.startswith("repro.lint.rules."):
            continue
        for qualname, node in _public_definitions(tree):
            if not any(node not in enclosing
                       for enclosing in where.get(node.name, ())):
                dead[f"{module}:{qualname}"] = (
                    f"{path.relative_to(src.parent)}:{node.lineno}"
                )
    return dead


def stale_allowances(allowed, dead) -> list[str]:
    """Allow-list entries no longer needed: the symbol is gone, or a live
    file mentions it now."""
    return sorted(set(allowed) - set(dead))


def _consumers(root: Path = ROOT):
    return [root / folder for folder in CONSUMER_DIRS]


def test_every_public_symbol_has_a_live_mention():
    dead = dead_symbols(SRC, _consumers())
    unexplained = {k: v for k, v in sorted(dead.items()) if k not in ALLOWED}
    assert not unexplained, (
        "public symbols that no command, example or perfbench workload "
        "mentions (delete them, move an exact oracle to tests/oracles.py, "
        f"or allow-list them with a reason): {unexplained}"
    )


def test_allow_list_is_current_and_explained():
    stale = stale_allowances(ALLOWED, dead_symbols(SRC, _consumers()))
    assert not stale, f"allow-list entries no longer needed: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


# ----------------------------------------------------------------------
# Imports
# ----------------------------------------------------------------------
def unused_imports(path: Path) -> list[str]:
    """``name:line`` per module-level import of ``path`` that the module
    never uses."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    unused = []
    for node in _statements(tree.body):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{bound}:{node.lineno}")
    return unused


def test_no_unused_module_level_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for names in [unused_imports(path)]
        if names
    }
    assert not found, f"unused module-level imports: {found}"


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
def _public_callables(scope, prefix: str = "", cls: str | None = None):
    """Yield ``(qualified name, callee name, node, is a method)`` per
    public function and method, and per ``__init__`` of a public class;
    private classes are skipped whole."""
    for node in _statements(scope.body):
        if isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield from _public_callables(
                    node, prefix + node.name + ".", node.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if cls is not None and node.name == "__init__":
                callee = cls
            elif node.name.startswith("_"):
                continue
            else:
                callee = node.name
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            yield prefix + node.name, callee, node, cls is not None and not static


def _defaulted(node: ast.FunctionDef, method: bool):
    """Yield ``(name, call position, default)`` per parameter of ``node``
    with a default.  The position counts the call's own arguments (a
    method's ``self`` is not one); keyword-only parameters have none."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, default in enumerate(args.defaults, start=first):
        yield positional[index].arg, index - method, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _same_literal(value: ast.expr, default: ast.expr) -> bool:
    """Whether ``value`` is a literal equal to ``default`` (same type)."""
    try:
        a, b = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:  # not a literal
        return False
    return type(a) is type(b) and a == b


def _sets(call: ast.Call, name: str, position: int | None, default) -> bool:
    """Whether ``call`` passes parameter ``name`` a non-default value."""
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs
            return True
        if keyword.arg == name:
            return not _same_literal(keyword.value, default)
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):  # *args reaches the rest
            return position is not None
        if index == position:
            return not _same_literal(arg, default)
    return False


def _calls(tree: ast.Module):
    """Yield ``(callee name, call, enclosing definitions)`` per call."""
    stack: list[ast.AST] = []

    def visit(node):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if name:
                yield name, node, tuple(stack)
        opened = isinstance(node, _DEFS)
        if opened:
            stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if opened:
            stack.pop()

    yield from visit(tree)


def unset_options(src: Path, consumers) -> tuple[dict[str, str], int]:
    """``module:Qual.name(param) -> file:line`` per defaulted parameter
    of a public callable under ``src`` that no call under ``consumers``
    sets, and the number of defaulted parameters examined."""
    trees = {
        path: _parse(path)
        for folder in consumers
        for path in sorted(Path(folder).rglob("*.py"))
    }
    calls: dict[str, list[tuple[ast.Call, tuple[ast.AST, ...]]]] = {}
    for tree in trees.values():
        for name, call, enclosing in _calls(tree):
            calls.setdefault(name, []).append((call, enclosing))
    unset, examined = {}, 0
    for path, tree in trees.items():
        module = _dotted(path, src)
        if module is None:
            continue
        for qualname, callee, node, method in _public_callables(tree):
            for name, position, default in _defaulted(node, method):
                examined += 1
                if not any(
                    node not in enclosing and _sets(call, name, position, default)
                    for call, enclosing in calls.get(callee, ())
                ):
                    unset[f"{module}:{qualname}({name})"] = (
                        f"{path.relative_to(src.parent)}:{node.lineno}"
                    )
    return unset, examined


def test_every_option_is_set_by_a_live_call():
    unset, _ = unset_options(SRC, _consumers())
    unexplained = {
        k: v for k, v in sorted(unset.items()) if k not in ALLOWED_OPTIONS
    }
    assert not unexplained, (
        "options that no command, example or perfbench workload sets "
        "(fold each into a constant tests can monkeypatch, delete the "
        f"code only it reaches, or allow-list it with a reason): "
        f"{unexplained}"
    )


def test_option_allow_list_is_current_and_explained():
    unset, _ = unset_options(SRC, _consumers())
    stale = stale_allowances(ALLOWED_OPTIONS, unset)
    assert not stale, f"option allow-list entries no longer needed: {stale}"
    assert all(reason.strip() for reason in ALLOWED_OPTIONS.values())


# ----------------------------------------------------------------------
# The census on a synthetic tree
# ----------------------------------------------------------------------
def _tree(tmp_path: Path, files: dict[str, str]):
    """Write ``files`` (paths relative to ``tmp_path``); answer the
    ``src`` root and the consumer folders."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path / "src", _consumers(tmp_path)


LIB = (
    "def live():\n    return dead_by_itself()\n\n"
    "def dead_by_itself():\n    return dead_by_itself()\n\n"
    "class Box:\n"
    "    def used(self):\n        return 1\n\n"
    "    def unused(self):\n        return self.unused()\n\n"
    "    def __len__(self):\n        return 0\n\n"
    "    def visit_Name(self, node):\n        return node\n\n"
    "def _private():\n    return 0\n"
)


def test_census_flags_a_seeded_dead_function(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": LIB + "\ndef seeded():\n    return 1\n",
        "examples/use.py": "from pkg.lib import Box, live\nlive()\nBox().used()\n",
    })
    dead = dead_symbols(src, consumers)
    # a mention inside the symbol's own body (recursion) does not count
    assert set(dead) == {"pkg.lib:seeded", "pkg.lib:Box.unused"}
    assert dead["pkg.lib:seeded"] == "src/pkg/lib.py:23"


def test_census_credits_a_whole_name_string(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": LIB,
        "perfbench/wrap.py": (
            "from pkg import lib\n"
            "patch(lib, 'live')\npatch(lib.Box, 'unused')\n"
            "note = 'used by Box'\n"
        ),
    })
    assert set(dead_symbols(src, consumers)) == {"pkg.lib:Box.used"}


def test_census_ignores_imports_and_all(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": LIB,
        "src/pkg/__init__.py": (
            "from .lib import Box, live\n__all__ = ['Box', 'live', 'used']\n"
        ),
        "examples/use.py": "import pkg.lib\nfrom pkg.lib import live as run\n",
    })
    assert set(dead_symbols(src, consumers)) == {
        "pkg.lib:live", "pkg.lib:Box", "pkg.lib:Box.used", "pkg.lib:Box.unused",
    }


def test_stale_allow_list_entries_fail(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": LIB,
        "examples/use.py": "from pkg.lib import live\nlive()\n",
    })
    dead = dead_symbols(src, consumers)
    allowed = {"pkg.lib:Box": "kept", "pkg.lib:Box.used": "kept"}
    assert stale_allowances(allowed, dead) == []
    # gone from the tree, or mentioned by a live file now
    allowed["pkg.lib:removed"] = allowed["pkg.lib:live"] = "kept"
    assert stale_allowances(allowed, dead) == ["pkg.lib:live", "pkg.lib:removed"]


def test_unused_import_check(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import Callable, Sequence\n"
        "from . import rules  # noqa: F401  (registers the rules)\n"
        "def f(x: Sequence) -> 'Callable':\n"
        "    return json.dumps(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == ["os:2"]


OPTIONS = (
    "def solve(x, order='left', *, limit=None):\n"
    "    return solve(x, order='right', limit=1)\n\n"
    "class Pool:\n"
    "    def __init__(self, jobs=1, *, grace=1.0):\n"
    "        self.jobs = jobs\n\n"
    "    def warm(self, count=None):\n        return count\n\n"
    "    @staticmethod\n"
    "    def build(size=2):\n        return size\n\n"
    "class _Private:\n"
    "    def __init__(self, knob=3):\n        self.knob = knob\n"
)


def test_options_flags_a_test_only_option(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": OPTIONS,
        "examples/use.py": (
            "from pkg.lib import Pool, solve\n"
            "solve(1, 'right')\nPool(2).warm(count=5)\nPool.build(3)\n"
        ),
        "tests/test_lib.py": "from pkg.lib import Pool\nPool(grace=0.1)\n",
    })
    unset, examined = unset_options(src, consumers)
    # a test setting ``grace`` does not count; private classes are skipped
    assert set(unset) == {"pkg.lib:solve(limit)", "pkg.lib:Pool.__init__(grace)"}
    assert unset["pkg.lib:solve(limit)"] == "src/pkg/lib.py:1"
    assert examined == 6


def test_options_ignore_own_body_and_default_literals(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": OPTIONS,
        "examples/use.py": (
            "from pkg.lib import Pool, solve\n"
            "solve(1, order='left', limit=None)\n"
            "Pool(1, grace=1.0).warm(None)\nPool.build(size=2)\n"
        ),
    })
    # solve's recursive call sets both, but inside its own body
    assert set(unset_options(src, consumers)[0]) == {
        "pkg.lib:solve(order)", "pkg.lib:solve(limit)",
        "pkg.lib:Pool.__init__(jobs)", "pkg.lib:Pool.__init__(grace)",
        "pkg.lib:Pool.warm(count)", "pkg.lib:Pool.build(size)",
    }


def test_options_credit_star_args_and_kwargs(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": OPTIONS,
        "perfbench/use.py": (
            "from pkg.lib import Pool, solve\n"
            "solve(*argv)\nPool(**settings).warm(*rest)\n"
            "Pool.build(*more)\n"
        ),
    })
    # ``*`` reaches positional parameters only; ``**`` reaches every one
    assert set(unset_options(src, consumers)[0]) == {"pkg.lib:solve(limit)"}


def test_stale_option_allow_list_entries_fail(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": OPTIONS,
        "examples/use.py": "from pkg.lib import solve\nsolve(1, limit=2)\n",
    })
    unset, _ = unset_options(src, consumers)
    allowed = {"pkg.lib:solve(order)": "kept"}
    assert stale_allowances(allowed, unset) == []
    # set by a live call now, or gone from the tree
    allowed["pkg.lib:solve(limit)"] = allowed["pkg.lib:gone(x)"] = "kept"
    assert stale_allowances(allowed, unset) == [
        "pkg.lib:gone(x)", "pkg.lib:solve(limit)",
    ]


def test_options_count_method_positions_past_self(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": OPTIONS,
        "examples/use.py": (
            "from pkg.lib import Pool, solve\n"
            "Pool(2, grace=0.5).warm(7)\nsolve(1)\nPool.build(4)\n"
        ),
    })
    # ``warm(7)`` sets ``count``, since ``self`` is not a call argument;
    # ``solve(1)`` stops short of ``order``
    assert set(unset_options(src, consumers)[0]) == {
        "pkg.lib:solve(order)", "pkg.lib:solve(limit)",
    }


def test_options_follow_attribute_calls_and_async_defs(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/lib.py": OPTIONS,
        "src/pkg/net.py": (
            "async def fetch(url, retries=3):\n    return url\n\n"
            "async def poll(delay=1.0):\n    return delay\n\n"
            "def helper():\n    return fetch('x', retries=5)\n"
        ),
        "examples/use.py": (
            "import pkg.lib as lib\nlib.solve(1, 'right', limit=2)\n"
        ),
    })
    unset, examined = unset_options(src, consumers)
    assert set(unset) == {
        "pkg.lib:Pool.__init__(jobs)", "pkg.lib:Pool.__init__(grace)",
        "pkg.lib:Pool.warm(count)", "pkg.lib:Pool.build(size)",
        "pkg.net:poll(delay)",
    }
    assert examined == 8


def test_options_ignore_calls_nested_in_the_own_body(tmp_path):
    src, consumers = _tree(tmp_path, {
        "src/pkg/tree.py": (
            "def walk(node, depth=0):\n"
            "    def visit(child):\n"
            "        return walk(child, depth + 1)\n"
            "    return [visit(c) for c in node]\n"
        ),
        "examples/use.py": "from pkg.tree import walk\nwalk([])\n",
    })
    assert unset_options(src, consumers)[0] == {
        "pkg.tree:walk(depth)": "src/pkg/tree.py:1",
    }


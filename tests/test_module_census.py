"""Module census: every ``src/repro`` module has a live importer.

A module is live when something a user runs reaches it: a command, an
example or a perfbench workload.  A benchmark or a test only measures
the module it imports, so a module that only benchmarks and tests reach
is dead weight.  This test parses the imports of every ``.py`` file
under ``src/``, ``examples/`` and ``perfbench/`` and names each module
that none of them imports.  A module does not count as its own
importer, and neither does a package ``__init__``; the re-exports of
``__init__`` files are followed instead, so
``from repro.busytime import first_fit`` credits
``repro.busytime.firstfit``.

Exempt: ``__main__`` modules (run, not imported),
``repro.lint.rules.*``, which ``repro/lint/rules/__init__.py`` imports
for their ``@register`` side effect, and the names in
:data:`TEST_ORACLES`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONSUMER_DIRS = ("src", "examples", "perfbench")

#: Modules kept only as the reference the tests compare against.
TEST_ORACLES = {
    # The exponential OPT_∞ search the tests check the MILP behind
    # ``opt_infinity`` against; it moves into the tests once an exact
    # dynamic program replaces that MILP.
    "repro.busytime.span_search",
}


def _dotted(path: Path) -> str | None:
    """Dotted module name of a file under ``src/``; ``None`` elsewhere."""
    if SRC not in path.parents:
        return None
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """Yield ``(module, names)`` per import in ``path``, made absolute."""
    name = _dotted(path)
    # the package a relative import starts from (one level up per dot)
    anchor = (name or "").split(".")
    if path.name != "__init__.py":
        anchor.pop()
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
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
    return (
        module.endswith(".__main__")
        or module.startswith("repro.lint.rules.")
        or module in TEST_ORACLES
    )


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

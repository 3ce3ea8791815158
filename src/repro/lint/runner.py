"""Walk paths, run the registered rules, apply waivers, collect findings."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence

from . import rules as _rules  # noqa: F401  (registers the rule set)
from .base import META_RULE_ID, Finding, ModuleContext, Rule, RULES, TreeContext

__all__ = ["LintReport", "collect_files", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "version": 1,
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "findings": [f.to_json() for f in self.findings],
            "waived": [f.to_json() for f in self.waived],
        }


def collect_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Python files under ``paths`` (files kept as-is), sorted, deduped."""
    seen = set()
    out: List[Path] = []
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return iter(out)


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _meta_findings(module: ModuleContext) -> Iterator[Finding]:
    """Waiver hygiene: malformed IDs and missing reasons are findings.

    ``REP000`` findings cannot themselves be waived — a suppression
    that cannot explain itself is exactly what this rule exists for.
    """
    for waiver in module.waivers.values():
        for bad in waiver.malformed:
            yield module.finding(
                META_RULE_ID, waiver.line,
                f"waiver names unknown rule id {bad!r} "
                f"(expected REP###)",
            )
        if not waiver.reason:
            yield module.finding(
                META_RULE_ID, waiver.line,
                "waiver (# lint: waive) carries no reason; write why the "
                "finding is acceptable after the waiver",
            )
        unknown = sorted(i for i in waiver.ids if i not in RULES)
        for rule_id in unknown:
            yield module.finding(
                META_RULE_ID, waiver.line,
                f"waiver names unregistered rule {rule_id}",
            )


def lint_paths(
    paths: Sequence[Path | str],
    *,
    rule_ids: Sequence[str] | None = None,
    root: Path | str | None = None,
) -> LintReport:
    """Lint ``paths`` with the selected rules (all, by default).

    ``root`` anchors relative paths in findings and is where
    cross-module rules look for tree-level artifacts (the README
    metrics catalog); it defaults to the current directory.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    if rule_ids is None:
        selected: List[Rule] = list(RULES.values())
    else:
        unknown = sorted(set(rule_ids) - set(RULES))
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; registered: {sorted(RULES)}"
            )
        selected = [RULES[i] for i in rule_ids]

    report = LintReport(rules_run=sorted(r.id for r in selected))
    modules: List[ModuleContext] = []
    raw: List[Finding] = []
    for file_path in collect_files([Path(p) for p in paths]):
        rel = _relative(file_path, root_path)
        try:
            source = file_path.read_text(encoding="utf-8")
            module = ModuleContext(file_path, rel, source)
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            lineno = getattr(exc, "lineno", 0) or 0
            raw.append(Finding(
                path=rel, line=lineno, rule=META_RULE_ID,
                message=f"cannot parse module: {exc}",
            ))
            continue
        modules.append(module)
        raw.extend(_meta_findings(module))
    report.files_scanned = len(modules)

    for rule in selected:
        for module in modules:
            raw.extend(rule.check_module(module))
    tree = TreeContext(root_path, modules)
    for rule in selected:
        raw.extend(rule.check_tree(tree))

    by_rel: Dict[str, ModuleContext] = {m.rel: m for m in modules}
    for finding in sorted(set(raw)):
        module = by_rel.get(finding.path)
        waiver = (
            module.waivers.get(finding.line) if module is not None else None
        )
        if (
            finding.rule != META_RULE_ID
            and waiver is not None
            and waiver.covers(finding.rule)
        ):
            report.waived.append(finding)
        else:
            report.findings.append(finding)
    return report

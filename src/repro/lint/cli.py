"""Command-line front end: ``repro lint`` and ``python -m repro.lint``.

Exit status: 0 clean, 1 findings, 2 usage errors (unknown rule, missing
path).  Output is ``path:line: REP### message`` per finding, or one
JSON document with ``--json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .base import RULES
from .report import render_json, render_rule_list, render_text
from .runner import lint_paths

__all__ = ["build_parser", "main"]

#: What ``repro lint`` scans when no paths are given (repo convention).
DEFAULT_PATHS = ("src", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Project-specific static analysis: concurrency, fork-safety, "
            "metrics-contract and determinism rules (REP001-REP006). "
            "Waive a finding in place with a `lint: waive[REP###] reason` "
            "comment on its line."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=(
            "files or directories to scan (default: "
            + " ".join(DEFAULT_PATHS) + ", those that exist)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of text findings",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=None,
        help=(
            "project root for relative paths and the README metrics "
            "catalog (default: current directory)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (id, title, documentation) and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    rule_ids = None
    if args.rules:
        rule_ids = [r.strip().upper() for r in args.rules.split(",")
                    if r.strip()]
    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [Path(p) for p in DEFAULT_PATHS if Path(p).is_dir()]
        if not paths:
            print(
                "repro lint: no paths given and none of "
                f"{'/'.join(DEFAULT_PATHS)} exist here",
                file=sys.stderr,
            )
            return 2

    try:
        report = lint_paths(paths, rule_ids=rule_ids, root=args.root)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(
            f"repro lint: {exc}\nregistered rules: {', '.join(sorted(RULES))}",
            file=sys.stderr,
        )
        return 2

    print(render_json(report) if args.json else render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-line waiver comments for ``repro.lint`` findings.

The canonical spelling names the rule(s) being waived and gives a
reason — a waiver without a reason is itself a finding (``REP000``),
so suppressions stay auditable::

    time.sleep(0)   # lint: waive[REP001] yields the GIL; never blocks

Multiple rules can share one waiver: ``# lint: waive[REP002,REP005]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

__all__ = ["Waiver", "parse_waivers"]

_WAIVE_RE = re.compile(
    r"#\s*lint:\s*waive\[(?P<ids>[^\]]*)\]\s*(?P<reason>.*?)\s*$"
)
_ID_RE = re.compile(r"^REP\d{3}$")


@dataclass(frozen=True)
class Waiver:
    """One waiver comment: which rules it silences on its line, and why."""

    line: int  #: 1-based line the waiver (and the waived code) sits on
    ids: FrozenSet[str]
    reason: str
    malformed: List[str] = field(default_factory=list)

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.ids


def parse_waivers(lines: List[str]) -> Dict[int, Waiver]:
    """Extract waivers from source lines, keyed by 1-based line number.

    Malformed rule IDs inside ``waive[...]`` are recorded on the
    waiver's ``malformed`` list instead of being dropped silently; the
    runner turns them (and empty reasons) into ``REP000`` findings.
    """
    waivers: Dict[int, Waiver] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _WAIVE_RE.search(text)
        if match:
            raw_ids = [
                part.strip()
                for part in match.group("ids").split(",")
                if part.strip()
            ]
            good = frozenset(i for i in raw_ids if _ID_RE.match(i))
            bad = [i for i in raw_ids if not _ID_RE.match(i)]
            if not raw_ids:
                bad = ["<empty>"]
            waivers[lineno] = Waiver(
                line=lineno,
                ids=good,
                reason=match.group("reason"),
                malformed=bad,
            )
    return waivers

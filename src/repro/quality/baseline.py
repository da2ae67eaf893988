"""Committed baseline of grandfathered repro-lint findings.

The baseline lets the linter land as a *blocking* CI gate without
first rewriting every historical callsite: existing findings are
recorded once (``scripts/repro_lint_baseline.py``) and suppressed on
subsequent runs, while any *new* finding still fails the build.

Entries are matched by :meth:`Finding.fingerprint` — rule id, repo
relative path, and the stripped source line — so pure line-number
drift does not resurrect them, but editing a flagged line does.
Counts are per-fingerprint: if a file holds two identical findings and
one is fixed, the remaining entry still matches while a third new copy
would not.  Each record keeps the finding's message for reviewers, with
its line references dropped (``flow.py:117`` becomes ``flow.py``, and
``[line 12]`` goes), so an edit that only moves lines leaves the file
unchanged.

The file format is deterministic JSON (sorted records, sorted keys,
trailing newline) so regeneration is reproducible and diffs stay
reviewable.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.quality.findings import Finding

#: Default baseline filename, looked up relative to the lint root.
BASELINE_FILENAME = "repro-lint-baseline.json"

_SCHEMA = "repro-lint-baseline/1"

#: Line references in rule messages: ``file.py:NNN`` and `` [line N]``.
_LINE_REFS = re.compile(r"(?<=\.py):\d+| \[line \d+\]")


def message_without_lines(message: str) -> str:
    """A finding's message with its line references dropped."""
    return _LINE_REFS.sub("", message)


@dataclass
class Baseline:
    """Fingerprint multiset of grandfathered findings."""

    counts: Counter = field(default_factory=Counter)
    #: Human-readable records as loaded/saved (for round-tripping).
    records: List[Dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Load a baseline file; a missing file yields an empty baseline.

        A malformed file raises ``ValueError`` rather than silently
        un-suppressing (or over-suppressing) findings.
        """
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            return cls()
        try:
            payload = json.loads(raw)
            if payload.get("schema") != _SCHEMA:
                raise ValueError(f"unknown baseline schema in {path}")
            records = payload["findings"]
            counts: Counter = Counter()
            for record in records:
                counts[record["fingerprint"]] += int(record.get("count", 1))
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed baseline file {path}: {exc}") from exc
        return cls(counts=counts, records=list(records))

    # ------------------------------------------------------------------
    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """Build a baseline covering exactly the given findings."""
        grouped: Dict[str, Dict] = {}
        for finding in findings:
            fp = finding.fingerprint()
            record = grouped.get(fp)
            if record is None:
                grouped[fp] = {
                    "fingerprint": fp,
                    "rule": finding.rule,
                    "path": finding.path,
                    "snippet": finding.snippet,
                    "message": message_without_lines(finding.message),
                    "count": 1,
                }
            else:
                record["count"] += 1
        records = sorted(
            grouped.values(),
            key=lambda r: (r["path"], r["rule"], r["snippet"]),
        )
        counts = Counter(
            {record["fingerprint"]: record["count"] for record in records}
        )
        return cls(counts=counts, records=records)

    # ------------------------------------------------------------------
    def save(self, path: Path) -> None:
        """Write the deterministic JSON representation."""
        payload = {
            "schema": _SCHEMA,
            "findings": self.records,
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # ------------------------------------------------------------------
    def partition(
        self, findings: Iterable[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split findings into ``(new, baselined)``.

        Consumes baseline counts: N baselined copies of a fingerprint
        suppress at most N live findings with that fingerprint.
        """
        remaining = Counter(self.counts)
        fresh: List[Finding] = []
        grandfathered: List[Finding] = []
        for finding in findings:
            fp = finding.fingerprint()
            if remaining.get(fp, 0) > 0:
                remaining[fp] -= 1
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        return fresh, grandfathered

    def __len__(self) -> int:
        return sum(self.counts.values())

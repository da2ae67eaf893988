#!/usr/bin/env python
"""(Re)generate the committed repro-lint baseline deterministically.

Runs the full rule set over ``src/repro`` from the repository root and
writes every current finding into ``repro-lint-baseline.json`` (sorted
records, sorted keys, trailing newline), so regeneration on any machine
produces a byte-identical file for an identical tree.  Record messages
carry no line numbers, so an edit that only moves lines leaves the file
current.

Usage::

    python scripts/repro_lint_baseline.py [--check]

``--check`` regenerates in memory and exits 1 if the committed file is
out of date instead of rewriting it: any added or removed fingerprint,
or a changed rule, path, snippet, count or message.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.quality import BASELINE_FILENAME, Baseline, LintEngine  # noqa: E402


def main(argv=None, root: Path = REPO_ROOT) -> int:
    """Regenerate (or with ``--check``, verify) the baseline of the
    ``src/repro`` tree under ``root``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed baseline is current; do not rewrite",
    )
    args = parser.parse_args(argv)

    baseline_path = root / BASELINE_FILENAME
    engine = LintEngine(baseline=Baseline())  # no suppression: see it all
    report = engine.lint_paths([root / "src" / "repro"], root=root)
    fresh = Baseline.from_findings(report.findings)

    if args.check:
        try:
            committed = json.loads(baseline_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            committed = None
        regenerated = json.loads(
            json.dumps({"schema": "repro-lint-baseline/1",
                        "findings": fresh.records})
        )
        if committed != regenerated:
            print(
                f"{baseline_path.name} is stale: regenerate with "
                f"`python scripts/repro_lint_baseline.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{baseline_path.name} is current ({len(fresh)} finding(s))")
        return 0

    fresh.save(baseline_path)
    print(
        f"wrote {baseline_path.name} with {len(fresh)} grandfathered "
        f"finding(s) across {report.files_checked} file(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

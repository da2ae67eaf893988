"""The committed tree must be lint-clean modulo the committed baseline.

The report of ``src/repro`` is the session fixture ``live_lint_report``
(``tests/conftest.py``), shared with the other live-tree checks.
"""

from pathlib import Path

from repro.quality import BASELINE_FILENAME, Baseline, LintEngine

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestLiveTree:
    def test_tree_is_lint_clean_modulo_baseline(self, live_lint_report):
        rendered = "\n".join(f.render() for f in live_lint_report.findings)
        assert live_lint_report.findings == [], (
            f"new repro-lint findings (fix, pragma with a justification, "
            f"or regenerate the baseline via "
            f"scripts/repro_lint_baseline.py):\n{rendered}"
        )

    def test_whole_package_was_scanned(self, live_lint_report):
        assert live_lint_report.files_checked > 100

    def test_committed_baseline_is_current(self, live_lint_report):
        """Every baseline entry still matches a live finding.

        Stale entries mean someone fixed a grandfathered finding
        without regenerating the baseline — harmless for CI but the
        file should shrink to match reality.
        """
        committed = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
        assert len(live_lint_report.baselined) == len(committed), (
            "baseline is stale; regenerate with "
            "`python scripts/repro_lint_baseline.py`"
        )

    def test_default_rules_include_concurrency_pass(self):
        """RPL009-RPL012 gate the live tree like every other rule."""
        engine = LintEngine()
        ids = [rule.rule_id for rule in engine.rules]
        for rule_id in ("RPL009", "RPL010", "RPL011", "RPL012"):
            assert rule_id in ids

    def test_default_rules_include_vectorization_pass(self):
        """RPL013-RPL016 gate the live tree like every other rule."""
        engine = LintEngine()
        ids = [rule.rule_id for rule in engine.rules]
        for rule_id in ("RPL013", "RPL014", "RPL015", "RPL016"):
            assert rule_id in ids

    def test_baseline_has_no_unit_errors(self):
        """RPL001 findings may never be grandfathered — a dimensional
        mixup corrupts every downstream tCDP number silently."""
        committed = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
        assert all(r["rule"] != "RPL001" for r in committed.records)

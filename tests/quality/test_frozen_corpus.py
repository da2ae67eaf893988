"""The linter's reports on the benchmark's frozen corpus match its pins.

``bench/corpus`` holds a frozen copy of ``src/repro`` and
``bench/references.json`` pins the report digest for each model
package.  Checking them here makes a finding that a lint change moves
fail the test suite, not only the benchmark.
"""

import hashlib
import json
import tarfile
from pathlib import Path

import pytest

from repro.quality import LintEngine

BENCH = Path(__file__).resolve().parent.parent.parent / "bench"
REFS = json.loads((BENCH / "references.json").read_text())["lint_frozen"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    archive = BENCH / REFS["archive"]
    assert hashlib.sha256(archive.read_bytes()).hexdigest() == (
        REFS["archive_sha256"]
    )
    root = tmp_path_factory.mktemp("corpus")
    with tarfile.open(archive) as tar:
        tar.extractall(root, filter="data")
    return root


@pytest.mark.parametrize("package", sorted(REFS["packages"]))
def test_package_report_matches_pinned_digest(corpus, package):
    report = LintEngine().lint_paths(
        [corpus / "src" / "repro" / package], root=corpus, jobs=1
    )
    text = json.dumps(report.to_json(), sort_keys=True)
    want = REFS["packages"][package]
    assert report.files_checked == want["files"]
    assert len(report.findings) == want["findings"]
    assert hashlib.sha256(text.encode()).hexdigest() == want["report_sha256"]

"""``scripts/repro_lint_baseline.py --check`` on a small tree.

The committed baseline goes stale only when the findings change: an
edit that only moves lines must pass the check, while an edited
flagged line or a new finding must fail it.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

_MODEL = '''\
import math


def helper(x: float) -> float:
    return math.exp(x)


def model(x: float) -> float:
    if x > 0:
        return x
    return x * 2.0
'''

# Calls ``helper`` from an array-capable function, so its message points
# at ``model.py:<line>``.
_CALLER = '''\
from repro.core.model import helper


def caller(y: float) -> float:
    return helper(y) * 2.0
'''


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "repro_lint_baseline", REPO_ROOT / "scripts" / "repro_lint_baseline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path, script):
    package = tmp_path / "src" / "repro" / "core"
    package.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "model.py").write_text(_MODEL)
    (package / "caller.py").write_text(_CALLER)
    assert script.main([], root=tmp_path) == 0
    return tmp_path


def _messages(root):
    return (root / "repro-lint-baseline.json").read_text()


def test_baseline_messages_carry_no_line_numbers(tree):
    text = _messages(tree)
    assert "model.py)" in text  # the RPL016 witness, without its line
    assert "[line" not in text and ".py:" not in text


def test_line_only_move_passes_check(tree, script):
    model = tree / "src" / "repro" / "core" / "model.py"
    model.write_text('"""Docstring."""\n\n# moved\n' + _MODEL)
    caller = tree / "src" / "repro" / "core" / "caller.py"
    caller.write_text("\n\n" + _CALLER)
    assert script.main(["--check"], root=tree) == 0


def test_edited_snippet_fails_check(tree, script):
    model = tree / "src" / "repro" / "core" / "model.py"
    model.write_text(_MODEL.replace("if x > 0:", "if x > 1:"))
    assert script.main(["--check"], root=tree) == 1


def test_added_finding_fails_check(tree, script):
    model = tree / "src" / "repro" / "core" / "model.py"
    model.write_text(_MODEL + "\n\ndef more(z: float) -> float:\n"
                     "    return math.log(z)\n")
    assert script.main(["--check"], root=tree) == 1

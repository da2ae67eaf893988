"""The per-file index: one parse, one walk and one flow analysis."""

import ast
import textwrap
from pathlib import Path

from repro.quality import RULE_REGISTRY, Baseline, LintEngine
from repro.quality.engine import _ModuleCache
from repro.quality.flow import FlowAnalyzer
from repro.quality.rules.base import Rule

SOURCE = textwrap.dedent(
    """
    import math

    class Meter:
        scale_j = 2.0

        def read(self, values):
            def inner(v_j):
                return [lambda w: w * v_j for _ in values]
            return sum(inner(v) for v in values)

    async def poll(meter):
        if meter:
            return math.fsum(meter.read([1.0]))
    """
)


class _CaptureContext(Rule):
    rule_id = "RPL999"

    def __init__(self):
        self.contexts = []

    def check(self, ctx):
        self.contexts.append(ctx)
        return iter(())


def _engine(*rule_ids):
    return LintEngine(
        rules=[RULE_REGISTRY[r]() for r in rule_ids], baseline=Baseline()
    )


def _write_package(root: Path) -> Path:
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "from .b import total\n\n"
        "def helper(x_j):\n    return x_j\n\n"
        "def f(e_j):\n    return e_j + total()\n"
    )
    (pkg / "b.py").write_text(
        "from .a import helper\n\n"
        "def total():\n    return 1.0\n\n"
        "def g(e_kwh):\n    return e_kwh + helper(2.0)\n"
    )
    return pkg


class TestNodes:
    def test_nodes_are_the_walk_of_the_tree_in_order(self):
        capture = _CaptureContext()
        LintEngine(rules=[capture], baseline=Baseline()).lint_source(SOURCE)
        (ctx,) = capture.contexts
        walked = list(ast.walk(ctx.tree))
        assert len(ctx.nodes) == len(walked)
        assert all(a is b for a, b in zip(ctx.nodes, walked))


class TestFlowAnalysisOnce:
    def test_rpl006_and_rpl007_share_one_flow_analysis_per_file(
        self, tmp_path, monkeypatch
    ):
        calls = []
        original = FlowAnalyzer.analyze_module

        def counting(self):
            calls.append(self.info.key)
            return original(self)

        monkeypatch.setattr(FlowAnalyzer, "analyze_module", counting)
        pkg = _write_package(tmp_path)
        _engine("RPL006", "RPL007").lint_paths([pkg], root=tmp_path, jobs=1)
        assert sorted(Path(key).name for key in calls) == [
            "__init__.py",
            "a.py",
            "b.py",
        ]


class TestOneParse:
    def test_imported_and_linted_files_parse_once(
        self, tmp_path, monkeypatch
    ):
        parsed = []
        original = ast.parse

        def counting(source, filename="<unknown>", *args, **kwargs):
            parsed.append(Path(filename).resolve().name)
            return original(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        pkg = _write_package(tmp_path)
        report = _engine("RPL006").lint_paths([pkg], root=tmp_path, jobs=1)
        assert report.files_checked == 3
        # a.py imports b.py before b.py is linted, and b.py imports a.py
        # after it was linted: both reuse the first parse.
        assert sorted(parsed) == ["__init__.py", "a.py", "b.py"]

    def test_edited_source_is_not_replaced_by_the_file_on_disk(
        self, tmp_path
    ):
        pkg = _write_package(tmp_path)
        engine = _engine("RPL001")
        modules = _ModuleCache()
        assert modules.parse(pkg / "a.py") is not None
        findings, _ = engine.lint_source(
            "def f(a_j, b_kwh):\n    return a_j + b_kwh\n",
            path=pkg / "a.py",
            modules=modules,
        )
        assert [f.rule for f in findings] == ["RPL001"]

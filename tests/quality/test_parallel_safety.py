"""RPL008 fixtures: picklability and share-nothing for pool callables."""

import textwrap

import pytest

from repro.quality import Baseline, LintEngine


def lint(source, rel_path="core/snippet.py"):
    from repro.quality import RULE_REGISTRY

    engine = LintEngine(
        rules=[RULE_REGISTRY["RPL008"]()], baseline=Baseline()
    )
    return engine.lint_source(textwrap.dedent(source), rel_path=rel_path)


@pytest.mark.smoke
class TestPicklability:
    def test_inline_lambda_flagged(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            def run(payloads):
                return map_parallel(lambda p: p + 1, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "lambda" in findings[0].message

    def test_name_bound_to_lambda_flagged(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            def run(payloads):
                scale = lambda p: p * 3
                return map_parallel(scale, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "'scale'" in findings[0].message

    def test_nested_def_flagged(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            def run(payloads):
                def inner(p):
                    return p
                return map_parallel(inner, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "nested function" in findings[0].message

    def test_partial_over_lambda_flagged(self):
        findings, _ = lint(
            """
            from functools import partial
            from repro.runtime.parallel import map_parallel

            def run(payloads):
                f = lambda p, k: p * k
                return map_parallel(partial(f, k=2), payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]

    def test_executor_map_lambda_flagged(self):
        findings, _ = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(payloads):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda p: p, payloads))
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]


class TestSharedState:
    def test_module_level_mutable_closure_flagged(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            _RESULTS = []

            def _worker(payload):
                _RESULTS.append(payload)
                return payload

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "_RESULTS" in findings[0].message

    def test_live_cache_closure_flagged(self):
        findings, _ = lint(
            """
            from repro.runtime.cache import ResultCache
            from repro.runtime.parallel import map_parallel

            _CACHE = ResultCache("workloads")

            def _worker(payload):
                return _CACHE.get(payload)

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "_CACHE" in findings[0].message

    def test_read_only_module_table_ok(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            _TABLE = {"a": 1}

            def _worker(payload):
                return _TABLE.get(payload, 0)

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert findings == []

    def test_top_level_pure_worker_ok(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            def _worker(payload):
                total = payload * 2
                return total

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert findings == []

    def test_callable_parameter_skipped(self):
        # The caller's call site owns the check; `map_parallel` itself
        # hands its `func` parameter to pool.map and must stay clean.
        findings, _ = lint(
            """
            def fan_out(func, payloads, pool):
                return list(pool.map(func, payloads))
            """
        )
        assert findings == []

    def test_pragma_suppression(self):
        findings, suppressed = lint(
            """
            from repro.runtime.parallel import map_parallel

            def run(payloads):
                return map_parallel(lambda p: p, payloads)  # repro-lint: disable=RPL008
            """
        )
        assert findings == []
        assert suppressed == 1


class TestVectorWorkers:
    """Vector-engine callables crossing the pool boundary."""

    def test_module_level_vector_engine_closure_flagged(self):
        findings, _ = lint(
            """
            from repro.cpu.vector_engine import VectorEngine
            from repro.runtime.parallel import map_parallel

            _ENGINE = VectorEngine(None, 8)

            def _worker(payload):
                return _ENGINE.run(payload)

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "_ENGINE" in findings[0].message

    def test_module_level_cpu_closure_flagged(self):
        findings, _ = lint(
            """
            from repro.cpu import CortexM0, MemoryMap
            from repro.runtime.parallel import map_parallel

            _CPU = CortexM0(MemoryMap.embedded_system())

            def _worker(payload):
                _CPU.load_program(payload)
                return _CPU.run()

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "_CPU" in findings[0].message

    def test_journal_mutation_flagged(self):
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            _JOURNAL = []

            def _worker(payload):
                _JOURNAL.append(payload)
                return payload

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert [f.rule for f in findings] == ["RPL008"]
        assert "_JOURNAL" in findings[0].message

    def test_per_call_engine_construction_ok(self):
        # The share-nothing pattern: the worker builds every bit of
        # simulator state inside the call, nothing crosses the boundary
        # but the payload.
        findings, _ = lint(
            """
            from repro.runtime.parallel import map_parallel

            def _worker(payload):
                from repro.cpu.vector_engine import run_lanes

                source, lane_words = payload
                return run_lanes(source, lane_words=lane_words)

            def run(payloads):
                return map_parallel(_worker, payloads)
            """
        )
        assert findings == []


class TestLiveCallSites:
    def test_every_existing_src_call_site_passes(self, live_lint_report):
        """Acceptance: RPL008 is clean over the real runtime + core,
        with no finding grandfathered by the baseline either."""
        assert "RPL008" in [rule.rule_id for rule in LintEngine().rules]
        assert live_lint_report.files_checked > 0
        rpl008 = [
            f
            for f in live_lint_report.findings + live_lint_report.baselined
            if f.rule == "RPL008"
        ]
        assert rpl008 == []

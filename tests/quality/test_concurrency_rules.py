"""Fixture snippets for the concurrency rules RPL009-RPL012."""

import textwrap

import pytest

from repro.quality import Baseline, LintEngine


def lint(source, rel_path="serve/snippet.py", rules=None):
    """Findings + suppressed count for one in-memory snippet."""
    from repro.quality import RULE_REGISTRY

    selected = None
    if rules is not None:
        selected = [RULE_REGISTRY[r]() for r in rules]
    engine = LintEngine(rules=selected, baseline=Baseline())
    return engine.lint_source(
        textwrap.dedent(source), rel_path=rel_path
    )


def rule_ids(findings):
    return sorted({f.rule for f in findings})


@pytest.mark.smoke
class TestRPL009AsyncBlocking:
    def test_time_sleep_flagged(self):
        findings, _ = lint(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """,
            rules=["RPL009"],
        )
        assert rule_ids(findings) == ["RPL009"]
        assert "handler" in findings[0].message
        assert "time.sleep" in findings[0].message

    def test_cache_get_flagged(self):
        findings, _ = lint(
            """
            async def lookup(cache, key):
                return cache.get(key)
            """,
            rules=["RPL009"],
        )
        assert rule_ids(findings) == ["RPL009"]
        assert "cache" in findings[0].message

    def test_transitive_blocking_carries_witness_chain(self):
        findings, _ = lint(
            """
            import time

            def helper():
                time.sleep(1.0)

            async def handler():
                helper()
            """,
            rules=["RPL009"],
        )
        assert rule_ids(findings) == ["RPL009"]
        assert "via calls helper()" in findings[0].message
        assert "[line" in findings[0].message

    def test_awaited_call_not_flagged(self):
        findings, _ = lint(
            """
            async def handler(batcher, query):
                return await batcher.submit(query)
            """,
            rules=["RPL009"],
        )
        assert findings == []

    def test_run_in_executor_wrapped_lambda_not_flagged(self):
        findings, _ = lint(
            """
            import asyncio

            async def handler(loop, cache, key):
                return await loop.run_in_executor(
                    None, lambda: cache.get(key)
                )
            """,
            rules=["RPL009"],
        )
        assert findings == []

    def test_sync_def_not_flagged(self):
        findings, _ = lint(
            """
            import time

            def worker():
                time.sleep(0.1)
            """,
            rules=["RPL009"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """
            import time

            async def handler():
                time.sleep(0.1)  # repro-lint: disable=RPL009 - test fixture
            """,
            rules=["RPL009"],
        )
        assert findings == []
        assert suppressed == 1


@pytest.mark.smoke
class TestRPL010TaskHygiene:
    def test_bare_create_task_flagged(self):
        findings, _ = lint(
            """
            import asyncio

            async def spawn(work):
                asyncio.create_task(work())
            """,
            rules=["RPL010"],
        )
        assert rule_ids(findings) == ["RPL010"]
        assert "orphaned task" in findings[0].message

    def test_assigned_never_read_flagged(self):
        findings, _ = lint(
            """
            import asyncio

            async def spawn(work):
                task = asyncio.create_task(work())
            """,
            rules=["RPL010"],
        )
        assert rule_ids(findings) == ["RPL010"]
        assert "'task'" in findings[0].message

    def test_unawaited_coroutine_flagged(self):
        findings, _ = lint(
            """
            async def refresh():
                pass

            def tick():
                refresh()
            """,
            rules=["RPL010"],
        )
        assert rule_ids(findings) == ["RPL010"]
        assert "unawaited coroutine" in findings[0].message
        assert "refresh" in findings[0].message

    def test_stored_on_attribute_not_flagged(self):
        findings, _ = lint(
            """
            import asyncio

            class Batcher:
                def start(self):
                    self._worker = asyncio.create_task(self._run())
            """,
            rules=["RPL010"],
        )
        assert findings == []

    def test_name_read_later_not_flagged(self):
        findings, _ = lint(
            """
            import asyncio

            async def spawn(work):
                task = asyncio.create_task(work())
                await task
            """,
            rules=["RPL010"],
        )
        assert findings == []

    def test_passed_into_gather_not_flagged(self):
        findings, _ = lint(
            """
            import asyncio

            async def spawn(jobs):
                tasks = [asyncio.create_task(j()) for j in jobs]
                await asyncio.gather(*tasks)
            """,
            rules=["RPL010"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """
            import asyncio

            async def spawn(work):
                asyncio.create_task(work())  # repro-lint: disable=RPL010 - fire-and-forget by design
            """,
            rules=["RPL010"],
        )
        assert findings == []
        assert suppressed == 1


@pytest.mark.smoke
class TestRPL011LockDiscipline:
    def test_unguarded_write_flagged_with_guarded_witness(self):
        findings, _ = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def reset(self):
                    self._items = []
            """,
            rules=["RPL011"],
        )
        assert rule_ids(findings) == ["RPL011"]
        message = findings[0].message
        assert "Registry._items" in message
        assert "add()" in message
        assert "reset()" in message

    def test_all_writes_guarded_not_flagged(self):
        findings, _ = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def reset(self):
                    with self._lock:
                        self._items = []
            """,
            rules=["RPL011"],
        )
        assert findings == []

    def test_init_writes_exempt(self):
        findings, _ = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def inc(self):
                    with self._lock:
                        self._count += 1
            """,
            rules=["RPL011"],
        )
        assert findings == []

    def test_class_without_lock_not_flagged(self):
        findings, _ = lint(
            """
            class Bag:
                def add(self, item):
                    self._items.append(item)

                def reset(self):
                    self._items = []
            """,
            rules=["RPL011"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._ready = False

                def publish(self):
                    with self._lock:
                        self._ready = True

                def drop(self):
                    self._ready = False  # repro-lint: disable=RPL011 - GIL-atomic flag store
            """,
            rules=["RPL011"],
        )
        assert findings == []
        assert suppressed == 1


@pytest.mark.smoke
class TestRPL012IterOrder:
    def test_sum_over_set_with_unit_target_flagged(self):
        findings, _ = lint(
            """
            def total(parts):
                costs = {p.cost for p in parts}
                total_j = sum(costs)
                return total_j
            """,
            rules=["RPL012"],
        )
        assert rule_ids(findings) == ["RPL012"]
        assert "not bit-stable" in findings[0].message

    def test_sum_over_dict_values_with_unit_element_flagged(self):
        findings, _ = lint(
            """
            def total(steps):
                return sum(s.energy_j for s in steps.values())
            """,
            rules=["RPL012"],
        )
        assert rule_ids(findings) == ["RPL012"]
        assert "energy_j" in findings[0].message

    def test_listdir_accumulation_loop_flagged(self):
        findings, _ = lint(
            """
            import os

            def total(path, read_gco2):
                total_gco2 = 0.0
                for name in os.listdir(path):
                    total_gco2 += read_gco2(name)
                return total_gco2
            """,
            rules=["RPL012"],
        )
        assert rule_ids(findings) == ["RPL012"]
        assert "filesystem order" in findings[0].message

    def test_sorted_iterable_exempt(self):
        findings, _ = lint(
            """
            def total(parts):
                costs = {p.cost for p in parts}
                total_j = sum(sorted(costs))
                return total_j
            """,
            rules=["RPL012"],
        )
        assert findings == []

    def test_no_unit_anywhere_not_flagged(self):
        findings, _ = lint(
            """
            def count(parts):
                names = {p.name for p in parts}
                n = sum(1 for _ in names)
                return n
            """,
            rules=["RPL012"],
        )
        assert findings == []

    def test_math_fsum_exempt(self):
        findings, _ = lint(
            """
            import math

            def total(parts):
                costs = {p.cost for p in parts}
                total_j = math.fsum(costs)
                return total_j
            """,
            rules=["RPL012"],
        )
        assert findings == []

    def test_list_iteration_not_flagged(self):
        findings, _ = lint(
            """
            def total(parts):
                total_j = sum(p.energy_j for p in parts)
                return total_j
            """,
            rules=["RPL012"],
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings, suppressed = lint(
            """
            def total(parts):
                costs = {p.cost for p in parts}
                total_j = sum(costs)  # repro-lint: disable=RPL012 - single-element set by construction
                return total_j
            """,
            rules=["RPL012"],
        )
        assert findings == []
        assert suppressed == 1

    def test_nested_sum_reported_once_at_innermost_statement(self):
        findings, _ = lint(
            """
            def total(parts, s):
                for part in parts:
                    if part:
                        total = sum(e_j for e_j in s)
                s = set(parts)
            """,
            rules=["RPL012"],
        )
        assert [(f.rule, f.line) for f in findings] == [("RPL012", 5)]

    def test_sum_in_loop_header_with_nested_def_checked(self):
        findings, _ = lint(
            """
            def total(parts):
                costs = {p.cost for p in parts}
                for k in range(int(sum(c_j for c_j in costs))):
                    def helper():
                        return k
                return helper
            """,
            rules=["RPL012"],
        )
        assert [(f.rule, f.line) for f in findings] == [("RPL012", 4)]

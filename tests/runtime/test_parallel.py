"""Parallel suite-runner tests: ordering, fallback, cache integration."""

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.parallel import resolve_jobs, run_workloads
from repro.workloads import fib, matmul_int, sort


@pytest.fixture
def tiny_suite():
    return [
        matmul_int.workload(n=4, repeats=1, tune=1, pads=0),
        fib.workload(k=8, repeats=2),
        sort.workload(length=8, repeats=1),
    ]


class TestResolveJobs:
    def test_explicit_clamped_to_tasks(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 3) == 2

    def test_auto_at_least_one(self):
        assert resolve_jobs(None, 0) == 1
        assert resolve_jobs(None, 100) >= 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(0, 3)


@pytest.mark.smoke
class TestSerial:
    def test_order_and_correctness(self, tiny_suite):
        report = run_workloads(tiny_suite, jobs=1, cache=False)
        assert [r.workload.name for r in report.results] == [
            w.name for w in tiny_suite
        ]
        assert all(r.correct for r in report.results)
        assert report.jobs == 1
        assert report.cache_hits == 0
        assert report.cache_misses == len(tiny_suite)

    def test_perf_entries_align_with_results(self, tiny_suite):
        report = run_workloads(tiny_suite, jobs=1, cache=False)
        assert len(report.perfs) == len(report.results)
        for perf, result in zip(report.perfs, report.results):
            assert perf.name == result.workload.name
            assert perf.cycles == result.cycles
            assert perf.instructions == result.instructions
            assert not perf.cached
            assert perf.wall_seconds > 0
        assert report.wall_seconds > 0
        assert report.mips > 0


class TestPool:
    def test_multi_worker_matches_serial(self, tiny_suite):
        """Pool execution (or its serial fallback) is order-identical."""
        serial = run_workloads(tiny_suite, jobs=1, cache=False)
        pooled = run_workloads(tiny_suite, jobs=2, cache=False)
        assert pooled.results == serial.results


class TestCacheIntegration:
    def test_second_run_all_hits(self, tiny_suite, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_workloads(tiny_suite, cache=cache)
        assert cold.cache_hits == 0
        warm = run_workloads(tiny_suite, cache=cache)
        assert warm.cache_hits == len(tiny_suite)
        assert warm.cache_misses == 0
        assert all(p.cached for p in warm.perfs)
        for a, b in zip(cold.results, warm.results):
            assert a.checksum == b.checksum
            assert a.cycles == b.cycles

    def test_partial_warm(self, tiny_suite, tmp_path):
        cache = ResultCache(tmp_path)
        run_workloads(tiny_suite[:1], cache=cache)
        report = run_workloads(tiny_suite, cache=cache)
        assert report.cache_hits == 1
        assert report.cache_misses == len(tiny_suite) - 1
        assert [r.workload.name for r in report.results] == [
            w.name for w in tiny_suite
        ]

    def test_cache_false_disables(self, tiny_suite, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        run_workloads(tiny_suite[:1], jobs=1, cache=False)
        assert not (tmp_path / "env-cache").exists()


class TestVectorRunner:
    """The N-lane vector engine against the scalar suite runner, on a
    suite that mixes same-source seed variants with other programs."""

    @pytest.fixture
    def mixed_suite(self):
        """8 seed variants (one lockstep group) plus two singleton programs."""
        variants = [
            matmul_int.seed_variant(12345 + 7919 * i, n=8, repeats=2, tune=5)
            for i in range(8)
        ]
        return variants + [
            fib.workload(k=8, repeats=2),
            sort.workload(length=8, repeats=1),
        ]

    def test_bit_identical_to_scalar_runner(self, mixed_suite):
        from repro.cpu.vector_engine import run_lanes

        scalar = run_workloads(mixed_suite, jobs=1, cache=False)
        variants = mixed_suite[:8]
        assert len({w.source for w in variants}) == 1
        vector = run_lanes(
            variants[0].source,
            lane_words=[tuple(w.data_words) for w in variants],
        )
        assert vector.vectorized
        assert len(vector.lanes) == 8
        assert [r.workload.name for r in scalar.results] == [
            w.name for w in mixed_suite
        ]
        for a, b in zip(vector.lanes, scalar.results):
            assert a.checksum == b.checksum
            assert a.cycles == b.cycles
            assert a.instructions == b.instructions
            assert a.program_reads == b.program_reads
            assert a.data_reads == b.data_reads
            assert a.data_writes == b.data_writes
            assert abs(a.activity_factor() - b.activity_factor) < 1e-15

    def test_cache_warm_rerun_all_hits(self, mixed_suite, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_workloads(mixed_suite, cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(mixed_suite)
        warm = run_workloads(mixed_suite, cache=cache)
        assert warm.cache_hits == len(mixed_suite)
        assert warm.cache_misses == 0
        for a, b in zip(cold.results, warm.results):
            assert a.checksum == b.checksum
            assert a.cycles == b.cycles

    def test_seed_variants_have_distinct_cache_keys(self, tmp_path):
        """Same source, different data words: entries must not collide."""
        variants = [
            matmul_int.seed_variant(s, n=8, repeats=1, tune=1)
            for s in (1, 2)
        ]
        cache = ResultCache(tmp_path)
        run_workloads(variants, cache=cache)
        report = run_workloads(list(reversed(variants)), cache=cache)
        assert report.cache_hits == 2
        for workload, result in zip(reversed(variants), report.results):
            assert result.workload.name == workload.name
            assert result.checksum == workload.expected_checksum


class TestSuiteStudyIntegration:
    def test_suite_study_cached_rows_identical(self, tmp_path):
        from repro.analysis.suite_study import run_suite_study

        cache = ResultCache(tmp_path)
        cold = run_suite_study(cache=cache, jobs=1)
        warm = run_suite_study(cache=cache, jobs=1)
        assert cache.hits >= 8
        assert len(cold) == len(warm) == 8
        for a, b in zip(cold, warm):
            assert a.__dict__ == b.__dict__

"""End-to-end instrumentation: ISS, caches, parallel map, MC, artifacts.

The load-bearing guarantee is *differential*: switching observability on
must change nothing about the simulation results — only add spans and
metrics on the side.  Every section here runs the same operation with
obs off and on and compares the outputs bit-for-bit.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.analysis.artifacts import (
    PipelineConfig,
    render_manifest,
    run_artifact_pipeline,
    strip_timing_fields,
)
from repro.core.uncertainty import (
    ScenarioParameters,
    monte_carlo_win_probability,
)
from repro.runtime.cache import ResultCache, SweepCache
from repro.runtime.parallel import map_parallel
from repro.workloads.suite import get_workload, run_workload


def _span_and_count(n):
    """A fan-out worker that records a span and a counter increment."""
    with obs.span("worker.step", n=n):
        obs.get_metrics().counter("worker.items").inc(n)
    return n * n


@pytest.fixture
def nominal():
    """Paper case-study parameters at 24 months, US grid."""
    return ScenarioParameters(
        candidate_wafer_g=1100300.0,
        candidate_dies_per_wafer=606238.0,
        candidate_yield=0.50,
        candidate_op_per_month_g=0.1957,
        baseline_wafer_g=837060.0,
        baseline_dies_per_wafer=299127.0,
        baseline_yield=0.50,
        baseline_op_per_month_g=0.2246,
        lifetime_months=24.0,
    )


def _result_tuple(result):
    return (
        result.checksum,
        result.cycles,
        result.instructions,
        result.program_reads,
        result.data_reads,
        result.data_writes,
        result.activity_factor,
    )


class TestISSInstrumentation:
    def test_tracing_does_not_change_results(self, clean_obs):
        """The differential gate: bit-identical run with obs on."""
        workload = get_workload("fib")
        baseline = run_workload(workload, engine="superblock")
        with obs.enabled_scope():
            traced = run_workload(workload, engine="superblock")
        assert _result_tuple(traced) == _result_tuple(baseline)

    def test_run_span_and_metrics(self, clean_obs):
        workload = get_workload("fib")
        with obs.enabled_scope():
            result = run_workload(workload, engine="superblock")
        (span,) = [
            r for r in obs.get_tracer().spans if r.name == "iss.run"
        ]
        assert span.args["workload"] == "fib"
        assert span.args["engine"] == "superblock"
        assert span.args["cycles"] == result.cycles
        assert span.args["instructions"] == result.instructions

        snap = obs.get_metrics().snapshot()["counters"]
        assert snap["iss.runs"] == 1
        assert snap["iss.instructions"] == result.instructions
        assert snap["iss.cycles"] == result.cycles
        # The instruction mix sums to the run's instruction count.
        mix = {
            k: v for k, v in snap.items() if k.startswith("iss.mix.")
        }
        assert mix
        assert sum(mix.values()) == result.instructions
        # The engine accounted every executed step somewhere.
        assert (
            snap["iss.superblock.block_steps"]
            + snap["iss.fastpath.fallback_steps"]
        ) == result.instructions

    def test_disabled_records_nothing(self, clean_obs):
        run_workload(get_workload("fib"), engine="superblock")
        assert obs.get_tracer().spans == []
        # Registrations from other tests survive reset(); all that
        # matters is that the disabled run moved none of them.
        counters = obs.get_metrics().snapshot()["counters"]
        assert all(v == 0 for v in counters.values())


class TestCacheCounters:
    def test_result_cache_hit_miss_counters(self, clean_obs, tmp_path):
        cache = ResultCache(root=tmp_path)
        workload = get_workload("fib")
        result = run_workload(workload, engine="superblock")
        with obs.enabled_scope():
            assert cache.get(workload, 500_000_000) is None
            cache.put(result, 500_000_000)
            assert cache.get(workload, 500_000_000) is not None
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["cache.iss.misses"] == 1
        assert counters["cache.iss.hits"] == 1
        assert counters["cache.iss.writes"] == 1
        assert counters["cache.iss.bytes_written"] > 0
        assert counters["cache.iss.bytes_read"] > 0

    def test_sweep_cache_counters_and_silence(self, clean_obs, tmp_path):
        cache = SweepCache(root=tmp_path)
        payload = {"k": 1}
        grid = np.arange(6, dtype=float).reshape(2, 3)
        # Disabled: the cache's own tallies move, the registry does not.
        assert cache.get(payload) is None
        cache.put(payload, grid)
        assert cache.misses == 1
        silent = obs.get_metrics().snapshot()["counters"]
        assert all(v == 0 for v in silent.values())
        with obs.enabled_scope():
            hit = cache.get(payload)
        np.testing.assert_array_equal(hit, grid)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["cache.sweep.hits"] == 1
        assert counters["cache.sweep.bytes_read"] > 0


class TestParallelTracing:
    def test_traced_map_matches_untraced(self, clean_obs):
        payloads = list(range(7))
        baseline = map_parallel(abs, payloads, jobs=2)
        with obs.enabled_scope():
            traced = map_parallel(abs, payloads, jobs=2, label="chunk")
        assert traced == baseline == payloads

    def test_map_span_and_chunk_replay(self, clean_obs):
        with obs.enabled_scope():
            map_parallel(abs, [1, 2, 3], jobs=2, label="chunk")
        spans = obs.get_tracer().spans
        (map_span,) = [
            r for r in spans if r.name == "parallel.map.chunk"
        ]
        assert map_span.args["items"] == 3
        chunk_spans = [r for r in spans if r.name == "chunk"]
        assert len(chunk_spans) == 3
        assert sorted(r.args["index"] for r in chunk_spans) == [0, 1, 2]
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["parallel.maps"] == 1
        assert counters["parallel.chunks"] == 3

    def test_serial_map_traced(self, clean_obs):
        with obs.enabled_scope():
            out = map_parallel(abs, [-4, 5], jobs=1, label="chunk")
        assert out == [4, 5]
        spans = obs.get_tracer().spans
        assert [r.name for r in spans if r.name == "chunk"] == [
            "chunk", "chunk",
        ]

    def test_worker_spans_and_counters_reach_parent(self, clean_obs):
        payloads = [1, 2, 3]
        with obs.enabled_scope():
            out = map_parallel(_span_and_count, payloads, jobs=2, label="chunk")
        assert out == [1, 4, 9]
        spans = obs.get_tracer().spans
        chunks = {r.args["index"]: r for r in spans if r.name == "chunk"}
        steps = [r for r in spans if r.name == "worker.step"]
        assert sorted(r.args["n"] for r in steps) == payloads
        for step in steps:
            chunk = chunks[step.args["n"] - 1]
            assert step.pid == chunk.pid != os.getpid()
            assert step.depth == chunk.depth + 1
            assert chunk.start_ns <= step.start_ns
            assert step.end_ns <= chunk.end_ns
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["worker.items"] == sum(payloads)

    def test_worker_counters_reach_parent_with_tracing_off(self, clean_obs):
        with obs.enabled_scope(tracing=False):
            map_parallel(_span_and_count, [1, 2, 3], jobs=2)
        assert obs.get_tracer().spans == []
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["worker.items"] == 6


class TestMonteCarloTracing:
    GRID = (np.array([0.8, 1.0, 1.2]), np.array([0.9, 1.1]))

    def test_tracing_does_not_change_grid(self, clean_obs, nominal):
        emb, op = self.GRID
        baseline = monte_carlo_win_probability(
            nominal, emb, op, n_samples=40,
            rng=np.random.default_rng(0),
        )
        with obs.enabled_scope():
            traced = monte_carlo_win_probability(
                nominal, emb, op, n_samples=40,
                rng=np.random.default_rng(0),
            )
        np.testing.assert_array_equal(traced, baseline)

    def test_batch_spans_and_sample_counter(self, clean_obs, nominal):
        emb, op = self.GRID
        with obs.enabled_scope():
            monte_carlo_win_probability(
                nominal, emb, op, n_samples=40, chunk_size=16,
                rng=np.random.default_rng(0),
            )
        spans = obs.get_tracer().spans
        (top,) = [r for r in spans if r.name == "mc.win_probability"]
        assert top.args["samples"] == 40
        batches = [r for r in spans if r.name == "mc.batch"]
        assert len(batches) == top.args["batches"] == 3  # ceil(40/16)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["mc.samples"] == 40
        assert counters["mc.batches"] == 3

    def test_cache_hit_marked_on_span(self, clean_obs, nominal, tmp_path):
        emb, op = self.GRID
        cache = SweepCache(root=tmp_path)
        kwargs = dict(
            n_samples=30, cache=cache, rng=np.random.default_rng(0)
        )
        monte_carlo_win_probability(nominal, emb, op, **kwargs)
        with obs.enabled_scope():
            kwargs["rng"] = np.random.default_rng(0)
            monte_carlo_win_probability(nominal, emb, op, **kwargs)
        (top,) = [
            r
            for r in obs.get_tracer().spans
            if r.name == "mc.win_probability"
        ]
        assert top.args.get("cache") == "hit"


class TestArtifactPipelineInstrumentation:
    CONFIG = PipelineConfig(seed=0, mc_samples=30)
    SUBSET = ["fig2c", "monte_carlo_map"]

    def test_spans_and_manifest_metrics(self, clean_obs, tmp_path):
        with obs.enabled_scope():
            manifest = run_artifact_pipeline(
                tmp_path, config=self.CONFIG, artifacts=self.SUBSET
            )
        spans = obs.get_tracer().spans
        names = {r.name for r in spans}
        assert "artifacts.pipeline" in names
        for artifact in self.SUBSET:
            assert f"artifact.{artifact}" in names
        # The manifest carries the metrics snapshot when obs is on ...
        assert manifest["metrics"]["counters"]["artifacts.built"] == 2
        hist = manifest["metrics"]["histograms"]["artifacts.build_seconds"]
        assert hist["count"] == 2

    def test_metrics_key_absent_when_disabled(self, clean_obs, tmp_path):
        manifest = run_artifact_pipeline(
            tmp_path, config=self.CONFIG, artifacts=["fig2c"]
        )
        assert "metrics" not in manifest

    def test_timing_strip_removes_obs_fields(self, clean_obs, tmp_path):
        cache = SweepCache(root=tmp_path / "cache")
        with obs.enabled_scope():
            manifest = run_artifact_pipeline(
                tmp_path / "out",
                config=self.CONFIG,
                artifacts=self.SUBSET,
                sweep_cache=cache,
            )
        stripped = strip_timing_fields(manifest)
        assert "metrics" not in stripped
        assert all(
            "sweep_cache" not in e
            for e in stripped["artifacts"].values()
        )
        # ... so content_hash / determinism checks ignore them.
        assert stripped["content_hash"] == manifest["content_hash"]

    def test_per_artifact_cache_attribution(self, clean_obs, tmp_path):
        cache = SweepCache(root=tmp_path / "cache")
        cold = run_artifact_pipeline(
            tmp_path / "a",
            config=self.CONFIG,
            artifacts=self.SUBSET,
            sweep_cache=cache,
        )
        warm = run_artifact_pipeline(
            tmp_path / "b",
            config=self.CONFIG,
            artifacts=self.SUBSET,
            sweep_cache=cache,
        )
        mc_cold = cold["artifacts"]["monte_carlo_map"]["sweep_cache"]
        mc_warm = warm["artifacts"]["monte_carlo_map"]["sweep_cache"]
        assert mc_cold == {"hits": 0, "misses": 1}
        assert mc_warm == {"hits": 1, "misses": 0}
        # fig2c never touches the sweep cache.
        assert cold["artifacts"]["fig2c"]["sweep_cache"] == {
            "hits": 0, "misses": 0,
        }

    def test_render_manifest_cache_column(self, clean_obs, tmp_path):
        cache = SweepCache(root=tmp_path / "cache")
        manifest = run_artifact_pipeline(
            tmp_path / "out",
            config=self.CONFIG,
            artifacts=self.SUBSET,
            sweep_cache=cache,
        )
        text = render_manifest(manifest)
        assert "cache h/m" in text
        assert "0/1" in text  # the cold monte_carlo_map build
        # Without a cache the column disappears entirely.
        plain = run_artifact_pipeline(
            tmp_path / "plain", config=self.CONFIG, artifacts=["fig2c"]
        )
        assert "cache h/m" not in render_manifest(plain)


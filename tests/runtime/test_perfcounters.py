"""Perf-counter math and rendering (:mod:`repro.obs.perf`)."""

import pytest

from repro.cpu.simulator import ExecutionStats
from repro.obs.perf import RunPerf, render_perf_table, stopwatch


class TestRunPerf:
    def test_rates(self):
        perf = RunPerf(
            name="matmul-int",
            wall_seconds=2.0,
            cycles=20_000_000,
            instructions=14_000_000,
        )
        assert perf.ips == pytest.approx(7_000_000.0)
        assert perf.mips == pytest.approx(7.0)
        assert perf.sim_cycles_per_second == pytest.approx(10_000_000.0)

    def test_zero_wall_is_zero_rate(self):
        perf = RunPerf(name="x", wall_seconds=0.0, cycles=10, instructions=10)
        assert perf.ips == 0.0
        assert perf.mips == 0.0
        assert perf.sim_cycles_per_second == 0.0


class TestExecutionStatsRates:
    """The satellite: ExecutionStats grew ips/mips conveniences."""

    def test_ips_mips(self):
        stats = ExecutionStats(cycles=100, instructions=3_000_000)
        assert stats.ips(2.0) == pytest.approx(1_500_000.0)
        assert stats.mips(2.0) == pytest.approx(1.5)
        assert stats.ips(0.0) == 0.0

    def test_ipc(self):
        stats = ExecutionStats(cycles=200, instructions=100)
        assert stats.ipc == pytest.approx(0.5)
        assert ExecutionStats().ipc == 0.0

    def test_per_mnemonic_is_counter(self):
        stats = ExecutionStats()
        stats.count("adds")
        stats.count("adds")
        stats.count("bl")
        assert stats.per_mnemonic["adds"] == 2
        assert stats.per_mnemonic["bl"] == 1
        assert stats.per_mnemonic["never"] == 0  # Counter semantics


class TestRendering:
    def test_table_contains_rows_and_total(self):
        perfs = [
            RunPerf("matmul-int", 0.5, 1_000_000, 700_000, cached=False),
            RunPerf("crc32", 0.001, 500_000, 400_000, cached=True),
        ]
        text = render_perf_table(perfs)
        assert "matmul-int" in text
        assert "crc32" in text
        assert "cache" in text
        assert "iss" in text
        assert "TOTAL" in text

    def test_stopwatch_advances(self):
        with stopwatch() as timer:
            _ = sum(range(1000))
        assert timer.elapsed >= 0.0


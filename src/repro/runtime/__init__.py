"""Execution-runtime services for the ISS: caching and fan-out.

This package makes repeat studies cheap and large studies fast:

- :mod:`repro.runtime.cache` — persistent content-addressed memoization
  of :class:`~repro.workloads.suite.WorkloadResult` keyed on the
  assembly source, cycle budget, and ISS version tag.
- :mod:`repro.runtime.parallel` — the process-pool fan-out (serial
  fallback, worker spans and counters replayed in the parent) and the
  cached suite runner built on it.
- :mod:`repro.obs.perf` — wall-time / MIPS metering (re-exported here)
  so the speedups stay observable from the CLI.
"""

from repro.runtime.cache import (
    ISS_VERSION,
    SWEEP_VERSION,
    ResultCache,
    SweepCache,
    default_cache_dir,
    run_workload_cached,
)
from repro.runtime.parallel import (
    SuiteRunReport,
    map_parallel,
    run_workloads,
)
from repro.obs.perf import RunPerf, render_perf_table

__all__ = [
    "ISS_VERSION",
    "SWEEP_VERSION",
    "ResultCache",
    "SweepCache",
    "default_cache_dir",
    "run_workload_cached",
    "SuiteRunReport",
    "map_parallel",
    "run_workloads",
    "RunPerf",
    "render_perf_table",
]

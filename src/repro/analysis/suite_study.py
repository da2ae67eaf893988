"""Beyond the paper: the PPAtC comparison across the whole workload suite.

The paper's case study quantifies one workload (matmul-int).  Its
framework, however, is application-dependent by construction — the eDRAM
energy follows the access profile, the core energy follows the activity
factor.  This module runs every Embench-style workload through the same
flow and reports the per-workload carbon-efficiency verdict.

Because both designs run the same binary for the same cycle count, the
tCDP ratio per workload reduces to the tC ratio, driven by how
memory-intensive the workload is: more accesses per cycle widen the M3D
design's energy advantage.

The ISS runs behind the rows go through
:func:`repro.runtime.parallel.run_workloads`: cached results resolve in
the parent, and the misses fan out over ``jobs`` worker processes
through :func:`~repro.runtime.parallel.map_parallel`.  Rows are
identical at any ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.case_study import (
    build_all_si_system,
    build_m3d_system,
)
from repro.core.operational import UsageScenario
from repro.workloads import (
    crc32, edn, fib, matmul_int, primecount, sort, st, ud,
)
from repro.workloads.suite import Workload


def default_study_configs() -> List[Workload]:
    """Reduced-length configurations (access *rates* are length-stable)."""
    return [
        matmul_int.workload(repeats=2, tune=1, pads=0),
        crc32.workload(length=512, repeats=2),
        edn.workload(length=128, taps=16, repeats=2),
        primecount.workload(limit=2048, repeats=2),
        fib.workload(k=48, repeats=16),
        ud.workload(pairs=128, repeats=2),
        st.workload(length=128, repeats=4),
        sort.workload(length=64, repeats=2),
    ]


@dataclass
class WorkloadStudyRow:
    """One workload's PPAtC outcome."""

    name: str
    cycles: int
    cpi: float
    accesses_per_cycle: float
    si_memory_energy_pj: float
    m3d_memory_energy_pj: float
    si_power_mw: float
    m3d_power_mw: float
    tcdp_ratio_m3d_over_si: float
    crossover_months: Optional[float]

    @property
    def m3d_wins(self) -> bool:
        return self.tcdp_ratio_m3d_over_si < 1.0


def run_suite_study(
    lifetime_months: float = 24.0,
    clock_hz: float = 500e6,
    configs: Optional[List[Workload]] = None,
    grid: str = "us",
    jobs: Optional[int] = None,
    cache=None,
) -> List[WorkloadStudyRow]:
    """Run the whole suite through the PPAtC flow at one lifetime.

    ISS runs go through :func:`repro.runtime.parallel.run_workloads`:
    previously-seen workloads resolve from the persistent result cache,
    and cache misses fan out over worker processes.

    Args:
        jobs: ISS worker processes (``None`` auto-sizes to the CPU
            count, ``1`` forces serial).
        cache: A :class:`~repro.runtime.cache.ResultCache`, ``None``
            for the default persistent cache, or ``False`` to disable
            result caching.
    """
    from repro.runtime.parallel import run_workloads

    scenario = UsageScenario(lifetime_months)
    workloads = configs if configs is not None else default_study_configs()
    report = run_workloads(workloads, jobs=jobs, cache=cache)
    rows: List[WorkloadStudyRow] = []
    for workload, result in zip(workloads, report.results):
        profile = result.access_profile()
        si = build_all_si_system(
            clock_hz=clock_hz,
            profile=profile,
            n_cycles=result.cycles,
            scenario=scenario,
            grid=grid,
        )
        m3d = build_m3d_system(
            clock_hz=clock_hz,
            profile=profile,
            n_cycles=result.cycles,
            scenario=scenario,
            grid=grid,
        )
        ratio = m3d.tcdp(lifetime_months) / si.tcdp(lifetime_months)
        rows.append(
            WorkloadStudyRow(
                name=workload.name,
                cycles=result.cycles,
                cpi=result.cpi,
                accesses_per_cycle=profile.accesses_per_cycle,
                si_memory_energy_pj=si.memory_energy_per_cycle_j * 1e12,
                m3d_memory_energy_pj=m3d.memory_energy_per_cycle_j * 1e12,
                si_power_mw=si.operational_power_w * 1e3,
                m3d_power_mw=m3d.operational_power_w * 1e3,
                tcdp_ratio_m3d_over_si=ratio,
                crossover_months=si.total_carbon.crossover_months(
                    m3d.total_carbon
                ),
            )
        )
    return rows


def render_suite_study(rows: List[WorkloadStudyRow]) -> str:
    """Text table of the per-workload study."""
    lines = [
        "SUITE STUDY - PER-WORKLOAD PPAtC (24-month lifetime, US grid)",
        "-" * 96,
        f"{'workload':12s} {'acc/cyc':>8s} {'E_mem si':>9s} {'E_mem 3d':>9s} "
        f"{'P si':>8s} {'P m3d':>8s} {'tCDP ratio':>11s} {'crossover':>10s} "
        f"{'winner':>8s}",
    ]
    for row in rows:
        crossover = (
            f"{row.crossover_months:6.1f} mo"
            if row.crossover_months
            else "    never"
        )
        lines.append(
            f"{row.name:12s} {row.accesses_per_cycle:>8.3f} "
            f"{row.si_memory_energy_pj:>8.1f}p {row.m3d_memory_energy_pj:>8.1f}p "
            f"{row.si_power_mw:>6.2f}mW {row.m3d_power_mw:>6.2f}mW "
            f"{row.tcdp_ratio_m3d_over_si:>11.4f} {crossover:>10s} "
            f"{'M3D' if row.m3d_wins else 'all-Si':>8s}"
        )
    return "\n".join(lines)

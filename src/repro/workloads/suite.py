"""Workload registry and runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import obs
from repro.cpu import CortexM0, MemoryMap, assemble
from repro.cpu.trace import ActivityTrace
from repro.errors import ReproError


@dataclass(frozen=True)
class Workload:
    """A self-checking assembly workload.

    Attributes:
        name: Suite name (e.g. ``"matmul-int"``).
        description: One-line description.
        source: Thumb assembly text.
        expected_checksum: Golden r0 value at halt (from a Python model).
        data_words: Parameter words written (uncounted) at the data
            region base before the run.  Parameterizing a workload
            through data words instead of source text keeps the program
            bytes identical across variants, which is what lets the
            N-lane vector engine run many variants in one pass.
    """

    name: str
    description: str
    source: str
    expected_checksum: int
    data_words: tuple = ()


@dataclass
class WorkloadResult:
    """Outcome of running a workload on the ISS."""

    workload: Workload
    checksum: int
    cycles: int
    instructions: int
    program_reads: int
    data_reads: int
    data_writes: int
    activity_factor: float

    @property
    def correct(self) -> bool:
        return self.checksum == self.workload.expected_checksum

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def access_profile(self):
        """Per-cycle access rates, for the eDRAM energy model."""
        from repro.edram.energy import AccessProfile

        return AccessProfile(
            program_reads_per_cycle=self.program_reads / self.cycles,
            data_reads_per_cycle=self.data_reads / self.cycles,
            data_writes_per_cycle=self.data_writes / self.cycles,
        )


def run_workload(
    workload: Workload,
    max_cycles: int = 500_000_000,
    engine: str = "auto",
) -> WorkloadResult:
    """Assemble, execute, and verify a workload.

    Args:
        engine: ISS engine selection passed to
            :meth:`~repro.cpu.simulator.CortexM0.run` (``"auto"``,
            ``"superblock"``, ``"legacy"``).  The engines are
            bit-identical.
    """
    program = assemble(workload.source)
    trace = ActivityTrace()
    cpu = CortexM0(MemoryMap.embedded_system(), trace=trace)
    cpu.load_program(program)
    if workload.data_words:
        data_base = cpu.memory.region("data").base
        for i, word in enumerate(workload.data_words):
            cpu.memory.write(
                data_base + 4 * i, word & 0xFFFFFFFF, 4, count=False
            )
    with obs.span("iss.run", workload=workload.name, engine=engine) as sp:
        stats = cpu.run(max_cycles=max_cycles, engine=engine)
        sp.set(cycles=stats.cycles, instructions=stats.instructions)
    counters = cpu.memory.access_counts()
    metrics = obs.get_metrics()
    if metrics.enabled:
        # Post-run aggregation from the simulator's own tallies: the
        # execute loop is never instrumented, so tracing-off overhead
        # stays a single flag check.
        metrics.counter("iss.runs").inc()
        metrics.counter("iss.instructions").inc(stats.instructions)
        metrics.counter("iss.cycles").inc(stats.cycles)
        for mnemonic, count in stats.per_mnemonic.items():
            metrics.counter(f"iss.mix.{mnemonic}").inc(count)
        fast = cpu.fast_engine
        if fast is not None:
            metrics.counter("iss.fastpath.fallback_steps").inc(
                fast.fallback_steps
            )
            metrics.counter("iss.fastpath.invalidations").inc(
                fast.invalidations
            )
            # Block-cache health of the superblock translator: execs
            # are cache hits (a translated block ran), translations
            # are misses that compiled a new block.
            metrics.counter("iss.superblock.blocks_translated").inc(
                fast.blocks_translated
            )
            metrics.counter("iss.superblock.block_execs").inc(
                fast.block_execs
            )
            metrics.counter("iss.superblock.block_steps").inc(
                fast.block_steps
            )
    result = WorkloadResult(
        workload=workload,
        checksum=cpu.regs.read(0),
        cycles=stats.cycles,
        instructions=stats.instructions,
        program_reads=counters["program"].reads,
        data_reads=counters["data"].reads,
        data_writes=counters["data"].writes,
        activity_factor=trace.activity_factor(),
    )
    if not result.correct:
        raise ReproError(
            f"workload {workload.name!r} failed self-check: "
            f"got {result.checksum:#010x}, expected "
            f"{workload.expected_checksum:#010x}"
        )
    return result


def all_workloads() -> Dict[str, Workload]:
    """All registered workloads, keyed by name."""
    from repro.workloads import (
        crc32, edn, fib, matmul_int, primecount, sort, st, ud,
    )

    loads = [
        matmul_int.workload(),
        crc32.workload(),
        edn.workload(),
        primecount.workload(),
        fib.workload(),
        ud.workload(),
        st.workload(),
        sort.workload(),
    ]
    return {w.name: w for w in loads}


def get_workload(name: str) -> Workload:
    """Look up one registered workload by name (raises on unknown names)."""
    loads = all_workloads()
    if name not in loads:
        raise ReproError(
            f"unknown workload {name!r}; available: {sorted(loads)}"
        )
    return loads[name]

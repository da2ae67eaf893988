"""Cycle-accurate ARM Cortex-M0 substrate.

The paper's design flow (Sec. III-B) uses RTL simulation of the Cortex-M0
to (a) count clock cycles per application, (b) count memory accesses and
retention requirements, and (c) extract switching activity for power
analysis.  This package provides (a), the access counts of (b), and (c)
from scratch:

- :mod:`registers` — the ARMv6-M architectural state (R0-R15, APSR);
- :mod:`isa` — Thumb instruction semantics and M0 cycle timings;
- :mod:`assembler` — a two-pass Thumb assembler (labels, .word, .space);
- :mod:`memory` — the memory map with per-region access counters;
- :mod:`simulator` — the instruction-set simulator;
- :mod:`trace` — VCD-style activity statistics for power analysis.
"""

from repro.cpu.assembler import Assembler, assemble
from repro.cpu.memory import MemoryMap, MemoryRegion
from repro.cpu.registers import RegisterFile
from repro.cpu.simulator import CortexM0, ExecutionStats
from repro.cpu.trace import ActivityTrace

__all__ = [
    "Assembler",
    "assemble",
    "MemoryMap",
    "MemoryRegion",
    "RegisterFile",
    "CortexM0",
    "ExecutionStats",
    "ActivityTrace",
]

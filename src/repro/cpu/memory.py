"""Memory map with per-region access counting.

The embedded system has two 64 kB memories (program and data, Sec. III-B
step 1).  The simulator counts reads and writes per region — exactly what
the paper extracts from .vcd waveforms to drive the eDRAM energy model —
and records written-address lifetimes for retention analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MemoryAccessError

_MASK32 = 0xFFFFFFFF


@dataclass
class AccessCounters:
    """Read/write tallies for one region."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class MemoryRegion:
    """A contiguous byte-addressable region."""

    def __init__(self, name: str, base: int, size: int) -> None:
        if size <= 0:
            raise MemoryAccessError(f"{name}: size must be positive")
        if base % 4:
            raise MemoryAccessError(f"{name}: base must be word-aligned")
        self.name = name
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.counters = AccessCounters()
        #: Bumped on every mutation (stores and bulk loads).  The fast
        #: execution engine snapshots it to detect self-modifying code.
        self.version = 0

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    @property
    def end(self) -> int:
        return self.base + self.size


class MemoryMap:
    """A set of non-overlapping regions with bounds-checked access.

    An optional :class:`~repro.cpu.retention_analysis.AccessRecorder`
    can be attached (``memory.recorder = ...``); it then receives every
    counted access for write-to-read retention analysis.
    """

    def __init__(self) -> None:
        self._regions: List[MemoryRegion] = []
        self.recorder = None
        self._last_region: Optional[MemoryRegion] = None

    def add_region(self, name: str, base: int, size: int) -> MemoryRegion:
        region = MemoryRegion(name, base, size)
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise MemoryAccessError(
                    f"region {name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        return region

    @classmethod
    def embedded_system(
        cls, program_kb: int = 64, data_kb: int = 64
    ) -> "MemoryMap":
        """The case-study map: 64 kB program + 64 kB data (Sec. III-B).

        Program memory at 0x0000_0000 (the M0 vector-table region), data
        memory at the Cortex-M SRAM base 0x2000_0000.
        """
        memory = cls()
        memory.add_region("program", 0x0000_0000, program_kb * 1024)
        memory.add_region("data", 0x2000_0000, data_kb * 1024)
        return memory

    def region(self, name: str) -> MemoryRegion:
        for region in self._regions:
            if region.name == name:
                return region
        raise MemoryAccessError(f"no region named {name!r}")

    @property
    def regions(self) -> Tuple[MemoryRegion, ...]:
        return tuple(self._regions)

    def _find(self, address: int, size: int) -> MemoryRegion:
        address &= _MASK32
        # Fast path: consecutive accesses overwhelmingly hit the same
        # region, so retry the last hit before scanning the region list.
        region = self._last_region
        if region is not None and region.contains(address):
            if address + size > region.end:
                raise MemoryAccessError(
                    f"access at {address:#010x} size {size} spills out "
                    f"of region {region.name!r}"
                )
            return region
        for region in self._regions:
            if region.contains(address):
                if address + size > region.end:
                    raise MemoryAccessError(
                        f"access at {address:#010x} size {size} spills out "
                        f"of region {region.name!r}"
                    )
                self._last_region = region
                return region
        raise MemoryAccessError(f"unmapped address {address:#010x}")

    # -- typed access (little-endian) -------------------------------------
    def read(self, address: int, size: int, count: bool = True) -> int:
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"bad access size {size}")
        if address % size:
            raise MemoryAccessError(
                f"misaligned {size}-byte read at {address:#010x}"
            )
        region = self._find(address, size)
        offset = address - region.base
        value = int.from_bytes(
            region.data[offset : offset + size], "little"
        )
        if count:
            region.counters.reads += 1
            if self.recorder is not None:
                self.recorder.record(region.name, address, size, False)
        return value

    def write(self, address: int, value: int, size: int, count: bool = True) -> None:
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"bad access size {size}")
        if address % size:
            raise MemoryAccessError(
                f"misaligned {size}-byte write at {address:#010x}"
            )
        region = self._find(address, size)
        offset = address - region.base
        region.data[offset : offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )
        region.version += 1
        if count:
            region.counters.writes += 1
            if self.recorder is not None:
                self.recorder.record(region.name, address, size, True)

    # -- bulk (initialization; not counted) ----------------------------------
    def load_bytes(self, address: int, payload: bytes) -> None:
        region = self._find(address, max(len(payload), 1))
        offset = address - region.base
        region.data[offset : offset + len(payload)] = payload
        region.version += 1

    def read_bytes(self, address: int, length: int) -> bytes:
        region = self._find(address, max(length, 1))
        offset = address - region.base
        return bytes(region.data[offset : offset + length])

    def access_counts(self) -> Dict[str, AccessCounters]:
        return {r.name: r.counters for r in self._regions}

    def reset_counters(self) -> None:
        for region in self._regions:
            # Reset in place: the superblock engine holds references
            # to the counter objects.
            region.counters.reads = 0
            region.counters.writes = 0

"""N-lane lockstep vector execution over the superblock translator.

Executes N instances of one program ("lanes") in a single interpreter
pass.  Lane-uniform state stays in plain Python ints — exactly the
representation the scalar superblock engine uses — and only values that
actually differ across lanes are promoted to ``(N,)`` NumPy arrays.
NumPy broadcasting then type-dispatches every generated operation with
no codegen specialization: ``res = (a + b) & 0xFFFFFFFF`` works
identically for two ints, an int and an array, or two arrays.

Design points (mirroring the vectorized-drive idiom from the Monte
Carlo layer, generalized to architectural state):

* **Registers / flags** live in the template CPU's ``RegisterFile``;
  each slot holds an int (uniform) or an ``(N,)`` int64 array.  int64
  keeps 32-bit wraparound exact: products wrap mod 2**64 and masking
  with ``0xFFFFFFFF`` recovers the correct low 32 bits.
* **Memory** is one shared uniform image (the template CPU's data
  region bytearray) plus a sparse overlay ``{word offset -> (N,)
  array}`` for lane-varying words.  Uniform accesses run at scalar
  speed; varying word loads are one dict lookup.
* **Toggle accounting** stays scalar for uniform writes; lane-varying
  XOR patterns are journaled into a preallocated ``(CAP, N)`` buffer
  and popcounted in bulk through a 16-bit lookup table.
* **Divergence** at a fused conditional branch retires lanes whose
  exit lands on a BKPT (their architectural results are snapshotted);
  any other divergence — or any operation the vector fast paths do not
  cover — raises :class:`VectorBailout`, and :func:`run_lanes` re-runs
  every lane through the scalar superblock engine, so results are
  always produced and always bit-exact.

With ``lanes=1`` no state is ever lane-varying, so execution follows
the exact scalar arithmetic and counting discipline of the superblock
engine — the property the N=1 differential tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cpu.memory import MemoryMap
from repro.cpu.simulator import CortexM0
from repro.cpu.superblock import (
    _COND_EXPR, B_CYC, B_EXECS, B_FN, B_GUARD, SuperblockEngine,
)
from repro.cpu.trace import _DATAPATH_AMPLIFICATION, _STATE_BITS, ActivityTrace
from repro.errors import ExecutionError, ReproError

#: Journal rows buffered between bulk popcount flushes.
_JOURNAL_CAP = 8192

_LUT16: Optional[np.ndarray] = None


def _popcount_lut() -> np.ndarray:
    """16-bit popcount table, built lazily (vectorized bit trick)."""
    global _LUT16
    if _LUT16 is None:
        v = np.arange(65536, dtype=np.uint32)
        v = v - ((v >> 1) & 0x55555555)
        v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
        v = (v + (v >> 4)) & 0x0F0F0F0F
        _LUT16 = ((v * 0x01010101) >> 24).astype(np.uint8)
    return _LUT16


class VectorBailout(Exception):
    """The run left the vector fast paths; re-run lanes scalar."""


class _Divergence:
    """Active lanes disagree on a fused conditional branch outcome."""

    __slots__ = ("cond", "taken_pc", "next_pc")

    def __init__(self, cond, taken_pc: int, next_pc: int) -> None:
        self.cond = cond
        self.taken_pc = taken_pc
        self.next_pc = next_pc


@dataclass
class LaneOutcome:
    """Architectural results of one lane, as the scalar ISS reports them."""

    checksum: int
    cycles: int
    instructions: int
    taken_branches: int
    loads: int
    stores: int
    program_reads: int
    data_reads: int
    data_writes: int
    register_writes: int
    register_toggles: int
    per_mnemonic: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    def activity_factor(self) -> float:
        """Same estimate :class:`ActivityTrace.activity_factor` yields."""
        if self.cycles == 0:
            return 0.0
        raw = (
            self.register_toggles
            / self.cycles
            / _STATE_BITS
            * _DATAPATH_AMPLIFICATION
        )
        return min(raw, 1.0)


@dataclass
class VectorRunResult:
    """All lanes' outcomes plus how the run was executed."""

    lanes: List[LaneOutcome]
    vectorized: bool
    lanes_retired: int
    bailouts: int
    bail_reason: Optional[str] = None

    @property
    def total_instructions(self) -> int:
        return sum(l.instructions for l in self.lanes)


class VectorEngine(SuperblockEngine):
    """Superblock engine whose state may be ``(N,)`` arrays per lane.

    The translator and block codegen are inherited; ``_vector = True``
    switches emission to the array-safe forms (helper-based memory
    access, branch tails deferred to :meth:`_vec_branch`).
    """

    _vector = True

    def __init__(self, cpu, lanes: int) -> None:
        if lanes < 1:
            raise ReproError(f"lanes must be >= 1, got {lanes}")
        self.lanes = lanes
        self._vary: Dict[int, np.ndarray] = {}
        # Toggle journals: XOR patterns (``_jx``) and old/new value
        # pairs (``_jo``/``_jn``, XORed in bulk at flush).  Plain list
        # appends of array references — no copies on the hot path.
        self._jx: List[np.ndarray] = []
        self._jo: List[np.ndarray] = []
        self._jn: List[np.ndarray] = []
        self._tacc = np.zeros(lanes, dtype=np.int64)
        self._active = np.ones(lanes, dtype=bool)
        self._snapshots: List[Optional[LaneOutcome]] = [None] * lanes
        self.lanes_retired = 0
        super().__init__(cpu)
        self._toggle_hash, self._toggle_hash2 = self._make_toggle_closures()
        env = {"R": cpu.regs}
        self._cond_scalar = [eval(f"lambda: {e}", env) for e in _COND_EXPR]

    # ------------------------------------------------------------------
    # Lane state
    # ------------------------------------------------------------------
    def init_lanes(self, lane_words: Sequence[Sequence[int]]) -> None:
        """Write per-lane parameter words at the data region base.

        Word ``i`` of each lane lands at ``data_base + 4 * i``,
        uncounted (pre-run initialization, like program loading).
        Columns whose value is identical across lanes stay in the
        uniform image; differing columns go to the varying overlay.
        """
        if len(lane_words) != self.lanes:
            raise ReproError(
                f"expected {self.lanes} lane word tuples, "
                f"got {len(lane_words)}"
            )
        widths = {len(w) for w in lane_words}
        if len(widths) > 1:
            raise ReproError("lane data tuples must have equal lengths")
        u_bytes = self.data.data
        for i, column in enumerate(zip(*lane_words)):
            offset = 4 * i
            if offset + 4 > len(u_bytes):
                raise ReproError("lane data exceeds the data region")
            first = column[0] & 0xFFFFFFFF
            if all((w & 0xFFFFFFFF) == first for w in column):
                u_bytes[offset:offset + 4] = first.to_bytes(4, "little")
            else:
                self._vary[offset] = np.array(
                    [w & 0xFFFFFFFF for w in column], dtype=np.int64
                )

    @staticmethod
    def _lane_value(value, lane: int) -> int:
        return value if type(value) is int else int(value[lane])

    # ------------------------------------------------------------------
    # Vector memory helpers (bound into every generated block)
    # ------------------------------------------------------------------
    def _make_mem_helpers(self, mem, prog, data):
        """Scalar-address fast paths over shared + overlay memory.

        Anything outside them — varying addresses, misalignment,
        program-region stores, unmapped accesses, sub-word access to a
        varying word — raises :class:`VectorBailout`; the scalar re-run
        then reproduces the exact architectural behavior (including the
        exact :class:`ExecutionError`) per lane.
        """
        prog_base, prog_end = prog.base, prog.end
        prog_data, prog_counters = prog.data, prog.counters
        data_base, data_end = data.base, data.end
        u_bytes, counters = data.data, data.counters
        vary = self._vary
        vget = vary.get
        from_bytes = int.from_bytes

        def read32(a):
            if type(a) is int:
                if data_base <= a and a + 4 <= data_end and not a & 3:
                    counters.reads += 1
                    o = a - data_base
                    w = vget(o)
                    if w is not None:
                        return w
                    return from_bytes(u_bytes[o:o + 4], "little")
                if prog_base <= a and a + 4 <= prog_end and not a & 3:
                    prog_counters.reads += 1
                    o = a - prog_base
                    return from_bytes(prog_data[o:o + 4], "little")
            raise VectorBailout("read32 outside the vector fast path")

        def read16(a):
            if type(a) is int:
                if data_base <= a and a + 2 <= data_end and not a & 1:
                    o = a - data_base
                    if o & ~3 in vary:
                        raise VectorBailout(
                            "halfword read from a varying word"
                        )
                    counters.reads += 1
                    return from_bytes(u_bytes[o:o + 2], "little")
                if prog_base <= a and a + 2 <= prog_end and not a & 1:
                    prog_counters.reads += 1
                    o = a - prog_base
                    return from_bytes(prog_data[o:o + 2], "little")
            raise VectorBailout("read16 outside the vector fast path")

        def read8(a):
            if type(a) is int:
                if data_base <= a < data_end:
                    o = a - data_base
                    if o & ~3 in vary:
                        raise VectorBailout("byte read from a varying word")
                    counters.reads += 1
                    return u_bytes[o]
                if prog_base <= a < prog_end:
                    prog_counters.reads += 1
                    return prog_data[a - prog_base]
            raise VectorBailout("read8 outside the vector fast path")

        def write32(a, v):
            if (
                type(a) is int
                and data_base <= a
                and a + 4 <= data_end
                and not a & 3
            ):
                counters.writes += 1
                o = a - data_base
                if type(v) is int:
                    if o in vary:
                        del vary[o]
                    u_bytes[o:o + 4] = v.to_bytes(4, "little")
                else:
                    vary[o] = v
                return
            raise VectorBailout("write32 outside the vector fast path")

        def write16(a, v):
            if (
                type(a) is int
                and type(v) is int
                and data_base <= a
                and a + 2 <= data_end
                and not a & 1
            ):
                o = a - data_base
                if o & ~3 in vary:
                    raise VectorBailout("halfword write to a varying word")
                counters.writes += 1
                u_bytes[o:o + 2] = (v & 0xFFFF).to_bytes(2, "little")
                return
            raise VectorBailout("write16 outside the vector fast path")

        def write8(a, v):
            if (
                type(a) is int
                and type(v) is int
                and data_base <= a < data_end
            ):
                o = a - data_base
                if o & ~3 in vary:
                    raise VectorBailout("byte write to a varying word")
                counters.writes += 1
                u_bytes[o] = v & 0xFF
                return
            raise VectorBailout("write8 outside the vector fast path")

        return read32, read16, read8, write32, write16, write8

    # ------------------------------------------------------------------
    # Toggle journal
    # ------------------------------------------------------------------
    def _make_toggle_closures(self):
        """Build the ``H``/``H2`` bindings for generated vector blocks.

        ``H(x)``: a ready XOR pattern.  Uniform (int) patterns popcount
        immediately, keeping ``tg`` scalar; lane-varying arrays are
        journaled by reference and contribute 0 to the scalar part.
        Journaled arrays are safe to hold — generated code never
        mutates an array in place, it only rebinds.

        ``H2(a, b)``: a register write's (old, new) value pair.
        Array/array pairs skip the per-write XOR entirely — both
        references are journaled and the XOR runs in bulk at flush.
        Closures over the journal lists keep the per-call cost at two
        type checks plus C-level list appends.
        """
        jx, jo, jn = self._jx, self._jo, self._jn
        jx_append, jo_append, jn_append = jx.append, jo.append, jn.append
        flush = self._flush_journal

        def H(x):
            if type(x) is int:
                return x.bit_count()
            jx_append(x)
            if len(jx) >= _JOURNAL_CAP:
                flush()
            return 0

        def H2(a, b):
            if type(a) is int:
                if type(b) is int:
                    return (a ^ b).bit_count()
            elif type(b) is not int:
                jo_append(a)
                jn_append(b)
                if len(jo) >= _JOURNAL_CAP:
                    flush()
                return 0
            jx_append(a ^ b)
            if len(jx) >= _JOURNAL_CAP:
                flush()
            return 0

        return H, H2

    def _popcount_into_tacc(self, a: np.ndarray) -> None:
        lut = _popcount_lut()
        t = lut[a & 0xFFFF] + lut[(a >> 16) & 0xFFFF]
        self._tacc += t.sum(axis=0, dtype=np.int64)

    def _flush_journal(self) -> None:
        # np.array() on a list of equal-length arrays builds the 2-D
        # batch ~3x faster than np.stack (no per-array view dance).
        jo, jn, jx = self._jo, self._jn, self._jx
        if jo:
            a = np.array(jo)
            a ^= np.array(jn)
            jo.clear()
            jn.clear()
            self._popcount_into_tacc(a)
        if jx:
            a = np.array(jx)
            jx.clear()
            self._popcount_into_tacc(a)

    # ------------------------------------------------------------------
    # Branch resolution
    # ------------------------------------------------------------------
    def _vec_branch(self, cond: int, taken_pc: int, next_pc: int):
        """Resolve a fused conditional branch across lanes.

        Returns the extra cycles beyond the not-taken base (the block
        return-value protocol) when the outcome is lane-uniform, or a
        :class:`_Divergence` for the run loop to retire/bail on.
        """
        try:
            taken = self._cond_scalar[cond]()
            if taken:
                self.cpu.stats.taken_branches += 1
                self.regs_list[15] = taken_pc
                return 2
            self.regs_list[15] = next_pc
            return 0
        except ValueError:
            return self._vec_branch_array(cond, taken_pc, next_pc)

    def _vec_branch_array(self, cond: int, taken_pc: int, next_pc: int):
        R = self.cpu.regs
        n, z, c, v = R.n, R.z, R.c, R.v
        if cond == 0x0:
            r = z
        elif cond == 0x1:
            r = np.logical_not(z)
        elif cond == 0x2:
            r = c
        elif cond == 0x3:
            r = np.logical_not(c)
        elif cond == 0x4:
            r = n
        elif cond == 0x5:
            r = np.logical_not(n)
        elif cond == 0x6:
            r = v
        elif cond == 0x7:
            r = np.logical_not(v)
        elif cond == 0x8:
            r = np.logical_and(c, np.logical_not(z))
        elif cond == 0x9:
            r = np.logical_or(np.logical_not(c), z)
        elif cond == 0xA:
            r = np.equal(n, v)
        elif cond == 0xB:
            r = np.not_equal(n, v)
        elif cond == 0xC:
            r = np.logical_and(np.logical_not(z), np.equal(n, v))
        else:  # 0xD LE
            r = np.logical_or(z, np.not_equal(n, v))
        arr = np.broadcast_to(np.asarray(r, dtype=bool), (self.lanes,))
        sel = arr[self._active]
        if sel.all():
            self.cpu.stats.taken_branches += 1
            self.regs_list[15] = taken_pc
            return 2
        if not sel.any():
            self.regs_list[15] = next_pc
            return 0
        return _Divergence(np.array(arr), taken_pc, next_pc)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _retire(
        self,
        mask: np.ndarray,
        extra_cycles: int,
        extra_taken: int,
        via_bkpt: bool = True,
    ) -> None:
        """Snapshot lanes in ``mask`` as architecturally complete.

        ``via_bkpt`` lanes exited a diverging branch straight into a
        BKPT the shared run never executes, so the BKPT's own fetch,
        cycle, instruction, and mnemonic counts are added here.
        """
        self._flush_journal()
        stats = self.cpu.stats
        tr = self.cpu.trace if self.cpu.trace is not None else self._null_trace
        regs = self.regs_list
        pm = dict(stats.per_mnemonic)
        bump = 0
        if via_bkpt:
            pm["bkpt"] = pm.get("bkpt", 0) + 1
            bump = 1
        for lane in np.nonzero(mask)[0]:
            lane = int(lane)
            self._snapshots[lane] = LaneOutcome(
                checksum=self._lane_value(regs[0], lane),
                cycles=stats.cycles + extra_cycles,
                instructions=stats.instructions + bump,
                taken_branches=stats.taken_branches + extra_taken,
                loads=stats.loads,
                stores=stats.stores,
                program_reads=self.prog.counters.reads + bump,
                data_reads=self.data.counters.reads,
                data_writes=self.data.counters.writes,
                register_writes=tr.register_writes,
                register_toggles=(
                    tr.register_toggles + int(self._tacc[lane])
                ),
                per_mnemonic=dict(pm),
            )
            self.lanes_retired += 1

    def _diverge(self, d: _Divergence) -> bool:
        """Handle a divergent branch; returns False when no lane remains.

        A diverging side whose target instruction is a BKPT retires its
        lanes; if both sides continue running real code the lockstep
        model cannot follow them and the run bails out.
        """
        mem = self.cpu.memory
        act = self._active
        taken = d.cond & act
        not_taken = ~d.cond & act

        def lands_on_bkpt(pc: int) -> bool:
            try:
                insn = mem.read(pc, 2, count=False)
            except Exception:
                return False
            return (insn & 0xFF00) == 0xBE00

        t_done = lands_on_bkpt(d.taken_pc)
        n_done = lands_on_bkpt(d.next_pc)
        if not t_done and not n_done:
            raise VectorBailout(
                f"lanes diverged at branch {d.taken_pc:#06x}/"
                f"{d.next_pc:#06x}"
            )
        if t_done:
            # Taken lanes: +2 branch cycles, +1 BKPT cycle.
            self._retire(taken, 3, 1)
            self._active = self._active & ~taken
        if n_done:
            # Fall-through lanes: +0 branch, +1 BKPT cycle.
            self._retire(not_taken, 1, 0)
            self._active = self._active & ~not_taken
        if not self._active.any():
            return False
        stats = self.cpu.stats
        if t_done:
            # Survivors fall through.
            self.regs_list[15] = d.next_pc
        else:
            # Survivors took the branch.
            stats.taken_branches += 1
            stats.cycles += 2
            if self.cpu.trace is not None:
                self.cpu.trace.cycles += 2
            self.regs_list[15] = d.taken_pc
        return True

    @staticmethod
    def _lane_pc(value) -> int:
        """A computed branch target, which must be lane-uniform."""
        if type(value) is int:
            return value
        raise VectorBailout("branch target varies across lanes")

    # ------------------------------------------------------------------
    # Run loop (the superblock loop plus divergence handling)
    # ------------------------------------------------------------------
    def run(self, max_cycles: int):
        """The superblock loop, with no legacy-step fallback: where the
        scalar engine would step, the lanes bail out to scalar runs."""
        cpu = self.cpu
        if self._decoded_version != self.prog.version:
            self.invalidate()
        stats = cpu.stats
        regs = self.regs_list
        bget = self.blocks.get
        translate = self._translate
        trace = cpu.trace
        cycles = stats.cycles
        base_cycles = cycles
        trace_base = trace.cycles if trace is not None else 0
        try:
            while True:
                if cycles >= max_cycles:
                    raise ExecutionError(
                        f"cycle limit {max_cycles} exceeded at "
                        f"pc={regs[15]:#010x}"
                    )
                pc = regs[15]
                b = bget(pc)
                if b is None:
                    b = translate(pc)
                if not b or cycles + b[B_GUARD] >= max_cycles:
                    raise VectorBailout(
                        f"pc {pc:#010x} needs the legacy step"
                    )
                extra = b[B_FN]()
                if type(extra) is int:
                    b[B_EXECS] += 1
                    cycles += b[B_CYC] + extra
                    continue
                if extra is None:
                    # No SMC checks are emitted in vector mode, so the
                    # only early exit is a BKPT.
                    if not cpu.halted:
                        raise VectorBailout("unexpected block early exit")
                    cycles = self._merge_partial(cycles)
                    break
                # Divergence: the block body and branch base are
                # fully executed; sync every tally so retirement
                # snapshots see exact architectural state.
                b[B_EXECS] += 1
                cycles += b[B_CYC]
                self._flush_blocks()
                stats.cycles = cycles
                if trace is not None:
                    trace.cycles = trace_base + (cycles - base_cycles)
                if not self._diverge(extra):
                    return stats  # every lane retired
                cycles = stats.cycles
        finally:
            cycles = self._merge_partial(cycles)
            self._flush_blocks()
            stats.cycles = cycles
            if trace is not None:
                trace.cycles = trace_base + (cycles - base_cycles)
        # Uniform halt: every still-active lane finished here with the
        # shared (already fully counted) statistics.
        self._retire(self._active.copy(), 0, 0, via_bkpt=False)
        self._active[:] = False
        return stats

    def snapshots(self) -> List[LaneOutcome]:
        out = [s for s in self._snapshots if s is not None]
        if len(out) != self.lanes:
            raise ReproError("not every lane retired")
        return out


# ----------------------------------------------------------------------
# Public driver
# ----------------------------------------------------------------------
def run_lanes(
    source: str,
    lane_words: Optional[Sequence[Sequence[int]]] = None,
    lanes: Optional[int] = None,
    max_cycles: int = 500_000_000,
) -> VectorRunResult:
    """Execute N lanes of one program, vectorized when possible.

    Args:
        source: Thumb assembly text shared by every lane.
        lane_words: Per-lane parameter words written (uncounted) at the
            data region base before the run; lane count is
            ``len(lane_words)``.  ``None`` runs ``lanes`` identical
            instances.
        lanes: Lane count when ``lane_words`` is ``None``.
        max_cycles: Per-lane cycle budget.

    Returns:
        A :class:`VectorRunResult`.  If any lane leaves the vector fast
        paths the entire run transparently falls back to per-lane
        scalar superblock execution (``vectorized=False``), so results
        are always complete and always bit-exact.
    """
    from repro import obs
    from repro.cpu.assembler import assemble

    if lane_words is not None:
        n = len(lane_words)
        if lanes is not None and lanes != n:
            raise ReproError(
                f"lanes={lanes} disagrees with {n} lane_words entries"
            )
    elif lanes is not None:
        n = lanes
    else:
        raise ReproError("provide lane_words or lanes")
    if n < 1:
        raise ReproError(f"lanes must be >= 1, got {n}")

    program = assemble(source)
    trace = ActivityTrace()
    cpu = CortexM0(MemoryMap.embedded_system(), trace=trace)
    cpu.load_program(program)
    engine = VectorEngine(cpu, n)
    if lane_words is not None:
        engine.init_lanes(lane_words)
    with obs.span("iss.vector_run", lanes=n) as sp:
        try:
            engine.run(max_cycles)
            result = VectorRunResult(
                lanes=engine.snapshots(),
                vectorized=True,
                lanes_retired=engine.lanes_retired,
                bailouts=0,
            )
        except Exception as exc:  # bailout or any off-fast-path misuse
            reason = f"{type(exc).__name__}: {exc}"
            outcomes = [
                _scalar_lane(
                    program,
                    lane_words[i] if lane_words is not None else (),
                    max_cycles,
                )
                for i in range(n)
            ]
            result = VectorRunResult(
                lanes=outcomes,
                vectorized=False,
                lanes_retired=0,
                bailouts=1,
                bail_reason=reason,
            )
        sp.set(vectorized=result.vectorized, retired=result.lanes_retired)
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter("iss.vector.lanes").inc(n)
        metrics.counter("iss.vector.lanes_retired").inc(
            result.lanes_retired
        )
        metrics.counter("iss.vector.bailouts").inc(result.bailouts)
    return result


def _scalar_lane(program, words: Sequence[int], max_cycles) -> LaneOutcome:
    """Run one lane through the scalar superblock engine."""
    trace = ActivityTrace()
    cpu = CortexM0(MemoryMap.embedded_system(), trace=trace)
    cpu.load_program(program)
    data = cpu.memory.region("data")
    for i, w in enumerate(words):
        cpu.memory.write(data.base + 4 * i, w & 0xFFFFFFFF, 4, count=False)
    error = None
    try:
        cpu.run(max_cycles=max_cycles, engine="superblock")
    except ExecutionError as exc:
        error = str(exc)
    stats = cpu.stats
    counters = cpu.memory.access_counts()
    return LaneOutcome(
        checksum=cpu.regs.read(0),
        cycles=stats.cycles,
        instructions=stats.instructions,
        taken_branches=stats.taken_branches,
        loads=stats.loads,
        stores=stats.stores,
        program_reads=counters["program"].reads,
        data_reads=counters["data"].reads,
        data_writes=counters["data"].writes,
        register_writes=trace.register_writes,
        register_toggles=trace.register_toggles,
        per_mnemonic=dict(stats.per_mnemonic),
        error=error,
    )

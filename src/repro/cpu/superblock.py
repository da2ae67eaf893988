"""Superblock-translating execution engine for the Cortex-M0 ISS.

The legacy :meth:`~repro.cpu.simulator.CortexM0.step` re-decodes every
instruction on every execution.  Programs live in program memory that
only changes through counted stores, so this engine decodes each run of
instructions once and *translates* it into a single exec-compiled Python
function ("superblock"), executed as one call per block.  A block is a
straight-line run of up to ``_MAX_BLOCK`` instructions ending at a
terminator — B, B<cond>, BL, BX/BLX, an ADD/MOV that writes PC,
``POP {..., pc}``, or BKPT — or just before an encoding the legacy
decoder always faults on.  A block may be a single instruction.

- **Batched constant accounting.**  Every instruction has a constant
  base cycle count, load/store count, mnemonic, and register-write
  count, so a block's totals are compile-time constants.  The run loop
  bumps one per-block execution counter; cycles accumulate in a loop
  local; per-mnemonic counts, fetches, loads/stores, and
  ``register_writes`` flush as ``constant * executions`` at run exit.
  A terminating conditional branch returns its extra taken cycles.
- **Flag liveness.**  Within a block, N/Z/C/V stores are emitted only
  when a later reader (ADC/SBC, a potentially faulting memory access,
  or the block exit) can observe them — dead flag writes cost nothing.
- **Register caching.**  Architectural registers live in Python locals
  for the duration of a block and are written back at every exit.

Bit-identity with the legacy engine is preserved exactly, including the
awkward cases:

- **Faults mid-block** (misaligned/unmapped accesses): the generated
  code tracks the active fault site ``_i`` — one per memory
  instruction, plus one per later word of a multi-word PUSH/POP/LDM/STM
  — and, on any exception, restores registers, sets ``regs[15]`` to the
  faulting pc, and stashes a precomputed partial-progress tuple
  (instructions, cycles, loads, stores, register writes, per-mnemonic
  counts of the completed prefix and of the words the faulting
  instruction completed, including its mnemonic exactly when the legacy
  decoder counts it before the access) that ``run()`` merges before
  re-raising.
- **Self-modifying code**: stores that reach the program region
  invalidate the block cache (block granularity: every translated
  block drops).  The generated code checks the cache generation after
  every slow-path store and, when it changed, exits the block early
  with the same partial-progress protocol so the remaining
  instructions re-translate from the patched bytes.
- **The legacy step as the fallback**: a PC outside the program region,
  an always-faulting encoding (undefined, BL prefix without suffix),
  and a block the cycle budget does not cover run one
  :meth:`~repro.cpu.simulator.CortexM0.step` at a time.  A block only
  runs when the budget covers every pre-instruction check the legacy
  loop would make (``cycles + guard < max_cycles``, ``guard`` being the
  cycles before the block's last instruction), so the legacy step
  raises the identical ``cycle limit N exceeded`` error at the
  identical instruction.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ExecutionError

_MASK32 = 0xFFFFFFFF

#: Register-write toggle pattern, rewritten in vector blocks to the
#: pair-journaling form ``H2(old, new)`` so the XOR happens in bulk at
#: journal-flush time instead of as one NumPy op per write.
_VEC_TOGGLE_RE = re.compile(r"tg \+= H\((r\d+) \^ v\)")

#: Block cache slots (plain lists for dispatch speed).
(
    B_FN, B_CYC, B_GUARD, B_EXECS, B_K, B_LD, B_ST, B_WR, B_PM, B_TB,
    B_FETCH,
) = range(11)

#: Maximum instructions fused into one block.
_MAX_BLOCK = 48

_ALL_FLAGS = frozenset("nzcv")
_NZ = frozenset("nz")
_NZC = frozenset("nzc")

#: Condition-code expressions over the live APSR, indexed by condition
#: (0..13; 0xE is undefined and 0xF is SVC).
_COND_EXPR = (
    "R.z", "not R.z", "R.c", "not R.c", "R.n", "not R.n", "R.v",
    "not R.v", "R.c and not R.z", "(not R.c) or R.z", "R.n == R.v",
    "R.n != R.v", "(not R.z) and R.n == R.v", "R.z or R.n != R.v",
)

#: Tails of terminators that compute their target into ``npc``; vector
#: blocks first check that the target is the same in every lane.
_NPC_TAIL = ["regs[15] = npc", "return 0"]
_NPC_VEC_TAIL = ["regs[15] = eng._lane_pc(npc)", "return 0"]


class _NullTrace:
    """Toggle sink used when no ActivityTrace is attached."""

    __slots__ = ("register_writes", "register_toggles")

    def __init__(self) -> None:
        self.register_writes = 0
        self.register_toggles = 0


class _Insn:
    """One classified instruction: its constants and codegen recipe.

    ``gen(i, mat, ctx)`` returns the lines that run inside the block's
    fault handler.  A block terminator also has ``tail``: lines that run
    after the register write-back, set ``regs[15]``, and return the
    cycles beyond ``cycles`` (2 for a taken conditional branch, else 0),
    or ``None`` after a BKPT halted the core.  ``vec_tail`` is the tail
    for N-lane blocks, ``taken`` the constant ``taken_branches``
    increment, and ``fetches`` the counted program fetches (BL: 2).
    """

    __slots__ = (
        "pc", "mnem", "cycles", "loads", "stores", "writes",
        "fw", "fkill", "fr", "faultable", "pm_on_fault",
        "reads_regs", "writes_regs", "gen",
        "tail", "vec_tail", "taken", "fetches",
    )

    def __init__(
        self,
        pc: int,
        mnem: str,
        cycles: int,
        gen: Callable[..., List[str]],
        loads: int = 0,
        stores: int = 0,
        writes: int = 0,
        fw: frozenset = frozenset(),
        fkill: Optional[frozenset] = None,
        fr: frozenset = frozenset(),
        faultable: bool = False,
        pm_on_fault: bool = False,
        reads_regs: Tuple[int, ...] = (),
        writes_regs: Tuple[int, ...] = (),
        tail: Optional[List[str]] = None,
        vec_tail: Optional[List[str]] = None,
        taken: int = 0,
        fetches: int = 1,
    ) -> None:
        self.pc = pc
        self.mnem = mnem
        self.cycles = cycles
        self.loads = loads
        self.stores = stores
        self.writes = writes
        self.fw = fw
        # Flags *unconditionally* overwritten (kill set for liveness);
        # shift-by-register ops write C only when the shift is nonzero.
        self.fkill = fw if fkill is None else fkill
        self.fr = fr
        self.faultable = faultable
        self.pm_on_fault = pm_on_fault
        self.reads_regs = reads_regs
        self.writes_regs = writes_regs
        self.gen = gen
        self.tail = tail
        self.vec_tail = vec_tail if vec_tail is not None else tail
        self.taken = taken
        self.fetches = fetches


def _no_code(i, mat, ctx) -> List[str]:
    return []


class SuperblockEngine:
    """Per-CPU cache of translated blocks, keyed by start address."""

    # Flipped by the N-lane vector subclass: switches block codegen to
    # array-safe emission (helper-based memory, deferred branch tails).
    _vector = False

    # The ``H`` binding in generated blocks; the vector subclass swaps
    # in a polymorphic popcount that journals lane-varying patterns.
    _toggle_hash = staticmethod(int.bit_count)

    # The ``H2`` binding (pair-journaled toggles).  Scalar blocks never
    # emit an H2 call, so the placeholder is never invoked.
    _toggle_hash2: Any = None

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        mem = cpu.memory
        self.prog = mem.region("program")
        self.data = mem.region("data")
        self.regs_list = cpu.regs._regs
        self.blocks: Dict[int, Any] = {}
        self._generation = 0
        self._partial: Optional[tuple] = None
        self._decoded_version = self.prog.version
        self._null_trace = _NullTrace()
        self._mem_helpers = self._make_mem_helpers(mem, self.prog, self.data)
        # Engine-health tallies, bumped only at cold points (fallback
        # steps, invalidations, flushes) and mirrored into the
        # observability counters by the workload runner.
        self.fallback_steps = 0
        self.invalidations = 0
        self.blocks_translated = 0
        self.block_execs = 0
        self.block_steps = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Program memory changed: fold the tallies, drop every block."""
        self._flush_blocks()
        self.blocks.clear()
        self._generation += 1
        self._decoded_version = self.prog.version
        self.invalidations += 1

    # ------------------------------------------------------------------
    def _make_mem_helpers(self, mem, prog, data):
        """Region-resolved data access closures shared by all blocks.

        The clean in-bounds aligned case skips the per-access region
        scan; everything else (misalignment, spills, unmapped addresses,
        program-region stores) delegates to the legacy
        :meth:`MemoryMap.read`/:meth:`MemoryMap.write`, which raises the
        identical errors and keeps the identical counting discipline.
        """
        prog_base, prog_end = prog.base, prog.end
        prog_data, prog_counters = prog.data, prog.counters
        data_base, data_end = data.base, data.end
        data_bytes, data_counters = data.data, data.counters
        mem_read = mem.read
        mem_write = mem.write
        invalidate = self.invalidate
        from_bytes = int.from_bytes

        def read32(a):
            if data_base <= a and a + 4 <= data_end and not a & 3:
                data_counters.reads += 1
                o = a - data_base
                return from_bytes(data_bytes[o:o + 4], "little")
            if prog_base <= a and a + 4 <= prog_end and not a & 3:
                prog_counters.reads += 1
                o = a - prog_base
                return from_bytes(prog_data[o:o + 4], "little")
            return mem_read(a, 4)

        def read16(a):
            if data_base <= a and a + 2 <= data_end and not a & 1:
                data_counters.reads += 1
                o = a - data_base
                return from_bytes(data_bytes[o:o + 2], "little")
            if prog_base <= a and a + 2 <= prog_end and not a & 1:
                prog_counters.reads += 1
                o = a - prog_base
                return from_bytes(prog_data[o:o + 2], "little")
            return mem_read(a, 2)

        def read8(a):
            if data_base <= a < data_end:
                data_counters.reads += 1
                return data_bytes[a - data_base]
            if prog_base <= a < prog_end:
                prog_counters.reads += 1
                return prog_data[a - prog_base]
            return mem_read(a, 1)

        def write32(a, v):
            if data_base <= a and a + 4 <= data_end and not a & 3:
                data_counters.writes += 1
                o = a - data_base
                data_bytes[o:o + 4] = (v & 0xFFFFFFFF).to_bytes(4, "little")
                return
            mem_write(a, v, 4)
            if prog_base <= a < prog_end:
                invalidate()

        def write16(a, v):
            if data_base <= a and a + 2 <= data_end and not a & 1:
                data_counters.writes += 1
                o = a - data_base
                data_bytes[o:o + 2] = (v & 0xFFFF).to_bytes(2, "little")
                return
            mem_write(a, v, 2)
            if prog_base <= a < prog_end:
                invalidate()

        def write8(a, v):
            if data_base <= a < data_end:
                data_counters.writes += 1
                data_bytes[a - data_base] = v & 0xFF
                return
            mem_write(a, v, 1)
            if prog_base <= a < prog_end:
                invalidate()

        return read32, read16, read8, write32, write16, write8

    # ------------------------------------------------------------------
    def _flush_blocks(self) -> None:
        """Fold batched per-block tallies into the architectural stats."""
        stats = self.cpu.stats
        pm = stats.per_mnemonic
        tr = self.cpu.trace if self.cpu.trace is not None else self._null_trace
        prog_reads = 0
        for b in self.blocks.values():
            if b and b[B_EXECS]:
                e = b[B_EXECS]
                b[B_EXECS] = 0
                k = e * b[B_K]
                prog_reads += e * b[B_FETCH]
                stats.instructions += k
                stats.loads += e * b[B_LD]
                stats.stores += e * b[B_ST]
                tr.register_writes += e * b[B_WR]
                stats.taken_branches += e * b[B_TB]
                for m, c in b[B_PM]:
                    pm[m] += c * e
                self.block_execs += e
                self.block_steps += k
        if prog_reads:
            self.prog.counters.reads += prog_reads

    def _merge_partial(self, cycles: int) -> int:
        """Fold a block's partial-progress tuple; returns new cycles."""
        p = self._partial
        if p is None:
            return cycles
        self._partial = None
        k, cyc, ld, stc, wr, pmi = p
        stats = self.cpu.stats
        self.prog.counters.reads += k
        stats.instructions += k
        stats.loads += ld
        stats.stores += stc
        tr = self.cpu.trace if self.cpu.trace is not None else self._null_trace
        tr.register_writes += wr
        pm = stats.per_mnemonic
        for m, c in pmi:
            pm[m] += c
        self.block_steps += k
        return cycles + cyc

    # ------------------------------------------------------------------
    def run(self, max_cycles: int):
        """Run until BKPT or the cycle limit; returns the shared stats."""
        cpu = self.cpu
        if self._decoded_version != self.prog.version:
            self.invalidate()
        stats = cpu.stats
        if cpu.halted:
            return stats
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
                if b and cycles + b[B_GUARD] < max_cycles:
                    extra = b[B_FN]()
                    if extra is not None:
                        # Normal exit: ``extra`` is the terminating
                        # branch's cycles beyond its base.
                        b[B_EXECS] += 1
                        cycles += b[B_CYC] + extra
                        continue
                    # Early exit: a store invalidated the block cache,
                    # or a BKPT halted; the block stashed its progress.
                    cycles = self._merge_partial(cycles)
                    if cpu.halted:
                        break
                    continue
                # No block (PC outside the program region, an
                # always-faulting encoding) or the cycle budget ends
                # inside the block: one legacy step, which decodes,
                # counts, and raises identically.
                stats.cycles = cycles
                if trace is not None:
                    trace.cycles = trace_base + (cycles - base_cycles)
                cpu.step()
                self.fallback_steps += 1
                cycles = stats.cycles
                if cpu.halted:
                    break
        finally:
            cycles = self._merge_partial(cycles)
            self._flush_blocks()
            stats.cycles = cycles
            if trace is not None:
                trace.cycles = trace_base + (cycles - base_cycles)
        return stats

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _translate(self, start: int):
        """Classify the run at ``start`` and compile it.

        Returns the block list, or ``False`` (cached) when ``start`` is
        outside the program region or holds an always-faulting encoding.
        """
        mem = self.cpu.memory
        prog_base, prog_end = self.prog.base, self.prog.end
        insns: List[_Insn] = []
        pc = start
        while (
            len(insns) < _MAX_BLOCK
            and prog_base <= pc
            and pc + 2 <= prog_end
            and not pc & 1
        ):
            d = self._classify(pc, mem.read(pc, 2, count=False))
            if d is None:
                break
            insns.append(d)
            if d.tail is not None:
                break
            pc += 2
        if not insns:
            self.blocks[start] = False
            return False
        block = self._compile(start, insns)
        self.blocks[start] = block
        self.blocks_translated += 1
        return block

    # ------------------------------------------------------------------
    def _compile(self, start: int, insns: List[_Insn]):
        """Generate, exec, and wrap the fused handler for one block."""
        n = len(insns)
        # Backward flag liveness: a flag store is emitted only when a
        # later reader may observe it.  Memory instructions read all
        # four (a fault freezes architectural state mid-block), and the
        # block exit is conservatively a full read.
        live: Set[str] = set(_ALL_FLAGS)
        mats: List[Set[str]] = [set()] * n
        for i in range(n - 1, -1, -1):
            d = insns[i]
            reads = set(d.fr) | (_ALL_FLAGS if d.faultable else frozenset())
            mats[i] = set(d.fw) & live
            live = (live - set(d.fkill)) | reads

        # Prefix tables for fault / self-modifying-code / halt exits.
        cyc_prefix = [0] * (n + 1)
        ld_prefix = [0] * (n + 1)
        st_prefix = [0] * (n + 1)
        wr_prefix = [0] * (n + 1)
        pm_prefix: List[Counter] = [Counter()]
        for i, d in enumerate(insns):
            cyc_prefix[i + 1] = cyc_prefix[i] + d.cycles
            ld_prefix[i + 1] = ld_prefix[i] + d.loads
            st_prefix[i + 1] = st_prefix[i] + d.stores
            wr_prefix[i + 1] = wr_prefix[i] + d.writes
            nxt = Counter(pm_prefix[i])
            nxt[d.mnem] += 1
            pm_prefix.append(nxt)

        def progress(i: int, done: bool, ld=0, stc=0, wr=0) -> tuple:
            # Instructions 0..i fetched; 0..i-1 (all of 0..i when
            # ``done``) completed, plus the loads / stores / register
            # writes instruction i counted before faulting.
            j = i + 1 if done else i
            pm = Counter(pm_prefix[j])
            if not done and insns[i].pm_on_fault:
                pm[insns[i].mnem] += 1
            return (
                i + 1, cyc_prefix[j], ld_prefix[j] + ld, st_prefix[j] + stc,
                wr_prefix[j] + wr, tuple(pm.items()),
            )

        # Fault sites: FLT[i] / PCS[i] for instruction i; multi-word
        # instructions append one site per later word (``ctx.site``).
        pcs = [d.pc for d in insns]
        flt = [progress(i, False) for i in range(n)]
        smc = tuple(progress(i, True) for i in range(n))

        cached = sorted(
            {r for d in insns for r in d.reads_regs}
            | {r for d in insns for r in d.writes_regs}
        )
        written = sorted({r for d in insns for r in d.writes_regs})
        wb = "; ".join(f"regs[{r}] = r{r}" for r in written) or "pass"

        lines: List[str] = []
        lines.append(
            "def _block(regs=regs, R=R, tr=tr, H=H, H2=H2,"
        )
        lines.append(
            "           from_bytes=from_bytes,"
        )
        lines.append(
            "           data_bytes=data_bytes, data_counters=data_counters,"
        )
        lines.append(
            "           read32=read32, read16=read16, read8=read8,"
        )
        lines.append(
            "           write32=write32, write16=write16, write8=write8):"
        )
        lines.append("    tg = 0")
        lines.append("    _i = 0")
        for r in cached:
            lines.append(f"    r{r} = regs[{r}]")
        lines.append("    try:")
        ctx = _GenCtx(self, wb, self._vector, pcs, flt, progress)
        body: List[str] = []
        for i, d in enumerate(insns):
            body.append(f"# {d.pc:#06x} {d.mnem}")
            body.extend(d.gen(i, mats[i], ctx))
        if self._vector:
            body = [
                _VEC_TOGGLE_RE.sub(r"tg += H2(\1, v)", ln) for ln in body
            ]
        if all(ln.startswith("#") for ln in body):
            body.append("pass")  # e.g. an all-NOP block emits no code
        for ln in body:
            lines.append("        " + ln)
        lines.append("    except Exception:")
        lines.append(f"        {wb}")
        lines.append("        regs[15] = PCS[_i]")
        lines.append("        tr.register_toggles += tg")
        lines.append("        eng._partial = FLT[_i]")
        lines.append("        raise")
        lines.append(f"    {wb}")
        lines.append("    tr.register_toggles += tg")
        last = insns[-1]
        if last.tail is None:
            tail = [f"regs[15] = {last.pc + 2}", "return 0"]
        else:
            tail = last.vec_tail if self._vector else last.tail
        for ln in tail:
            lines.append("    " + ln)

        tr = self.cpu.trace if self.cpu.trace is not None else self._null_trace
        r32, r16, r8, w32, w16, w8 = self._mem_helpers
        ns: Dict[str, Any] = {
            "regs": self.regs_list,
            "R": self.cpu.regs,
            "tr": tr,
            "H": self._toggle_hash,
            "H2": self._toggle_hash2,
            "from_bytes": int.from_bytes,
            "data_bytes": self.data.data,
            "data_counters": self.data.counters,
            "read32": r32, "read16": r16, "read8": r8,
            "write32": w32, "write16": w16, "write8": w8,
            "eng": self,
            "cpu": self.cpu,
            "st": self.cpu.stats,
            "PCS": tuple(pcs),
            "FLT": tuple(flt),
            "SMC": smc,
            "DONE": smc[-1],
        }
        src = "\n".join(lines)
        exec(compile(src, f"<superblock@{start:#06x}>", "exec"), ns)
        fn = ns["_block"]
        pm_total = pm_prefix[n]
        return [
            fn, cyc_prefix[n], cyc_prefix[n - 1], 0, n,
            ld_prefix[n], st_prefix[n], wr_prefix[n],
            tuple(pm_total.items()), sum(d.taken for d in insns),
            sum(d.fetches for d in insns),
        ]

    # ------------------------------------------------------------------
    # Classification: one instruction -> codegen recipe.  The encodings
    # are tested in CortexM0.step()'s order, so each halfword decodes
    # the same way in both; ``None`` marks an encoding the legacy
    # decoder always faults on, which ends the block.
    # ------------------------------------------------------------------
    def _classify(self, pc: int, insn: int) -> Optional[_Insn]:  # noqa: C901
        db = self.data.base
        de = self.data.end
        top5 = insn >> 11

        if (insn & 0xF800) == 0xF000:
            return self._c_bl(pc, insn)

        if top5 in (0b00000, 0b00001, 0b00010):
            return self._c_shift_imm(pc, insn)

        if top5 == 0b00011:
            return self._c_add_sub_fmt2(pc, insn)

        if (insn >> 13) == 0b001:
            return self._c_imm8_ops(pc, insn)

        if (insn & 0xFC00) == 0x4000:
            return self._c_alu_fmt4(pc, insn)

        if (insn & 0xFC00) == 0x4400:
            return self._c_hi_ops(pc, insn)

        if (insn & 0xF800) == 0x4800:  # LDR literal
            rd = (insn >> 8) & 0x7
            address = ((pc + 4) & ~3) + (insn & 0xFF) * 4

            def g_lit(i, mat, ctx, rd=rd, address=address):
                return [
                    f"_i = {i}",
                    f"v = read32({address})",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "ldr", 2, g_lit, loads=1, writes=1, faultable=True,
                writes_regs=(rd,),
            )

        if (insn & 0xF000) == 0x5000:
            return self._c_ldr_str_reg(pc, insn, db, de)

        if (insn & 0xE000) == 0x6000:
            return self._c_ldr_str_imm(pc, insn, db, de)

        if (insn & 0xF000) == 0x8000:
            return self._c_ldrh_strh_imm(pc, insn)

        if (insn & 0xF000) == 0x9000:
            return self._c_ldr_str_sp(pc, insn, db, de)

        if (insn & 0xF000) == 0xA000:  # ADD rd, SP/PC, #imm
            use_sp = bool(insn & (1 << 11))
            rd = (insn >> 8) & 0x7
            imm = (insn & 0xFF) * 4
            if use_sp:
                def g_addsp(i, mat, ctx, rd=rd, imm=imm):
                    return [
                        f"v = (r13 + {imm}) & 0xFFFFFFFF",
                        f"tg += H(r{rd} ^ v); r{rd} = v",
                    ]
                return _Insn(
                    pc, "add", 1, g_addsp, writes=1,
                    reads_regs=(13,), writes_regs=(rd,),
                )
            const = (((pc + 4) & ~3) + imm) & _MASK32

            def g_addpc(i, mat, ctx, rd=rd, const=const):
                return [f"tg += H(r{rd} ^ {const}); r{rd} = {const}"]
            return _Insn(pc, "add", 1, g_addpc, writes=1, writes_regs=(rd,))

        if (insn & 0xFF00) == 0xB000:  # ADD/SUB SP, #imm
            magnitude = (insn & 0x7F) * 4
            if insn & 0x80:
                magnitude = -magnitude
            mnem = "add sp" if magnitude >= 0 else "sub sp"

            def g_adjsp(i, mat, ctx, magnitude=magnitude):
                # No trace write: the legacy path writes SP directly.
                return [f"r13 = (r13 + {magnitude}) & 0xFFFFFFFF"]
            return _Insn(
                pc, mnem, 1, g_adjsp, reads_regs=(13,), writes_regs=(13,),
            )

        if (insn & 0xFF00) == 0xB200:
            return self._c_extend(pc, insn)

        if (insn & 0xFF00) == 0xBA00:
            return self._c_rev(pc, insn)

        if (insn & 0xF600) == 0xB400:
            return self._c_push_pop(pc, insn)

        if (insn & 0xFF00) == 0xBE00:  # BKPT: halt, PC stays put
            return _Insn(
                pc, "bkpt", 1, _no_code,
                tail=[
                    "cpu.halted = True",
                    f"regs[15] = {pc}",
                    "eng._partial = DONE",
                    "return None",
                ],
            )

        if (insn & 0xFFFF) == 0xBF00:  # NOP
            return _Insn(pc, "nop", 1, _no_code)

        if (insn & 0xF000) == 0xC000:
            return self._c_ldm_stm(pc, insn)

        if (insn & 0xFF00) == 0xDF00:  # SVC
            return _Insn(pc, "svc", 1, _no_code)

        if (insn & 0xF000) == 0xD000:
            return self._c_bcond(pc, insn)

        if (insn & 0xF800) == 0xE000:  # B
            offset = insn & 0x7FF
            if offset & 0x400:
                offset -= 0x800
            target = (pc + 4 + (offset << 1)) & _MASK32
            return _Insn(
                pc, "b", 3, _no_code,
                tail=[f"regs[15] = {target}", "return 0"], taken=1,
            )

        return None  # undefined

    # -- flag helpers --------------------------------------------------
    @staticmethod
    def _nz(mat: Set[str], val: str = "v") -> List[str]:
        out = []
        if "n" in mat:
            out.append(f"R.n = {val} >= 0x80000000")
        if "z" in mat:
            out.append(f"R.z = {val} == 0")
        return out

    @staticmethod
    def _addsub_flags(
        mat: Set[str], a: str, b_sig: str, cin: str
    ) -> List[str]:
        """C/V stores for the inlined ``_adc`` pattern.

        ``b_sig`` is the *signed* expression for the second operand (a
        constant string for immediates); ``cin`` is "0" or "1" or a
        local name.  The caller has computed ``res = a + b + cin`` and
        must emit these lines immediately after, before masking.
        """
        out = []
        if "c" in mat:
            out.append("R.c = res > 0xFFFFFFFF")
        if "v" in mat:
            out.append(
                f"sa = ({a} & 0x7FFFFFFF) - ({a} & 0x80000000)"
            )
            out.append(f"sr = sa + {b_sig} + {cin}")
            out.append(
                "R.v = (sr < -2147483648) | (2147483647 < sr)"
            )
        return out

    # -- per-format classifiers ----------------------------------------
    def _c_shift_imm(self, pc: int, insn: int) -> _Insn:
        top5 = insn >> 11
        op = top5 & 0x3
        imm5 = (insn >> 6) & 0x1F
        rm = (insn >> 3) & 0x7
        rd = insn & 0x7
        if op == 0 and imm5 == 0:  # MOVS (register): C unchanged
            def g(i, mat, ctx, rm=rm, rd=rd):
                out = [f"v = r{rm}"]
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
            return _Insn(
                pc, "movs", 1, g, writes=1, fw=_NZ,
                reads_regs=(rm,), writes_regs=(rd,),
            )
        if op == 0:  # LSL imm
            def g(i, mat, ctx, rm=rm, rd=rd, imm5=imm5):
                out = [f"a = r{rm}"]
                if "c" in mat:
                    out.append(f"R.c = (a >> {32 - imm5}) & 1 != 0")
                out.append(f"v = (a << {imm5}) & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
            return _Insn(
                pc, "lsls", 1, g, writes=1, fw=_NZC,
                reads_regs=(rm,), writes_regs=(rd,),
            )
        if op == 1:  # LSR imm (imm5 == 0 means 32)
            shift = imm5 or 32
            if shift < 32:
                def g(i, mat, ctx, rm=rm, rd=rd, shift=shift):
                    out = [f"a = r{rm}"]
                    if "c" in mat:
                        out.append(f"R.c = (a >> {shift - 1}) & 1 != 0")
                    out.append(f"v = a >> {shift}")
                    out += self._nz(mat)
                    out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                    return out
            else:
                def g(i, mat, ctx, rm=rm, rd=rd):
                    out = [f"a = r{rm}"]
                    if "c" in mat:
                        out.append("R.c = a >> 31 != 0")
                    if "n" in mat:
                        out.append("R.n = False")
                    if "z" in mat:
                        out.append("R.z = True")
                    out.append(f"tg += H(r{rd}); r{rd} = 0")
                    return out
            return _Insn(
                pc, "lsrs", 1, g, writes=1, fw=_NZC,
                reads_regs=(rm,), writes_regs=(rd,),
            )
        # ASR imm (imm5 == 0 means 32)
        shift = imm5 or 32
        if shift < 32:
            def g(i, mat, ctx, rm=rm, rd=rd, shift=shift):
                out = [
                    f"a = r{rm}",
                    "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)",
                ]
                if "c" in mat:
                    out.append(f"R.c = (sa >> {shift - 1}) & 1 != 0")
                out.append(f"v = (sa >> {shift}) & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
        else:
            def g(i, mat, ctx, rm=rm, rd=rd):
                out = [
                    f"a = r{rm}",
                    "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)",
                ]
                if "c" in mat:
                    out.append("R.c = (sa >> 31) & 1 != 0")
                out.append("v = ((sa >> 63) & 1) * 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
        return _Insn(
            pc, "asrs", 1, g, writes=1, fw=_NZC,
            reads_regs=(rm,), writes_regs=(rd,),
        )

    def _c_add_sub_fmt2(self, pc: int, insn: int) -> _Insn:
        immediate = bool(insn & (1 << 10))
        sub = bool(insn & (1 << 9))
        operand = (insn >> 6) & 0x7
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        mnem = "subs" if sub else "adds"
        if immediate:
            if sub:
                nb = (~operand) & _MASK32
                snb = nb - 0x100000000

                def g(i, mat, ctx, rn=rn, rd=rd, nb=nb, snb=snb):
                    out = [f"a = r{rn}", f"res = a + {nb} + 1"]
                    out += self._addsub_flags(mat, "a", str(snb), "1")
                    out.append("v = res & 0xFFFFFFFF")
                    out += self._nz(mat)
                    out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                    return out
            else:
                def g(i, mat, ctx, rn=rn, rd=rd, operand=operand):
                    out = [f"a = r{rn}", f"res = a + {operand}"]
                    out += self._addsub_flags(mat, "a", str(operand), "0")
                    out.append("v = res & 0xFFFFFFFF")
                    out += self._nz(mat)
                    out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                    return out
            return _Insn(
                pc, mnem, 1, g, writes=1, fw=_ALL_FLAGS,
                reads_regs=(rn,), writes_regs=(rd,),
            )
        if sub:
            def g(i, mat, ctx, rn=rn, rd=rd, rm=operand):
                out = [
                    f"a = r{rn}",
                    f"b = (~r{rm}) & 0xFFFFFFFF",
                    "res = a + b + 1",
                ]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                    )
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sa + sb + 1; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
        else:
            def g(i, mat, ctx, rn=rn, rd=rd, rm=operand):
                out = [f"a = r{rn}", f"b = r{rm}", "res = a + b"]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                    )
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sa + sb; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
        return _Insn(
            pc, mnem, 1, g, writes=1, fw=_ALL_FLAGS,
            reads_regs=(rn, operand), writes_regs=(rd,),
        )

    def _c_imm8_ops(self, pc: int, insn: int) -> _Insn:
        op = (insn >> 11) & 0x3
        rd = (insn >> 8) & 0x7
        imm8 = insn & 0xFF
        if op == 0:  # MOVS
            def g(i, mat, ctx, rd=rd, imm8=imm8):
                out = []
                if "n" in mat:
                    out.append("R.n = False")
                if "z" in mat:
                    out.append(f"R.z = {imm8 == 0}")
                out.append(f"tg += H(r{rd} ^ {imm8}); r{rd} = {imm8}")
                return out
            return _Insn(
                pc, "movs", 1, g, writes=1, fw=_NZ, writes_regs=(rd,),
            )
        if op == 1:  # CMP
            nb = (~imm8) & _MASK32
            snb = nb - 0x100000000

            def g(i, mat, ctx, rd=rd, nb=nb, snb=snb):
                out = [f"a = r{rd}", f"res = a + {nb} + 1"]
                out += self._addsub_flags(mat, "a", str(snb), "1")
                if "n" in mat or "z" in mat:
                    out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                return out
            return _Insn(
                pc, "cmp", 1, g, fw=_ALL_FLAGS, reads_regs=(rd,),
            )
        if op == 2:  # ADDS
            def g(i, mat, ctx, rd=rd, imm8=imm8):
                out = [f"a = r{rd}", f"res = a + {imm8}"]
                out += self._addsub_flags(mat, "a", str(imm8), "0")
                out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
                return out
            return _Insn(
                pc, "adds", 1, g, writes=1, fw=_ALL_FLAGS,
                reads_regs=(rd,), writes_regs=(rd,),
            )
        nb = (~imm8) & _MASK32
        snb = nb - 0x100000000

        def g(i, mat, ctx, rd=rd, nb=nb, snb=snb):
            out = [f"a = r{rd}", f"res = a + {nb} + 1"]
            out += self._addsub_flags(mat, "a", str(snb), "1")
            out.append("v = res & 0xFFFFFFFF")
            out += self._nz(mat)
            out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
            return out
        return _Insn(
            pc, "subs", 1, g, writes=1, fw=_ALL_FLAGS,
            reads_regs=(rd,), writes_regs=(rd,),
        )

    def _c_alu_fmt4(self, pc: int, insn: int) -> _Insn:  # noqa: C901
        op = (insn >> 6) & 0xF
        rm = (insn >> 3) & 0x7
        rdn = insn & 0x7

        def bitwise(expr: str, mnem: str) -> _Insn:
            def g(i, mat, ctx, rdn=rdn, expr=expr):
                out = [f"v = {expr}"]
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, mnem, 1, g, writes=1, fw=_NZ,
                reads_regs=(rdn, rm), writes_regs=(rdn,),
            )

        if op == 0x0:
            return bitwise(f"r{rdn} & r{rm}", "ands")
        if op == 0x1:
            return bitwise(f"r{rdn} ^ r{rm}", "eors")
        if op == 0x2:  # LSL (register)
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"a = r{rdn}", f"sh = r{rm} & 0xFF", "v = a"]
                out.append("if sh:")
                if "c" in mat:
                    out.append(
                        "    R.c = sh <= 32 and (a >> (32 - sh)) & 1 != 0"
                    )
                out.append(
                    "    v = (a << sh) & 0xFFFFFFFF if sh < 32 else 0"
                )
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, "lsls", 1, g, writes=1, fw=_NZC, fkill=_NZ,
                reads_regs=(rdn, rm), writes_regs=(rdn,),
            )
        if op == 0x3:  # LSR (register)
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"a = r{rdn}", f"sh = r{rm} & 0xFF", "v = a"]
                out.append("if sh:")
                if "c" in mat:
                    out.append(
                        "    R.c = sh <= 32 and (a >> (sh - 1)) & 1 != 0"
                    )
                out.append("    v = (a >> sh) if sh < 32 else 0")
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, "lsrs", 1, g, writes=1, fw=_NZC, fkill=_NZ,
                reads_regs=(rdn, rm), writes_regs=(rdn,),
            )
        if op == 0x4:  # ASR (register)
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"a = r{rdn}", f"sh = r{rm} & 0xFF", "v = a"]
                out.append("if sh:")
                out.append(
                    "    sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                )
                out.append("    eff = sh if sh < 32 else 32")
                if "c" in mat:
                    out.append("    R.c = (sa >> (eff - 1)) & 1 != 0")
                out.append("    if eff < 32:")
                out.append("        v = (sa >> eff) & 0xFFFFFFFF")
                out.append("    else:")
                out.append("        v = ((sa >> 63) & 1) * 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, "asrs", 1, g, writes=1, fw=_NZC, fkill=_NZ,
                reads_regs=(rdn, rm), writes_regs=(rdn,),
            )
        if op in (0x5, 0x6):  # ADC / SBC
            mnem = "adcs" if op == 0x5 else "sbcs"
            bexpr = f"r{rm}" if op == 0x5 else f"(~r{rm}) & 0xFFFFFFFF"

            def g(i, mat, ctx, rdn=rdn, bexpr=bexpr):
                out = [
                    f"a = r{rdn}",
                    f"b = {bexpr}",
                    "cin = 1 if R.c else 0",
                    "res = a + b + cin",
                ]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                    )
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sa + sb + cin; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, mnem, 1, g, writes=1, fw=_ALL_FLAGS, fr=frozenset("c"),
                reads_regs=(rdn, rm), writes_regs=(rdn,),
            )
        if op == 0x7:  # ROR
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"a = r{rdn}", f"sh = r{rm} & 0xFF", "v = a"]
                out.append("if sh:")
                out.append("    rot = sh % 32")
                out.append("    if rot:")
                out.append(
                    "        v = ((a >> rot) | (a << (32 - rot)))"
                    " & 0xFFFFFFFF"
                )
                if "c" in mat:
                    out.append("    R.c = v >= 0x80000000")
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, "rors", 1, g, writes=1, fw=_NZC, fkill=_NZ,
                reads_regs=(rdn, rm), writes_regs=(rdn,),
            )
        if op == 0x8:  # TST
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"v = r{rdn} & r{rm}"]
                out += self._nz(mat)
                return out
            return _Insn(pc, "tst", 1, g, fw=_NZ, reads_regs=(rdn, rm))
        if op == 0x9:  # RSB (NEG)
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"b = (~r{rm}) & 0xFFFFFFFF", "res = b + 1"]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sb + 1; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
                return out
            return _Insn(
                pc, "rsbs", 1, g, writes=1, fw=_ALL_FLAGS,
                reads_regs=(rm,), writes_regs=(rdn,),
            )
        if op == 0xA:  # CMP
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [
                    f"a = r{rdn}",
                    f"b = (~r{rm}) & 0xFFFFFFFF",
                    "res = a + b + 1",
                ]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                    )
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sa + sb + 1; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                if "n" in mat or "z" in mat:
                    out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                return out
            return _Insn(
                pc, "cmp", 1, g, fw=_ALL_FLAGS, reads_regs=(rdn, rm),
            )
        if op == 0xB:  # CMN
            def g(i, mat, ctx, rdn=rdn, rm=rm):
                out = [f"a = r{rdn}", f"b = r{rm}", "res = a + b"]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                    )
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sa + sb; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                if "n" in mat or "z" in mat:
                    out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                return out
            return _Insn(
                pc, "cmn", 1, g, fw=_ALL_FLAGS, reads_regs=(rdn, rm),
            )
        if op == 0xC:
            return bitwise(f"r{rdn} | r{rm}", "orrs")
        if op == 0xD:  # MUL
            return bitwise(f"(r{rdn} * r{rm}) & 0xFFFFFFFF", "muls")
        if op == 0xE:  # BIC
            return bitwise(f"r{rdn} & ~r{rm} & 0xFFFFFFFF", "bics")
        # MVN
        def g(i, mat, ctx, rdn=rdn, rm=rm):
            out = [f"v = (~r{rm}) & 0xFFFFFFFF"]
            out += self._nz(mat)
            out.append(f"tg += H(r{rdn} ^ v); r{rdn} = v")
            return out
        return _Insn(
            pc, "mvns", 1, g, writes=1, fw=_NZ,
            reads_regs=(rm,), writes_regs=(rdn,),
        )

    def _c_ldr_str_reg(self, pc: int, insn: int, db: int, de: int) -> _Insn:
        op = (insn >> 9) & 0x7
        rm = (insn >> 6) & 0x7
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        addr = f"(r{rn} + r{rm}) & 0xFFFFFFFF"
        names = ["str", "strh", "strb", "ldrsb", "ldr", "ldrh", "ldrb",
                 "ldrsh"]
        mnem = names[op]
        # Legacy counts the mnemonic *before* the access in this format.
        if op == 0:  # STR
            def g(i, mat, ctx, rd=rd, addr=addr, db=db, de=de):
                if ctx.vector:
                    return [f"_i = {i}", f"write32({addr}, r{rd})"]
                return [
                    f"_i = {i}",
                    f"a = {addr}",
                    f"if {db} <= a and a + 4 <= {de} and not a & 3:",
                    "    data_counters.writes += 1",
                    f"    o = a - {db}",
                    f"    data_bytes[o:o + 4] = r{rd}.to_bytes(4, 'little')",
                    "else:",
                    f"    write32(a, r{rd})",
                ] + ctx.genchk(i, indent=1)
            return _Insn(
                pc, "str", 2, g, stores=1, faultable=True, pm_on_fault=True,
                reads_regs=(rn, rm, rd),
            )
        if op in (1, 2):  # STRH / STRB
            helper = "write16" if op == 1 else "write8"

            def g(i, mat, ctx, rd=rd, addr=addr, helper=helper):
                return [
                    f"_i = {i}",
                    f"{helper}({addr}, r{rd})",
                ] + ctx.genchk(i, indent=0)
            return _Insn(
                pc, mnem, 2, g, stores=1, faultable=True, pm_on_fault=True,
                reads_regs=(rn, rm, rd),
            )
        if op == 4:  # LDR — hottest load form, inlined fast case
            def g(i, mat, ctx, rd=rd, addr=addr, db=db, de=de):
                if ctx.vector:
                    return [
                        f"_i = {i}",
                        f"v = read32({addr})",
                        f"tg += H(r{rd} ^ v); r{rd} = v",
                    ]
                return [
                    f"_i = {i}",
                    f"a = {addr}",
                    f"if {db} <= a and a + 4 <= {de} and not a & 3:",
                    "    data_counters.reads += 1",
                    f"    o = a - {db}",
                    "    v = from_bytes(data_bytes[o:o + 4], 'little')",
                    "else:",
                    "    v = read32(a)",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "ldr", 2, g, loads=1, writes=1, faultable=True,
                pm_on_fault=True, reads_regs=(rn, rm), writes_regs=(rd,),
            )
        # LDRSB / LDRH / LDRB / LDRSH
        helper = {3: "read8", 5: "read16", 6: "read8", 7: "read16"}[op]
        sign = {3: (7, "0xFFFFFF00"), 7: (15, "0xFFFF0000")}

        def g(i, mat, ctx, rd=rd, addr=addr, helper=helper,
              ext=sign.get(op)):
            out = [f"_i = {i}", f"v = {helper}({addr})"]
            if ext is not None:
                out.append(f"v |= ((v >> {ext[0]}) & 1) * {ext[1]}")
            out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
            return out
        return _Insn(
            pc, mnem, 2, g, loads=1, writes=1, faultable=True,
            pm_on_fault=True, reads_regs=(rn, rm), writes_regs=(rd,),
        )

    def _c_ldr_str_imm(self, pc: int, insn: int, db: int, de: int) -> _Insn:
        byte = bool(insn & (1 << 12))
        load = bool(insn & (1 << 11))
        imm5 = (insn >> 6) & 0x1F
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        offset = imm5 * (1 if byte else 4)
        addr = f"(r{rn} + {offset}) & 0xFFFFFFFF" if offset else f"r{rn}"
        if load and byte:
            def g(i, mat, ctx, rd=rd, addr=addr):
                return [
                    f"_i = {i}",
                    f"v = read8({addr})",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "ldrb", 2, g, loads=1, writes=1, faultable=True,
                reads_regs=(rn,), writes_regs=(rd,),
            )
        if load:
            def g(i, mat, ctx, rd=rd, addr=addr, db=db, de=de):
                if ctx.vector:
                    return [
                        f"_i = {i}",
                        f"v = read32({addr})",
                        f"tg += H(r{rd} ^ v); r{rd} = v",
                    ]
                return [
                    f"_i = {i}",
                    f"a = {addr}",
                    f"if {db} <= a and a + 4 <= {de} and not a & 3:",
                    "    data_counters.reads += 1",
                    f"    o = a - {db}",
                    "    v = from_bytes(data_bytes[o:o + 4], 'little')",
                    "else:",
                    "    v = read32(a)",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "ldr", 2, g, loads=1, writes=1, faultable=True,
                reads_regs=(rn,), writes_regs=(rd,),
            )
        if byte:
            def g(i, mat, ctx, rd=rd, addr=addr):
                return [
                    f"_i = {i}",
                    f"write8({addr}, r{rd})",
                ] + ctx.genchk(i, indent=0)
            return _Insn(
                pc, "strb", 2, g, stores=1, faultable=True,
                reads_regs=(rn, rd),
            )

        def g(i, mat, ctx, rd=rd, addr=addr, db=db, de=de):
            if ctx.vector:
                return [f"_i = {i}", f"write32({addr}, r{rd})"]
            return [
                f"_i = {i}",
                f"a = {addr}",
                f"if {db} <= a and a + 4 <= {de} and not a & 3:",
                "    data_counters.writes += 1",
                f"    o = a - {db}",
                f"    data_bytes[o:o + 4] = r{rd}.to_bytes(4, 'little')",
                "else:",
                f"    write32(a, r{rd})",
            ] + ctx.genchk(i, indent=1)
        return _Insn(
            pc, "str", 2, g, stores=1, faultable=True, reads_regs=(rn, rd),
        )

    def _c_ldrh_strh_imm(self, pc: int, insn: int) -> _Insn:
        load = bool(insn & (1 << 11))
        offset = ((insn >> 6) & 0x1F) * 2
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        addr = f"(r{rn} + {offset}) & 0xFFFFFFFF" if offset else f"r{rn}"
        if load:
            def g(i, mat, ctx, rd=rd, addr=addr):
                return [
                    f"_i = {i}",
                    f"v = read16({addr})",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "ldrh", 2, g, loads=1, writes=1, faultable=True,
                reads_regs=(rn,), writes_regs=(rd,),
            )

        def g(i, mat, ctx, rd=rd, addr=addr):
            return [
                f"_i = {i}",
                f"write16({addr}, r{rd})",
            ] + ctx.genchk(i, indent=0)
        return _Insn(
            pc, "strh", 2, g, stores=1, faultable=True, reads_regs=(rn, rd),
        )

    def _c_ldr_str_sp(self, pc: int, insn: int, db: int, de: int) -> _Insn:
        load = bool(insn & (1 << 11))
        rd = (insn >> 8) & 0x7
        offset = (insn & 0xFF) * 4
        addr = f"(r13 + {offset}) & 0xFFFFFFFF" if offset else "r13"
        if load:
            def g(i, mat, ctx, rd=rd, addr=addr, db=db, de=de):
                if ctx.vector:
                    return [
                        f"_i = {i}",
                        f"v = read32({addr})",
                        f"tg += H(r{rd} ^ v); r{rd} = v",
                    ]
                return [
                    f"_i = {i}",
                    f"a = {addr}",
                    f"if {db} <= a and a + 4 <= {de} and not a & 3:",
                    "    data_counters.reads += 1",
                    f"    o = a - {db}",
                    "    v = from_bytes(data_bytes[o:o + 4], 'little')",
                    "else:",
                    "    v = read32(a)",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "ldr", 2, g, loads=1, writes=1, faultable=True,
                reads_regs=(13,), writes_regs=(rd,),
            )

        def g(i, mat, ctx, rd=rd, addr=addr, db=db, de=de):
            if ctx.vector:
                return [f"_i = {i}", f"write32({addr}, r{rd})"]
            return [
                f"_i = {i}",
                f"a = {addr}",
                f"if {db} <= a and a + 4 <= {de} and not a & 3:",
                "    data_counters.writes += 1",
                f"    o = a - {db}",
                f"    data_bytes[o:o + 4] = r{rd}.to_bytes(4, 'little')",
                "else:",
                f"    write32(a, r{rd})",
            ] + ctx.genchk(i, indent=1)
        return _Insn(
            pc, "str", 2, g, stores=1, faultable=True, reads_regs=(13, rd),
        )

    def _c_extend(self, pc: int, insn: int) -> _Insn:
        op = (insn >> 6) & 0x3
        rm = (insn >> 3) & 0x7
        rd = insn & 0x7
        mnem = ["sxth", "sxtb", "uxth", "uxtb"][op]

        def g(i, mat, ctx, rd=rd, rm=rm, op=op):
            if op == 0:
                out = [
                    f"v = r{rm} & 0xFFFF",
                    "v |= ((v >> 15) & 1) * 0xFFFF0000",
                ]
            elif op == 1:
                out = [
                    f"v = r{rm} & 0xFF",
                    "v |= ((v >> 7) & 1) * 0xFFFFFF00",
                ]
            elif op == 2:
                out = [f"v = r{rm} & 0xFFFF"]
            else:
                out = [f"v = r{rm} & 0xFF"]
            out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
            return out
        return _Insn(
            pc, mnem, 1, g, writes=1, reads_regs=(rm,), writes_regs=(rd,),
        )

    def _c_rev(self, pc: int, insn: int) -> Optional[_Insn]:
        op = (insn >> 6) & 0x3
        rm = (insn >> 3) & 0x7
        rd = insn & 0x7
        if op == 2:  # undefined REV variant: always faults
            return None

        def g(i, mat, ctx, rd=rd, rm=rm, op=op):
            out = [f"a = r{rm}"]
            if op == 0:
                out.append(
                    "v = ((a & 0xFF) << 24) | ((a & 0xFF00) << 8)"
                    " | ((a >> 8) & 0xFF00) | ((a >> 24) & 0xFF)"
                )
            elif op == 1:
                out.append(
                    "v = ((a & 0xFF) << 8) | ((a >> 8) & 0xFF)"
                    " | ((a & 0xFF0000) << 8) | ((a >> 8) & 0xFF0000)"
                )
            else:  # REVSH
                out.append("v = ((a & 0xFF) << 8) | ((a >> 8) & 0xFF)")
                out.append("v |= ((v >> 15) & 1) * 0xFFFF0000")
            out.append(f"tg += H(r{rd} ^ v); r{rd} = v")
            return out
        return _Insn(
            pc, "rev", 1, g, writes=1, reads_regs=(rm,), writes_regs=(rd,),
        )



    def _c_hi_ops(self, pc: int, insn: int) -> _Insn:
        op = (insn >> 8) & 0x3
        rm = (insn >> 3) & 0xF
        rd = ((insn >> 4) & 0x8) | (insn & 0x7)
        pc4 = (pc + 4) & _MASK32
        # Reading PC yields the instruction address + 4.
        mexpr = str(pc4) if rm == 15 else f"r{rm}"
        mreads = () if rm == 15 else (rm,)
        if op == 0x3:  # BX / BLX: terminator
            blx = bool(insn & 0x80)
            lr = (pc + 2) | 1

            def g(i, mat, ctx, mexpr=mexpr, blx=blx, lr=lr):
                out = [f"npc = {mexpr} & 0xFFFFFFFE"]
                if blx:  # LR after the target read: ``blx lr`` works
                    out.append(f"r14 = {lr}")
                return out
            return _Insn(
                pc, "blx" if blx else "bx", 3, g,
                reads_regs=mreads, writes_regs=(14,) if blx else (),
                tail=_NPC_TAIL, vec_tail=_NPC_VEC_TAIL, taken=1,
            )
        if rd == 15 and op != 0x1:  # ADD/MOV to PC: terminator
            if op == 0x0:
                expr = f"(({pc4} + {mexpr}) & 0xFFFFFFFF) & 0xFFFFFFFE"
            else:
                expr = f"{mexpr} & 0xFFFFFFFE"

            def g(i, mat, ctx, expr=expr):
                return [f"npc = {expr}"]
            return _Insn(
                pc, "add pc" if op == 0x0 else "mov pc", 3, g,
                reads_regs=mreads,
                tail=_NPC_TAIL, vec_tail=_NPC_VEC_TAIL, taken=1,
            )
        if op == 0x0:  # ADD (no flags)
            def g(i, mat, ctx, rd=rd, mexpr=mexpr):
                return [
                    f"v = (r{rd} + {mexpr}) & 0xFFFFFFFF",
                    f"tg += H(r{rd} ^ v); r{rd} = v",
                ]
            return _Insn(
                pc, "add", 1, g, writes=1,
                reads_regs=(rd,) + mreads, writes_regs=(rd,),
            )
        if op == 0x1:  # CMP
            aexpr = str(pc4) if rd == 15 else f"r{rd}"

            def g(i, mat, ctx, aexpr=aexpr, bexpr=mexpr):
                out = [
                    f"a = {aexpr}",
                    f"b = (~{bexpr}) & 0xFFFFFFFF",
                    "res = a + b + 1",
                ]
                if "c" in mat:
                    out.append("R.c = res > 0xFFFFFFFF")
                if "v" in mat:
                    out.append(
                        "sa = (a & 0x7FFFFFFF) - (a & 0x80000000)"
                    )
                    out.append(
                        "sb = (b & 0x7FFFFFFF) - (b & 0x80000000)"
                    )
                    out.append(
                        "sr = sa + sb + 1; R.v = (sr < -2147483648) | (2147483647 < sr)"
                    )
                if "n" in mat or "z" in mat:
                    out.append("v = res & 0xFFFFFFFF")
                out += self._nz(mat)
                return out
            reads = tuple(r for r in (rd, rm) if r != 15)
            return _Insn(pc, "cmp", 1, g, fw=_ALL_FLAGS, reads_regs=reads)

        # MOV (no flags)
        def g(i, mat, ctx, rd=rd, mexpr=mexpr):
            return [f"v = {mexpr}", f"tg += H(r{rd} ^ v); r{rd} = v"]
        return _Insn(
            pc, "mov", 1, g, writes=1, reads_regs=mreads, writes_regs=(rd,),
        )

    # -- control flow and multi-word memory ----------------------------
    def _c_bl(self, pc: int, insn: int) -> Optional[_Insn]:
        if pc + 4 > self.prog.end:
            return None  # the suffix fetch faults
        suffix = self.cpu.memory.read(pc + 2, 2, count=False)
        if (suffix & 0xF800) != 0xF800:
            return None  # BL prefix without suffix
        offset = ((insn & 0x7FF) << 11) | (suffix & 0x7FF)
        if offset & (1 << 21):
            offset -= 1 << 22
        target = (pc + 4 + (offset << 1)) & _MASK32
        lr = (pc + 4) | 1

        def g(i, mat, ctx, lr=lr):
            # No trace write: the legacy path writes LR directly.
            return [f"r14 = {lr}"]
        return _Insn(
            pc, "bl", 4, g, writes_regs=(14,),
            tail=[f"regs[15] = {target}", "return 0"], taken=1, fetches=2,
        )

    def _c_bcond(self, pc: int, insn: int) -> Optional[_Insn]:
        """``bcond`` costs 1 cycle, plus 2 and one ``taken_branches``
        when taken."""
        cond = (insn >> 8) & 0xF
        if cond == 0xE:  # permanently undefined (UDF)
            return None
        offset = insn & 0xFF
        if offset & 0x80:
            offset -= 0x100
        taken_pc = (pc + 4 + (offset << 1)) & _MASK32
        if cond < 8:
            # Single-flag condition: when the flag is a plain bool
            # (lane-uniform), resolve inline; anything else (an array,
            # a NumPy scalar) defers to _vec_branch.
            flag = "zzccnnvv"[cond]
            want = "True" if (cond & 1) == 0 else "False"
            other = "False" if want == "True" else "True"
            vec_tail = [
                f"f_ = R.{flag}",
                f"if f_ is {want}:",
                "    st.taken_branches += 1",
                f"    regs[15] = {taken_pc}",
                "    return 2",
                f"if f_ is {other}:",
                f"    regs[15] = {pc + 2}",
                "    return 0",
                f"return eng._vec_branch({cond}, {taken_pc}, {pc + 2})",
            ]
        else:
            vec_tail = [
                f"return eng._vec_branch({cond}, {taken_pc}, {pc + 2})",
            ]
        return _Insn(
            pc, "bcond", 1, _no_code,
            tail=[
                f"if {_COND_EXPR[cond]}:",
                "    st.taken_branches += 1",
                f"    regs[15] = {taken_pc}",
                "    return 2",
                f"regs[15] = {pc + 2}",
                "return 0",
            ],
            vec_tail=vec_tail,
        )

    def _c_push_pop(self, pc: int, insn: int) -> _Insn:
        """PUSH writes SP before its stores; POP writes SP after its
        loads, and counts its loads and mnemonic only once complete."""
        pop = bool(insn & (1 << 11))
        special = bool(insn & (1 << 8))
        rlist = tuple(r for r in range(8) if insn & (1 << r))
        n = len(rlist) + int(special)
        if not pop:
            stored = rlist + ((14,) if special else ())

            def g(i, mat, ctx, stored=stored, n=n):
                out = [
                    f"_i = {i}",
                    f"a = (r13 - {4 * n}) & 0xFFFFFFFF",
                    "r13 = a",
                ]
                for j, r in enumerate(stored):
                    out.append(f"write32(a + {4 * j}, r{r})")
                return out + ctx.genchk(i, indent=0)
            return _Insn(
                pc, "push", 1 + n, g, stores=n, faultable=True,
                reads_regs=(13,) + stored, writes_regs=(13,),
            )

        def g(i, mat, ctx, n=n):
            out = [f"_i = {i}", "a = r13"]
            for j, r in enumerate(rlist):
                if j:
                    out.append(f"_i = {ctx.site(i, writes=j)}")
                out.append(f"v = read32(a + {4 * j})")
                out.append(f"tg += H(r{r} ^ v); r{r} = v")
            if special:
                if rlist:
                    out.append(f"_i = {ctx.site(i, writes=len(rlist))}")
                out.append(f"npc = read32(a + {4 * len(rlist)}) & 0xFFFFFFFE")
            out.append(f"r13 = (a + {4 * n}) & 0xFFFFFFFF")
            return out
        if special:  # POP {..., pc}: terminator
            return _Insn(
                pc, "pop", 3 + n, g, loads=n, writes=len(rlist),
                faultable=True, reads_regs=(13,), writes_regs=(13,) + rlist,
                tail=_NPC_TAIL, vec_tail=_NPC_VEC_TAIL, taken=1,
            )
        return _Insn(
            pc, "pop", 1 + n, g, loads=n, writes=n, faultable=True,
            reads_regs=(13,), writes_regs=(13,) + rlist,
        )

    def _c_ldm_stm(self, pc: int, insn: int) -> Optional[_Insn]:
        """LDM/STM count each word's load/store as it completes; LDM
        skips the base write-back when it loads the base."""
        load = bool(insn & (1 << 11))
        rn = (insn >> 8) & 0x7
        rlist = tuple(r for r in range(8) if insn & (1 << r))
        if not rlist:
            return None  # always raises "empty register list"
        n = len(rlist)
        if load:
            writeback = rn not in rlist

            def g(i, mat, ctx, rn=rn, writeback=writeback):
                out = [f"_i = {i}", f"a = r{rn}"]
                for j, r in enumerate(rlist):
                    if j:
                        out.append(f"_i = {ctx.site(i, loads=j, writes=j)}")
                    out.append(f"v = read32(a + {4 * j})")
                    out.append(f"tg += H(r{r} ^ v); r{r} = v")
                if writeback:
                    out.append(f"r{rn} = (a + {4 * n}) & 0xFFFFFFFF")
                return out
            return _Insn(
                pc, "ldm", 1 + n, g, loads=n, writes=n, faultable=True,
                reads_regs=(rn,),
                writes_regs=rlist + ((rn,) if writeback else ()),
            )

        def g(i, mat, ctx, rn=rn):
            out = [f"_i = {i}", f"a = r{rn}"]
            for j, r in enumerate(rlist):
                if j:
                    out.append(f"_i = {ctx.site(i, stores=j)}")
                out.append(f"write32(a + {4 * j}, r{r})")
            out.append(f"r{rn} = (a + {4 * n}) & 0xFFFFFFFF")
            return out + ctx.genchk(i, indent=0)
        return _Insn(
            pc, "stm", 1 + n, g, stores=n, faultable=True,
            reads_regs=(rn,) + rlist, writes_regs=(rn,),
        )


class _GenCtx:
    """Shared state handed to instruction generators."""

    def __init__(
        self,
        engine: SuperblockEngine,
        writeback: str,
        vector: bool,
        pcs: List[int],
        flt: List[tuple],
        progress: Callable[..., tuple],
    ) -> None:
        self.engine = engine
        self.writeback = writeback
        self.vector = vector
        self._pcs = pcs
        self._flt = flt
        self._progress = progress

    def site(self, i: int, loads=0, stores=0, writes=0) -> int:
        """A fault site inside multi-word instruction ``i``, after it
        counted ``loads``/``stores``/``writes`` for its earlier words."""
        self._pcs.append(self._pcs[i])
        self._flt.append(self._progress(i, False, loads, stores, writes))
        return len(self._flt) - 1

    def genchk(self, i: int, indent: int) -> List[str]:
        """Post-slow-path-store generation check (self-modifying code).

        Emitted after every store that may have reached the program
        region; when the block cache generation changed, the block
        exits early with the store's effects fully applied.

        Vector lanes cannot self-modify: stores into the program region
        raise inside the vector memory helpers (forcing a scalar
        bailout), so no generation check is emitted.
        """
        if self.vector:
            return []
        pad = "    " * indent
        return [
            pad + f"if eng._generation != {self.engine._generation}:",
            pad + f"    {self.writeback}",
            pad + f"    regs[15] = PCS[{i}] + 2",
            pad + "    tr.register_toggles += tg",
            pad + f"    eng._partial = SMC[{i}]",
            pad + "    return None",
        ]

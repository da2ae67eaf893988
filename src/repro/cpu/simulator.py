"""Cycle-accurate Cortex-M0 instruction-set simulator.

Executes the Thumb encodings produced by :mod:`repro.cpu.assembler` with
the Cortex-M0 cycle timings (single-cycle multiplier configuration):

=====================  ======
instruction            cycles
=====================  ======
data processing        1
loads / stores         2
B / B<cond> taken      3
B<cond> not taken      1
BX / BLX               3
BL                     4
PUSH/POP/LDM/STM       1 + N  (POP with PC: 3 + N)
NOP                    1
=====================  ======

Execution halts at a BKPT instruction.  Memory accesses are tallied by
the :class:`~repro.cpu.memory.MemoryMap` region counters, and register
writes feed the :class:`~repro.cpu.trace.ActivityTrace`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.memory import MemoryMap
from repro.cpu.registers import LR, PC, SP, RegisterFile, condition_passed
from repro.cpu.trace import ActivityTrace
from repro.errors import ExecutionError, ReproError

_MASK32 = 0xFFFFFFFF

#: Execution engine choices accepted by :meth:`CortexM0.run`.
ENGINES = ("auto", "superblock", "legacy")


@dataclass
class ExecutionStats:
    """Cycle and instruction tallies for one run."""

    cycles: int = 0
    instructions: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    per_mnemonic: Counter = field(default_factory=Counter)

    def count(self, mnemonic: str) -> None:
        self.per_mnemonic[mnemonic] += 1

    @property
    def ipc(self) -> float:
        """Instructions per cycle (inverse CPI)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def ips(self, wall_seconds: float) -> float:
        """Simulated instructions per wall-clock second."""
        return self.instructions / wall_seconds if wall_seconds > 0 else 0.0

    def mips(self, wall_seconds: float) -> float:
        """Simulated millions of instructions per wall-clock second."""
        return self.ips(wall_seconds) / 1e6


class CortexM0:
    """The instruction-set simulator."""

    def __init__(
        self,
        memory: Optional[MemoryMap] = None,
        trace: Optional[ActivityTrace] = None,
        recorder=None,
    ) -> None:
        self.memory = memory if memory is not None else MemoryMap.embedded_system()
        self.regs = RegisterFile()
        self.stats = ExecutionStats()
        self.trace = trace
        if recorder is not None:
            self.memory.recorder = recorder
        self.halted = False
        self._fast = None
        # Reset state: SP at the top of the data region, LR poisoned.
        data = self.memory.region("data")
        self.regs.write(SP, data.end)
        self.regs.write(LR, 0xFFFFFFFF)

    # ------------------------------------------------------------------
    def load_program(self, program) -> None:
        """Load an assembled :class:`~repro.cpu.assembler.Program`."""
        self.memory.load_bytes(program.base_address, program.code)
        self.regs.write(PC, program.entry_point)

    @property
    def fast_engine(self):
        """The lazily built superblock engine, or ``None`` if never used.

        Exposes the engine-health tallies (``fallback_steps``,
        ``invalidations``, ``blocks_translated``, ``block_execs``,
        ``block_steps``) without poking the private ``_fast`` slot.
        """
        return self._fast

    def run(
        self, max_cycles: int = 500_000_000, engine: str = "auto"
    ) -> ExecutionStats:
        """Run until BKPT or the cycle limit.

        Args:
            max_cycles: Cycle budget; exceeding it raises
                :class:`~repro.errors.ExecutionError`.
            engine: ``"superblock"`` translates straight-line runs into
                compiled blocks (:mod:`repro.cpu.superblock`), falling
                back to :meth:`step` outside them; ``"legacy"`` calls
                :meth:`step` for every instruction; ``"auto"`` (default)
                picks the superblock engine unless an access recorder is
                attached (the recorder needs per-step cycle stamps).
                Both engines produce bit-identical statistics,
                checksums, traces, and access counters.
        """
        if engine not in ENGINES:
            raise ReproError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "superblock" and self.memory.recorder is not None:
            raise ReproError(
                "the superblock engine does not drive access recorders; "
                "use engine='auto' or 'legacy' with a recorder attached"
            )
        if engine == "auto" and self.memory.recorder is None:
            engine = "superblock"
        if engine == "superblock":
            # Built lazily and kept for the CPU's lifetime (SMC tests
            # re-run on the same engine so its invalidation path is
            # exercised).
            if self._fast is None:
                from repro.cpu.superblock import SuperblockEngine

                self._fast = SuperblockEngine(self)
            return self._fast.run(max_cycles)
        while not self.halted:
            if self.stats.cycles >= max_cycles:
                raise ExecutionError(
                    f"cycle limit {max_cycles} exceeded at "
                    f"pc={self.regs.read_raw_pc():#010x}"
                )
            self.step()
        return self.stats

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Fetch, decode, execute one instruction."""
        if self.memory.recorder is not None:
            self.memory.recorder.current_cycle = self.stats.cycles
        pc = self.regs.read_raw_pc()
        insn = self.memory.read(pc, 2)
        self.stats.instructions += 1
        next_pc = pc + 2
        cycles = 1

        top5 = insn >> 11
        if (insn & 0xF800) == 0xF000:
            # BL prefix: fetch suffix.
            suffix = self.memory.read(pc + 2, 2)
            if (suffix & 0xF800) != 0xF800:
                raise ExecutionError(
                    f"BL prefix without suffix at {pc:#010x}"
                )
            offset = ((insn & 0x7FF) << 11) | (suffix & 0x7FF)
            if offset & (1 << 21):
                offset -= 1 << 22
            self.regs.write(LR, (pc + 4) | 1)
            next_pc = (pc + 4 + (offset << 1)) & _MASK32
            cycles = 4
            self.stats.taken_branches += 1
            self.stats.count("bl")
        elif top5 in (0b00000, 0b00001, 0b00010):
            cycles = self._shift_imm(insn)
        elif top5 == 0b00011:
            cycles = self._add_sub_fmt2(insn)
        elif (insn >> 13) == 0b001:
            cycles = self._imm8_ops(insn)
        elif (insn & 0xFC00) == 0x4000:
            cycles = self._alu_fmt4(insn)
        elif (insn & 0xFC00) == 0x4400:
            cycles, next_pc = self._hi_ops(insn, pc, next_pc)
        elif (insn & 0xF800) == 0x4800:
            cycles = self._ldr_literal(insn, pc)
        elif (insn & 0xF000) == 0x5000:
            cycles = self._ldr_str_reg(insn)
        elif (insn & 0xE000) == 0x6000:
            cycles = self._ldr_str_imm(insn)
        elif (insn & 0xF000) == 0x8000:
            cycles = self._ldrh_strh_imm(insn)
        elif (insn & 0xF000) == 0x9000:
            cycles = self._ldr_str_sp(insn)
        elif (insn & 0xF000) == 0xA000:
            cycles = self._add_sp_pc(insn, pc)
        elif (insn & 0xFF00) == 0xB000:
            cycles = self._adjust_sp(insn)
        elif (insn & 0xFF00) == 0xB200:
            cycles = self._extend(insn)
        elif (insn & 0xFF00) == 0xBA00:
            cycles = self._rev(insn)
        elif (insn & 0xF600) == 0xB400:
            cycles, next_pc = self._push_pop(insn, next_pc)
        elif (insn & 0xFF00) == 0xBE00:
            self.halted = True
            self.stats.count("bkpt")
            cycles = 1
        elif (insn & 0xFFFF) == 0xBF00:
            self.stats.count("nop")
            cycles = 1
        elif (insn & 0xF000) == 0xC000:
            cycles = self._ldm_stm(insn)
        elif (insn & 0xFF00) == 0xDF00:
            self.stats.count("svc")
            cycles = 1
        elif (insn & 0xF000) == 0xD000:
            cycles, next_pc = self._branch_cond(insn, pc, next_pc)
        elif (insn & 0xF800) == 0xE000:
            offset = insn & 0x7FF
            if offset & 0x400:
                offset -= 0x800
            next_pc = (pc + 4 + (offset << 1)) & _MASK32
            cycles = 3
            self.stats.taken_branches += 1
            self.stats.count("b")
        else:
            raise ExecutionError(
                f"undefined instruction {insn:#06x} at {pc:#010x}"
            )

        if not self.halted:
            self.regs.write(PC, next_pc)
        self.stats.cycles += cycles
        if self.trace is not None:
            self.trace.clock(cycles)

    # -- helpers ----------------------------------------------------------
    def _write_reg(self, index: int, value: int) -> None:
        value &= _MASK32
        if self.trace is not None and index != PC:
            self.trace.register_write(index, self.regs.read(index) if index != PC else 0, value)
        self.regs.write(index, value)

    def _adc_core(self, a: int, b: int, carry_in: int) -> int:
        """Add with carry, setting all four flags."""
        result = a + b + carry_in
        self.regs.c = result > _MASK32
        result &= _MASK32
        sa = RegisterFile.to_signed(a)
        sb = RegisterFile.to_signed(b)
        signed = sa + sb + carry_in
        self.regs.v = not (-(1 << 31) <= signed <= (1 << 31) - 1)
        self.regs.set_nz(result)
        return result

    def _add_flags(self, a: int, b: int) -> int:
        return self._adc_core(a, b, 0)

    def _sub_flags(self, a: int, b: int) -> int:
        return self._adc_core(a, (~b) & _MASK32, 1)

    # -- decoders ----------------------------------------------------------
    def _shift_imm(self, insn: int) -> int:
        op = (insn >> 11) & 0x3
        imm5 = (insn >> 6) & 0x1F
        rm = (insn >> 3) & 0x7
        rd = insn & 0x7
        value = self.regs.read(rm)
        if op == 0:  # LSL (imm5 == 0 is MOVS: C unchanged)
            if imm5:
                self.regs.c = bool((value >> (32 - imm5)) & 1)
                value = (value << imm5) & _MASK32
            self.stats.count("lsls" if imm5 else "movs")
        elif op == 1:  # LSR (imm5 == 0 means 32)
            shift = imm5 or 32
            self.regs.c = bool((value >> (shift - 1)) & 1)
            value = (value >> shift) & _MASK32 if shift < 32 else 0
            self.stats.count("lsrs")
        else:  # ASR
            shift = imm5 or 32
            signed = RegisterFile.to_signed(value)
            self.regs.c = bool((signed >> (shift - 1)) & 1)
            value = (signed >> shift) & _MASK32 if shift < 32 else (
                _MASK32 if signed < 0 else 0
            )
            self.stats.count("asrs")
        self.regs.set_nz(value)
        self._write_reg(rd, value)
        return 1

    def _add_sub_fmt2(self, insn: int) -> int:
        immediate = bool(insn & (1 << 10))
        sub = bool(insn & (1 << 9))
        operand = (insn >> 6) & 0x7
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        a = self.regs.read(rn)
        b = operand if immediate else self.regs.read(operand)
        result = self._sub_flags(a, b) if sub else self._add_flags(a, b)
        self._write_reg(rd, result)
        self.stats.count("subs" if sub else "adds")
        return 1

    def _imm8_ops(self, insn: int) -> int:
        op = (insn >> 11) & 0x3
        rd = (insn >> 8) & 0x7
        imm8 = insn & 0xFF
        if op == 0:  # MOVS
            self.regs.set_nz(imm8)
            self._write_reg(rd, imm8)
            self.stats.count("movs")
        elif op == 1:  # CMP
            self._sub_flags(self.regs.read(rd), imm8)
            self.stats.count("cmp")
        elif op == 2:  # ADDS
            self._write_reg(rd, self._add_flags(self.regs.read(rd), imm8))
            self.stats.count("adds")
        else:  # SUBS
            self._write_reg(rd, self._sub_flags(self.regs.read(rd), imm8))
            self.stats.count("subs")
        return 1

    def _alu_fmt4(self, insn: int) -> int:
        op = (insn >> 6) & 0xF
        rm = (insn >> 3) & 0x7
        rdn = insn & 0x7
        a = self.regs.read(rdn)
        b = self.regs.read(rm)
        write = True
        if op == 0x0:
            result = a & b
            self.regs.set_nz(result)
        elif op == 0x1:
            result = a ^ b
            self.regs.set_nz(result)
        elif op == 0x2:  # LSL reg
            shift = b & 0xFF
            result = a
            if shift:
                self.regs.c = shift <= 32 and bool((a >> (32 - shift)) & 1)
                result = (a << shift) & _MASK32 if shift < 32 else 0
            self.regs.set_nz(result)
        elif op == 0x3:  # LSR reg
            shift = b & 0xFF
            result = a
            if shift:
                self.regs.c = shift <= 32 and bool((a >> (shift - 1)) & 1)
                result = (a >> shift) if shift < 32 else 0
            self.regs.set_nz(result)
        elif op == 0x4:  # ASR reg
            shift = b & 0xFF
            result = a
            if shift:
                signed = RegisterFile.to_signed(a)
                effective = min(shift, 32)
                self.regs.c = bool((signed >> (effective - 1)) & 1)
                result = (signed >> effective) & _MASK32 if effective < 32 else (
                    _MASK32 if signed < 0 else 0
                )
            self.regs.set_nz(result)
        elif op == 0x5:  # ADC
            result = self._adc_core(a, b, int(self.regs.c))
        elif op == 0x6:  # SBC
            result = self._adc_core(a, (~b) & _MASK32, int(self.regs.c))
        elif op == 0x7:  # ROR
            shift = b & 0xFF
            result = a
            if shift:
                rot = shift % 32
                result = ((a >> rot) | (a << (32 - rot))) & _MASK32 if rot else a
                self.regs.c = bool(result & 0x80000000)
            self.regs.set_nz(result)
        elif op == 0x8:  # TST
            self.regs.set_nz(a & b)
            write = False
            result = 0
        elif op == 0x9:  # RSB (NEG): rd = 0 - rm
            result = self._sub_flags(0, b)
        elif op == 0xA:  # CMP
            self._sub_flags(a, b)
            write = False
            result = 0
        elif op == 0xB:  # CMN
            self._add_flags(a, b)
            write = False
            result = 0
        elif op == 0xC:
            result = a | b
            self.regs.set_nz(result)
        elif op == 0xD:  # MUL
            result = (a * b) & _MASK32
            self.regs.set_nz(result)
        elif op == 0xE:  # BIC
            result = a & ~b & _MASK32
            self.regs.set_nz(result)
        else:  # MVN
            result = (~b) & _MASK32
            self.regs.set_nz(result)
        if write:
            self._write_reg(rdn, result)
        names = [
            "ands", "eors", "lsls", "lsrs", "asrs", "adcs", "sbcs", "rors",
            "tst", "rsbs", "cmp", "cmn", "orrs", "muls", "bics", "mvns",
        ]
        self.stats.count(names[op])
        return 1

    def _hi_ops(self, insn: int, pc: int, next_pc: int):
        op = (insn >> 8) & 0x3
        rm = (insn >> 3) & 0xF
        rd = ((insn >> 4) & 0x8) | (insn & 0x7)
        if op == 0x3:  # BX / BLX
            target = self.regs.read(rm) & ~1
            if insn & 0x80:
                self.regs.write(LR, (pc + 2) | 1)
                self.stats.count("blx")
            else:
                self.stats.count("bx")
            self.stats.taken_branches += 1
            return 3, target
        b = self.regs.read(rm)
        if op == 0x0:  # ADD (no flags)
            result = (self.regs.read(rd) + b) & _MASK32
            if rd == PC:
                self.stats.count("add pc")
                self.stats.taken_branches += 1
                return 3, result & ~1
            self._write_reg(rd, result)
            self.stats.count("add")
        elif op == 0x1:  # CMP
            self._sub_flags(self.regs.read(rd), b)
            self.stats.count("cmp")
        else:  # MOV (no flags)
            if rd == PC:
                self.stats.count("mov pc")
                self.stats.taken_branches += 1
                return 3, b & ~1
            self._write_reg(rd, b)
            self.stats.count("mov")
        return 1, next_pc

    def _ldr_literal(self, insn: int, pc: int) -> int:
        rd = (insn >> 8) & 0x7
        imm8 = insn & 0xFF
        address = ((pc + 4) & ~3) + imm8 * 4
        self._write_reg(rd, self.memory.read(address, 4))
        self.stats.loads += 1
        self.stats.count("ldr")
        return 2

    def _ldr_str_reg(self, insn: int) -> int:
        op = (insn >> 9) & 0x7
        rm = (insn >> 6) & 0x7
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        address = (self.regs.read(rn) + self.regs.read(rm)) & _MASK32
        names = ["str", "strh", "strb", "ldrsb", "ldr", "ldrh", "ldrb", "ldrsh"]
        self.stats.count(names[op])
        if op == 0:
            self.memory.write(address, self.regs.read(rd), 4)
            self.stats.stores += 1
        elif op == 1:
            self.memory.write(address, self.regs.read(rd), 2)
            self.stats.stores += 1
        elif op == 2:
            self.memory.write(address, self.regs.read(rd), 1)
            self.stats.stores += 1
        elif op == 3:
            value = self.memory.read(address, 1)
            if value & 0x80:
                value |= 0xFFFFFF00
            self._write_reg(rd, value)
            self.stats.loads += 1
        elif op == 4:
            self._write_reg(rd, self.memory.read(address, 4))
            self.stats.loads += 1
        elif op == 5:
            self._write_reg(rd, self.memory.read(address, 2))
            self.stats.loads += 1
        elif op == 6:
            self._write_reg(rd, self.memory.read(address, 1))
            self.stats.loads += 1
        else:
            value = self.memory.read(address, 2)
            if value & 0x8000:
                value |= 0xFFFF0000
            self._write_reg(rd, value)
            self.stats.loads += 1
        return 2

    def _ldr_str_imm(self, insn: int) -> int:
        byte = bool(insn & (1 << 12))
        load = bool(insn & (1 << 11))
        imm5 = (insn >> 6) & 0x1F
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        size = 1 if byte else 4
        offset = imm5 * size
        address = (self.regs.read(rn) + offset) & _MASK32
        if load:
            self._write_reg(rd, self.memory.read(address, size))
            self.stats.loads += 1
            self.stats.count("ldrb" if byte else "ldr")
        else:
            self.memory.write(address, self.regs.read(rd), size)
            self.stats.stores += 1
            self.stats.count("strb" if byte else "str")
        return 2

    def _ldrh_strh_imm(self, insn: int) -> int:
        load = bool(insn & (1 << 11))
        imm5 = (insn >> 6) & 0x1F
        rn = (insn >> 3) & 0x7
        rd = insn & 0x7
        address = (self.regs.read(rn) + imm5 * 2) & _MASK32
        if load:
            self._write_reg(rd, self.memory.read(address, 2))
            self.stats.loads += 1
            self.stats.count("ldrh")
        else:
            self.memory.write(address, self.regs.read(rd), 2)
            self.stats.stores += 1
            self.stats.count("strh")
        return 2

    def _ldr_str_sp(self, insn: int) -> int:
        load = bool(insn & (1 << 11))
        rd = (insn >> 8) & 0x7
        imm8 = insn & 0xFF
        address = (self.regs.read(SP) + imm8 * 4) & _MASK32
        if load:
            self._write_reg(rd, self.memory.read(address, 4))
            self.stats.loads += 1
            self.stats.count("ldr")
        else:
            self.memory.write(address, self.regs.read(rd), 4)
            self.stats.stores += 1
            self.stats.count("str")
        return 2

    def _add_sp_pc(self, insn: int, pc: int) -> int:
        use_sp = bool(insn & (1 << 11))
        rd = (insn >> 8) & 0x7
        imm8 = insn & 0xFF
        base = self.regs.read(SP) if use_sp else ((pc + 4) & ~3)
        self._write_reg(rd, (base + imm8 * 4) & _MASK32)
        self.stats.count("add")
        return 1

    def _adjust_sp(self, insn: int) -> int:
        magnitude = (insn & 0x7F) * 4
        if insn & 0x80:
            magnitude = -magnitude
        self.regs.write(SP, (self.regs.read(SP) + magnitude) & _MASK32)
        self.stats.count("add sp" if magnitude >= 0 else "sub sp")
        return 1

    def _extend(self, insn: int) -> int:
        op = (insn >> 6) & 0x3
        rm = (insn >> 3) & 0x7
        rd = insn & 0x7
        value = self.regs.read(rm)
        if op == 0:  # SXTH
            value &= 0xFFFF
            if value & 0x8000:
                value |= 0xFFFF0000
        elif op == 1:  # SXTB
            value &= 0xFF
            if value & 0x80:
                value |= 0xFFFFFF00
        elif op == 2:  # UXTH
            value &= 0xFFFF
        else:  # UXTB
            value &= 0xFF
        self._write_reg(rd, value)
        self.stats.count(["sxth", "sxtb", "uxth", "uxtb"][op])
        return 1

    def _rev(self, insn: int) -> int:
        op = (insn >> 6) & 0x3
        rm = (insn >> 3) & 0x7
        rd = insn & 0x7
        v = self.regs.read(rm)
        if op == 0:  # REV
            result = (
                ((v & 0xFF) << 24)
                | ((v & 0xFF00) << 8)
                | ((v >> 8) & 0xFF00)
                | ((v >> 24) & 0xFF)
            )
        elif op == 1:  # REV16
            result = (
                ((v & 0xFF) << 8)
                | ((v >> 8) & 0xFF)
                | ((v & 0xFF0000) << 8)
                | ((v >> 8) & 0xFF0000)
            )
        elif op == 3:  # REVSH
            result = ((v & 0xFF) << 8) | ((v >> 8) & 0xFF)
            if result & 0x8000:
                result |= 0xFFFF0000
        else:
            raise ExecutionError(f"undefined REV variant in {insn:#06x}")
        self._write_reg(rd, result)
        self.stats.count("rev")
        return 1

    def _push_pop(self, insn: int, next_pc: int):
        pop = bool(insn & (1 << 11))
        special = bool(insn & (1 << 8))
        bits = insn & 0xFF
        regs = [i for i in range(8) if bits & (1 << i)]
        n = len(regs) + int(special)
        sp = self.regs.read(SP)
        cycles = 1 + n
        if pop:
            address = sp
            for reg in regs:
                self._write_reg(reg, self.memory.read(address, 4))
                address += 4
            if special:
                next_pc = self.memory.read(address, 4) & ~1
                address += 4
                cycles = 3 + n
                self.stats.taken_branches += 1
            self.regs.write(SP, address & _MASK32)
            self.stats.loads += n
            self.stats.count("pop")
        else:
            address = (sp - 4 * n) & _MASK32
            self.regs.write(SP, address)
            for reg in regs:
                self.memory.write(address, self.regs.read(reg), 4)
                address += 4
            if special:
                self.memory.write(address, self.regs.read(LR), 4)
            self.stats.stores += n
            self.stats.count("push")
        return cycles, next_pc

    def _ldm_stm(self, insn: int) -> int:
        load = bool(insn & (1 << 11))
        rn = (insn >> 8) & 0x7
        bits = insn & 0xFF
        regs = [i for i in range(8) if bits & (1 << i)]
        if not regs:
            raise ExecutionError("LDM/STM with empty register list")
        address = self.regs.read(rn)
        for reg in regs:
            if load:
                self._write_reg(reg, self.memory.read(address, 4))
                self.stats.loads += 1
            else:
                self.memory.write(address, self.regs.read(reg), 4)
                self.stats.stores += 1
            address += 4
        # Writeback unless (LDM) the base register was loaded.
        if not (load and rn in regs):
            self.regs.write(rn, address & _MASK32)
        self.stats.count("ldm" if load else "stm")
        return 1 + len(regs)

    def _branch_cond(self, insn: int, pc: int, next_pc: int):
        cond = (insn >> 8) & 0xF
        if cond == 0xE:
            # 0xDExx is permanently UNDEFINED in ARMv6-M (UDF).
            raise ExecutionError(
                f"undefined instruction {insn:#06x} at {pc:#010x}"
            )
        offset = insn & 0xFF
        if offset & 0x80:
            offset -= 0x100
        self.stats.count("bcond")
        if condition_passed(cond, self.regs):
            self.stats.taken_branches += 1
            return 3, (pc + 4 + (offset << 1)) & _MASK32
        return 1, next_pc

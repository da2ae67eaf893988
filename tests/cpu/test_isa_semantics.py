"""Per-instruction semantics tests: assemble tiny programs, check state.

Every program runs under both the legacy decoder and the superblock
engine, which must agree on every observable, so each semantic check
also checks a short translated block.
"""

import pytest

from repro.cpu import CortexM0, assemble
from repro.errors import AssemblerError, ExecutionError
from tests.cpu.test_fastpath_differential import run_observed


def run_asm(body: str, setup: str = "") -> CortexM0:
    """Assemble setup+body+bkpt and run it to halt on both engines.

    Returns the superblock engine's CPU; a fault (identical on both
    engines) is re-raised as :class:`ExecutionError`.
    """
    source = f"_start:\n{setup}\n{body}\n    bkpt #0\n"
    _, legacy = run_observed(source, "legacy", max_cycles=100_000)
    cpu, superblock = run_observed(source, "superblock", max_cycles=100_000)
    assert superblock == legacy
    if legacy["error"] is not None:
        raise ExecutionError(legacy["error"])
    return cpu


class TestMovAndArith:
    def test_movs_imm(self):
        cpu = run_asm("    movs r0, #200")
        assert cpu.regs.read(0) == 200
        assert not cpu.regs.n and not cpu.regs.z

    def test_movs_zero_sets_z(self):
        cpu = run_asm("    movs r0, #0")
        assert cpu.regs.z

    def test_adds_imm8(self):
        cpu = run_asm("    movs r0, #250\n    adds r0, #250")
        assert cpu.regs.read(0) == 500

    def test_adds_reg(self):
        cpu = run_asm("    movs r0, #7\n    movs r1, #8\n    adds r2, r0, r1")
        assert cpu.regs.read(2) == 15

    def test_add_carry_flag(self):
        cpu = run_asm(
            "    movs r0, #0\n    mvns r0, r0\n    adds r0, r0, #1"
        )  # 0xFFFFFFFF + 1
        assert cpu.regs.read(0) == 0
        assert cpu.regs.c and cpu.regs.z

    def test_overflow_flag(self):
        # 0x7FFFFFFF + 1 overflows signed.
        cpu = run_asm(
            """
    movs r0, #1
    lsls r0, r0, #31
    subs r0, r0, #1      @ r0 = 0x7FFFFFFF
    adds r0, r0, #1
"""
        )
        assert cpu.regs.v and cpu.regs.n

    def test_subs_borrow_semantics(self):
        """ARM carry = NOT borrow: 5 - 3 sets C, 3 - 5 clears it."""
        cpu = run_asm("    movs r0, #5\n    subs r0, r0, #3")
        assert cpu.regs.c and cpu.regs.read(0) == 2
        cpu = run_asm("    movs r0, #3\n    subs r0, r0, #5")
        assert not cpu.regs.c
        assert cpu.regs.read(0) == 0xFFFFFFFE

    def test_adcs_chain(self):
        """64-bit add via ADDS/ADCS."""
        cpu = run_asm(
            """
    movs r0, #0
    mvns r0, r0          @ lo a = 0xFFFFFFFF
    movs r1, #1          @ hi a = 1
    movs r2, #1          @ lo b
    movs r3, #2          @ hi b
    adds r0, r0, r2
    adcs r1, r3
"""
        )
        assert cpu.regs.read(0) == 0
        assert cpu.regs.read(1) == 4  # 1 + 2 + carry

    def test_sbcs(self):
        cpu = run_asm(
            """
    movs r0, #10
    movs r1, #3
    movs r2, #0
    subs r0, r0, #20     @ borrow: C = 0
    sbcs r1, r2          @ r1 = 3 - 0 - 1 = 2
"""
        )
        assert cpu.regs.read(1) == 2

    def test_rsbs_neg(self):
        cpu = run_asm("    movs r0, #5\n    rsbs r0, r0")
        assert cpu.regs.read(0) == 0xFFFFFFFB

    def test_muls(self):
        cpu = run_asm("    movs r0, #200\n    movs r1, #200\n    muls r0, r1")
        assert cpu.regs.read(0) == 40000

    def test_muls_wraps(self):
        cpu = run_asm(
            """
    movs r0, #1
    lsls r0, r0, #20
    mov r1, r0
    muls r0, r1          @ 2^40 mod 2^32 = 0
"""
        )
        assert cpu.regs.read(0) == 0
        assert cpu.regs.z


class TestLogicAndShift:
    def test_ands_orrs_eors_bics_mvns(self):
        cpu = run_asm(
            """
    movs r0, #0xF0
    movs r1, #0xFF
    ands r1, r0          @ 0xF0
    movs r2, #0x0F
    orrs r2, r0          @ 0xFF
    movs r3, #0xFF
    eors r3, r0          @ 0x0F
    movs r4, #0xFF
    bics r4, r0          @ 0x0F
    movs r5, #0
    mvns r5, r5          @ 0xFFFFFFFF
"""
        )
        assert cpu.regs.read(1) == 0xF0
        assert cpu.regs.read(2) == 0xFF
        assert cpu.regs.read(3) == 0x0F
        assert cpu.regs.read(4) == 0x0F
        assert cpu.regs.read(5) == 0xFFFFFFFF

    def test_lsls_imm_carry(self):
        cpu = run_asm(
            "    movs r0, #1\n    lsls r0, r0, #31\n    lsls r0, r0, #1"
        )
        assert cpu.regs.read(0) == 0
        assert cpu.regs.c

    def test_lsrs_imm(self):
        cpu = run_asm("    movs r0, #5\n    lsrs r0, r0, #1")
        assert cpu.regs.read(0) == 2
        assert cpu.regs.c  # shifted-out bit was 1

    def test_asrs_sign_extends(self):
        cpu = run_asm(
            """
    movs r0, #1
    lsls r0, r0, #31     @ 0x80000000
    asrs r0, r0, #4
"""
        )
        assert cpu.regs.read(0) == 0xF8000000

    def test_register_shifts(self):
        cpu = run_asm(
            """
    movs r0, #1
    movs r1, #8
    lsls r0, r1          @ 256
    movs r2, #4
    lsrs r0, r2          @ 16
"""
        )
        assert cpu.regs.read(0) == 16

    def test_rors(self):
        cpu = run_asm(
            "    movs r0, #1\n    movs r1, #1\n    rors r0, r1"
        )
        assert cpu.regs.read(0) == 0x80000000
        assert cpu.regs.c

    def test_tst_does_not_write(self):
        cpu = run_asm(
            "    movs r0, #5\n    movs r1, #2\n    tst r0, r1"
        )
        assert cpu.regs.read(0) == 5
        assert cpu.regs.z  # 5 & 2 == 0


class TestExtendAndRev:
    def test_sxtb(self):
        cpu = run_asm("    movs r0, #0x80\n    sxtb r0, r0")
        assert cpu.regs.read(0) == 0xFFFFFF80

    def test_uxtb(self):
        cpu = run_asm(
            "    ldr r0, =0x12345678\n    uxtb r0, r0"
        )
        assert cpu.regs.read(0) == 0x78

    def test_sxth_uxth(self):
        cpu = run_asm(
            """
    ldr r0, =0x00018000
    sxth r1, r0
    uxth r2, r0
"""
        )
        assert cpu.regs.read(1) == 0xFFFF8000
        assert cpu.regs.read(2) == 0x8000

    def test_rev(self):
        cpu = run_asm("    ldr r0, =0x12345678\n    rev r0, r0")
        assert cpu.regs.read(0) == 0x78563412


class TestMemory:
    def test_word_roundtrip(self):
        cpu = run_asm(
            """
    ldr r0, =0x20000100
    ldr r1, =0xDEADBEEF
    str r1, [r0]
    ldr r2, [r0]
"""
        )
        assert cpu.regs.read(2) == 0xDEADBEEF

    def test_byte_and_half(self):
        cpu = run_asm(
            """
    ldr r0, =0x20000100
    ldr r1, =0xCAFE
    strh r1, [r0]
    ldrb r2, [r0]        @ little-endian low byte
    ldrh r3, [r0]
"""
        )
        assert cpu.regs.read(2) == 0xFE
        assert cpu.regs.read(3) == 0xCAFE

    def test_signed_loads(self):
        cpu = run_asm(
            """
    ldr r0, =0x20000100
    movs r1, #0x80
    strb r1, [r0]
    movs r2, #0
    ldrsb r3, [r0, r2]
"""
        )
        assert cpu.regs.read(3) == 0xFFFFFF80

    def test_immediate_offsets(self):
        cpu = run_asm(
            """
    ldr r0, =0x20000100
    movs r1, #11
    str r1, [r0, #4]
    ldr r2, [r0, #4]
"""
        )
        assert cpu.regs.read(2) == 11

    def test_sp_relative(self):
        cpu = run_asm(
            """
    sub sp, #8
    movs r0, #9
    str r0, [sp, #4]
    ldr r1, [sp, #4]
    add sp, #8
"""
        )
        assert cpu.regs.read(1) == 9

    def test_ldm_stm(self):
        cpu = run_asm(
            """
    ldr r0, =0x20000200
    movs r1, #1
    movs r2, #2
    movs r3, #3
    stmia r0!, {r1-r3}
    ldr r0, =0x20000200
    ldmia r0!, {r4-r6}
"""
        )
        assert [cpu.regs.read(i) for i in (4, 5, 6)] == [1, 2, 3]
        assert cpu.regs.read(0) == 0x2000020C  # writeback

    def test_misaligned_access_rejected(self):
        with pytest.raises(ExecutionError):
            run_asm(
                """
    ldr r0, =0x20000101
    ldr r1, [r0]
"""
            )

    def test_unmapped_access_rejected(self):
        with pytest.raises(ExecutionError):
            run_asm(
                """
    ldr r0, =0x40000000
    ldr r1, [r0]
"""
            )


class TestBranches:
    def test_conditional_taken_and_not(self):
        cpu = run_asm(
            """
    movs r0, #0
    movs r1, #5
    cmp r1, #5
    bne skip            @ not taken
    movs r0, #1
skip:
    cmp r1, #9
    beq never           @ not taken
    adds r0, r0, #2
never:
"""
        )
        assert cpu.regs.read(0) == 3

    def test_signed_vs_unsigned_compare(self):
        cpu = run_asm(
            """
    movs r0, #0
    movs r1, #0
    mvns r1, r1          @ -1 (0xFFFFFFFF)
    movs r2, #1
    cmp r1, r2
    blt is_less          @ signed: -1 < 1
    b done
is_less:
    movs r0, #1
    cmp r1, r2
    bhi is_higher        @ unsigned: 0xFFFFFFFF > 1
    b done
is_higher:
    adds r0, r0, #2
done:
"""
        )
        assert cpu.regs.read(0) == 3

    def test_bl_and_bx_lr(self):
        cpu = run_asm(
            """
    movs r0, #1
    bl helper
    adds r0, r0, #10
    b end
helper:
    adds r0, r0, #100
    bx lr
end:
"""
        )
        assert cpu.regs.read(0) == 111

    def test_push_pop_pc_return(self):
        cpu = run_asm(
            """
    bl fn
    b end
fn:
    push {r4, lr}
    movs r4, #42
    mov r0, r4
    pop {r4, pc}
end:
"""
        )
        assert cpu.regs.read(0) == 42

    def test_nested_calls(self):
        cpu = run_asm(
            """
    bl outer
    b end
outer:
    push {lr}
    bl inner
    adds r0, r0, #1
    pop {pc}
inner:
    movs r0, #10
    bx lr
end:
"""
        )
        assert cpu.regs.read(0) == 11


class TestCycleTimings:
    def _cycles(self, body: str) -> int:
        return run_asm(body).stats.cycles - 1  # minus the bkpt cycle

    def test_data_op_one_cycle(self):
        assert self._cycles("    movs r0, #1") == 1

    def test_load_two_cycles(self):
        assert self._cycles("    ldr r0, =0x20000000\n    ldr r1, [r0]") == 4

    def test_taken_branch_three_cycles(self):
        assert self._cycles("    b next\nnext:") == 3

    def test_untaken_branch_one_cycle(self):
        assert (
            self._cycles("    movs r0, #1\n    cmp r0, #2\n    beq nope\nnope:")
            == 3
        )

    def test_bl_four_cycles(self):
        assert self._cycles("    bl next\nnext:") == 4

    def test_push_n_plus_one(self):
        # push {r0, r1, r2} = 4 cycles
        assert self._cycles("    push {r0, r1, r2}\n    add sp, #12") == 5


class TestAssemblerErrors:
    def test_unknown_instruction(self):
        with pytest.raises(AssemblerError, match="unsupported"):
            assemble("_start:\n    frobnicate r0\n")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x:\nx:\n    nop\n")

    def test_out_of_range_immediate(self):
        with pytest.raises(AssemblerError, match="range"):
            assemble("_start:\n    movs r0, #300\n")

    def test_high_register_in_low_op(self):
        with pytest.raises(AssemblerError, match="low register"):
            assemble("_start:\n    muls r0, r8\n")

    def test_unresolved_symbol(self):
        with pytest.raises(AssemblerError, match="unresolved"):
            assemble("_start:\n    b nowhere\n")

    def test_branch_out_of_range(self):
        nops = "\n".join("    nop" for _ in range(700))
        with pytest.raises(AssemblerError, match="range"):
            assemble(f"_start:\n    beq far\n{nops}\nfar:\n    nop\n")

    def test_equ_and_word(self):
        program = assemble(
            """
.equ MAGIC, 0x1234
_start:
    ldr r0, data
    bkpt #0
.align 2
data:
    .word MAGIC
"""
        )
        cpu = CortexM0()
        cpu.load_program(program)
        cpu.run()
        assert cpu.regs.read(0) == 0x1234

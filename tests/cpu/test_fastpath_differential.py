"""Differential tests: the superblock engine vs the legacy decode loop.

The superblock-translating engine must be *bit-identical* to the legacy
path — same statistics, checksums, per-region access counters, activity
trace, and exception behavior — across every workload in the suite.
"""

import pytest

from repro.analysis.suite_study import default_study_configs
from repro.cpu import CortexM0, MemoryMap, assemble
from repro.cpu.simulator import ENGINES
from repro.cpu.trace import ActivityTrace
from repro.errors import ExecutionError, ReproError
from repro.workloads import matmul_int


def execute(source, engine, max_cycles=500_000_000):
    """Run one program and capture every observable outcome."""
    return run_observed(source, engine, max_cycles)[1]


def run_observed(source, engine, max_cycles=500_000_000):
    """Run one program; returns the CPU and its observable outcome."""
    program = assemble(source)
    trace = ActivityTrace()
    cpu = CortexM0(MemoryMap.embedded_system(), trace=trace)
    cpu.load_program(program)
    error = None
    try:
        cpu.run(max_cycles=max_cycles, engine=engine)
    except ExecutionError as exc:
        error = str(exc)
    return cpu, {
        "regs": list(cpu.regs._regs),
        "flags": (cpu.regs.n, cpu.regs.z, cpu.regs.c, cpu.regs.v),
        "halted": cpu.halted,
        "cycles": cpu.stats.cycles,
        "instructions": cpu.stats.instructions,
        "taken_branches": cpu.stats.taken_branches,
        "loads": cpu.stats.loads,
        "stores": cpu.stats.stores,
        "per_mnemonic": dict(cpu.stats.per_mnemonic),
        "counters": {
            r.name: (r.counters.reads, r.counters.writes)
            for r in cpu.memory.regions
        },
        "trace": (
            trace.register_writes,
            trace.register_toggles,
            trace.cycles,
        ),
        "error": error,
    }


def assert_engines_identical(source, max_cycles=500_000_000):
    legacy = execute(source, "legacy", max_cycles)
    assert execute(source, "superblock", max_cycles) == legacy
    return legacy


@pytest.mark.smoke
@pytest.mark.parametrize(
    "workload",
    default_study_configs(),
    ids=lambda w: w.name,
)
def test_suite_workloads_bit_identical(workload):
    """Every suite workload matches the legacy engine field-for-field."""
    assert_engines_identical(workload.source)


def test_medium_matmul_bit_identical():
    """A heavier configuration exercising deep loop nests."""
    workload = matmul_int.workload(n=12, repeats=4, tune=5)
    assert_engines_identical(workload.source)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        cpu = CortexM0(MemoryMap.embedded_system())
        with pytest.raises(ReproError, match="unknown engine"):
            cpu.run(engine="turbo")

    def test_engines_tuple(self):
        assert ENGINES == ("superblock", "legacy")


class TestFaultFidelity:
    """Error paths must raise the same exceptions with the same text."""

    def _messages(self, source, max_cycles=500_000_000):
        legacy = assert_engines_identical(source, max_cycles)
        return legacy["error"]

    def test_cycle_limit_identical(self):
        source = """
            loop:
                b loop
        """
        message = self._messages(source, max_cycles=99)
        assert message is not None
        assert "cycle limit 99 exceeded" in message

    def test_misaligned_load_identical(self):
        source = """
                movs r0, #1
                ldr r1, [r0]
                bkpt
        """
        message = self._messages(source)
        assert "misaligned" in message

    def test_unmapped_store_identical(self):
        source = """
                movs r0, #1
                lsls r0, r0, #30
                str r0, [r0]
                bkpt
        """
        message = self._messages(source)
        assert "unmapped" in message

    # -- multi-word memory ops: a fault on the first or a later word --
    # SP / base 0x20100000 is unmapped; 0x2000FFFC is the last data
    # word, so a second word at 0x20010000 is unmapped.
    @pytest.mark.parametrize(
        "sp, fault",
        [("0x20100008", "first"), ("0x20010004", "later")],
    )
    def test_push_fault_identical(self, sp, fault):
        source = f"""
                ldr r0, ={sp}
                mov sp, r0
                movs r4, #4
                movs r5, #5
                push {{r4, r5}}
                movs r6, #6
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "unmapped" in legacy["error"]
        assert legacy["regs"][6] == 0
        if fault == "later":
            assert legacy["counters"]["data"][1] == 1

    @pytest.mark.parametrize(
        "base, fault",
        [("0x20100000", "first"), ("0x2000FFFC", "later")],
    )
    def test_stm_fault_identical(self, base, fault):
        source = f"""
                ldr r0, ={base}
                movs r1, #1
                movs r2, #2
                stmia r0!, {{r1, r2}}
                movs r6, #6
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "unmapped" in legacy["error"]
        assert legacy["regs"][6] == 0

    @pytest.mark.parametrize("op", ["pop {r4, r5}", "ldmia r0!, {r4, r5}"])
    def test_multi_load_misaligned_base_identical(self, op):
        source = f"""
                ldr r0, =0x20000102
                mov sp, r0
                movs r4, #4
                {op}
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "misaligned" in legacy["error"]

    @pytest.mark.parametrize(
        "op", ["pop {r4, r5}", "pop {r4, pc}", "ldmia r0!, {r4, r5}"]
    )
    def test_multi_load_fault_on_later_word_identical(self, op):
        """The first word loads (a counted register write), the next
        word is unmapped."""
        source = f"""
                ldr r0, =0x2000FFFC
                mov sp, r0
                movs r4, #4
                {op}
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "unmapped" in legacy["error"]
        assert legacy["trace"][0] == 4  # ldr, mov sp, movs, popped r4

    def test_pop_pc_outside_program_identical(self):
        source = """
                ldr r0, =0x40000001
                push {r0}
                pop {pc}
        """
        message = self._messages(source)
        assert "unmapped" in message

    def test_bx_into_data_region_identical(self):
        """BX to a BKPT written into the data region: the engines step
        the out-of-region code one instruction at a time."""
        source = """
                ldr r0, =0x20000000
                ldr r1, =0xBE00
                strh r1, [r0]
                adds r0, r0, #1
                bx r0
        """
        legacy = assert_engines_identical(source)
        assert legacy["error"] is None and legacy["halted"]
        assert legacy["regs"][15] == 0x20000000

    def test_bl_prefix_without_suffix_identical(self):
        source = """
                movs r0, #1
                .byte 0x00, 0xF0
                movs r0, #2
                bkpt
        """
        message = self._messages(source)
        assert "BL prefix without suffix" in message

    def test_lone_branches_start_blocks_identical(self):
        source = """
                b first
            first:
                beq never
            second:
                bne third
            never:
                movs r0, #9
            third:
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 0
        assert legacy["per_mnemonic"]["bcond"] == 2

    @pytest.mark.parametrize("max_cycles", range(1, 16))
    def test_cycle_limit_on_bl_and_push_identical(self, max_cycles):
        """Limits landing before, on, and after a BL and a PUSH."""
        source = """
                movs r0, #1
                bl fn
                adds r0, r0, #1
                bkpt
            fn:
                push {r4, lr}
                movs r4, #7
                adds r0, r0, r4
                pop {r4, pc}
        """
        legacy = assert_engines_identical(source, max_cycles=max_cycles)
        if legacy["error"] is not None:
            assert f"cycle limit {max_cycles} exceeded" in legacy["error"]

    def test_store_patching_bl_target_identical(self):
        """A store rewrites the BL suffix of the run it belongs to."""
        template = """
                ldr r1, =site
                ldr r2, ={suffix}
                strh r2, [r1, #2]
            site:
                bl first
                movs r0, #9
                bkpt
            first:
                movs r0, #1
                bkpt
            second:
                movs r0, #2
                bkpt
        """
        symbols = assemble(template.format(suffix=0)).symbols
        offset = (symbols["second"] - (symbols["site"] + 4)) >> 1
        assert 0 <= offset < 0x800  # the BL prefix stays the same
        source = template.format(suffix=0xF800 | offset)
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 2


class TestSelfModifyingCode:
    @pytest.mark.parametrize("engine", ["superblock"])
    def test_external_program_patch_invalidates_decode_cache(self, engine):
        """Patching program memory between runs must re-decode."""
        source = """
                movs r0, #1
                bkpt
        """
        program = assemble(source)
        cpu = CortexM0(MemoryMap.embedded_system())
        cpu.load_program(program)
        cpu.run(engine=engine)
        assert cpu.regs.read(0) == 1

        # Patch the movs immediate from #1 to #42 and re-run.
        insn = cpu.memory.read(program.base_address, 2, count=False)
        cpu.memory.write(
            program.base_address, (insn & 0xFF00) | 42, 2, count=False
        )
        cpu.halted = False
        cpu.regs.write(15, program.entry_point)
        cpu.run(engine=engine)
        assert cpu.regs.read(0) == 42

    def test_store_into_program_region_invalidates(self):
        """A store over not-yet-executed code must take effect."""
        # movs r0, #7 assembles to 0x2007; the program stores that
        # encoding over the placeholder `movs r0, #1` before reaching
        # it, so the executed instruction must be the patched one.
        source = """
                ldr r1, =target
                ldr r2, =0x2007
                strh r2, [r1]
                b target
            target:
                movs r0, #1
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7


class TestSuperblockBoundaries:
    """SMC, faults, and cycle limits landing *inside* translated blocks.

    The superblock engine batches whole straight-line runs into one
    call; these tests pin the partial-progress bookkeeping when
    execution stops partway through a block.
    """

    def _superblock_engine(self, source):
        program = assemble(source)
        cpu = CortexM0(MemoryMap.embedded_system())
        cpu.load_program(program)
        cpu.run(engine="superblock", max_cycles=500_000_000)
        return cpu.fast_engine

    def test_store_into_own_block_reexecutes_patched_tail(self):
        """A store over a later instruction of the *current* block.

        The strh lands on code inside the very straight-line run being
        executed; the block must stop after the store, re-translate,
        and execute the patched instruction.
        """
        source = """
                ldr r1, =patch
                ldr r2, =0x2007
                movs r4, #9
                strh r2, [r1]
                movs r5, #8
                movs r6, #3
            patch:
                movs r0, #1
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7
        assert legacy["regs"][5] == 8  # post-store prefix re-ran correctly

    @pytest.mark.parametrize(
        "store",
        ["adds r1, #4\n                mov sp, r1\n                push {r2}",
         "stmia r1!, {r2}"],
        ids=["push", "stm"],
    )
    def test_multi_word_store_into_own_block(self, store):
        """PUSH/STM over later instructions of the current block."""
        source = f"""
                ldr r1, =patch
                ldr r2, =0x20072007     @ two `movs r0, #7`
                {store}
                movs r5, #8
                .align 2
            patch:
                movs r0, #1
                movs r0, #1
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert legacy["regs"][0] == 7
        assert legacy["regs"][5] == 8

    def test_fault_mid_block_preserves_architectural_state(self):
        """A misaligned load in the middle of a fused run."""
        source = """
                movs r0, #1
                movs r2, #2
                adds r3, r0, r2
                ldr r1, [r0]
                adds r4, r3, r2
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "misaligned" in legacy["error"]
        assert legacy["regs"][3] == 3  # pre-fault effects applied
        assert legacy["regs"][4] == 0  # post-fault insn never ran

    def test_unmapped_store_mid_block(self):
        source = """
                movs r0, #1
                lsls r0, r0, #30
                movs r3, #5
                str r0, [r0]
                movs r4, #6
                bkpt
        """
        legacy = assert_engines_identical(source)
        assert "unmapped" in legacy["error"]

    def test_cycle_limit_lands_mid_block(self):
        """The limit must raise at the same pc as the legacy loop."""
        source = """
            loop:
                adds r0, r0, #1
                adds r1, r1, #1
                adds r2, r2, #1
                adds r3, r3, #1
                b loop
        """
        legacy = assert_engines_identical(source, max_cycles=57)
        assert "cycle limit 57 exceeded" in legacy["error"]

    def test_blocks_actually_translate(self):
        """Sanity: the scenarios above really exercise fused blocks."""
        eng = self._superblock_engine(
            """
                movs r0, #1
                movs r1, #2
                adds r0, r0, r1
                bkpt
            """
        )
        assert eng.blocks_translated >= 1
        assert eng.block_steps >= 3

    def test_fused_branch_loops_stay_in_block_dispatch(self):
        """Loop bodies ending in bcond fuse the branch into the block."""
        eng = self._superblock_engine(
            """
                movs r0, #0
                movs r1, #10
            loop:
                adds r0, r0, #1
                cmp r0, r1
                bne loop
                movs r2, #1
                bkpt
            """
        )
        # The loop body (adds/cmp/bne) executes as one block per
        # iteration; only the prologue and epilogue use other paths.
        assert eng.block_execs >= 10

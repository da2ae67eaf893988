"""Differential tests: the N-lane vector engine vs the scalar engines.

The lockstep vector engine must be *bit-identical* per lane to the
scalar superblock path — same checksums, statistics, access
counters, and activity trace — whether the run stays vectorized or
falls back.  N=1 is the property anchor: one lane must degenerate to
exactly the scalar result on every workload.
"""

import pytest

from repro.analysis.suite_study import default_study_configs
from repro.cpu import CortexM0, MemoryMap, assemble
from repro.cpu.trace import ActivityTrace
from repro.cpu.vector_engine import _scalar_lane, run_lanes
from repro.errors import ReproError
from repro.workloads import matmul_int

#: Every LaneOutcome field a scalar run also produces.
LANE_FIELDS = (
    "checksum",
    "cycles",
    "instructions",
    "taken_branches",
    "loads",
    "stores",
    "program_reads",
    "data_reads",
    "data_writes",
    "register_writes",
    "register_toggles",
    "per_mnemonic",
    "error",
)


def scalar_reference(source, max_cycles=500_000_000):
    """Scalar superblock run shaped like a LaneOutcome field dict."""
    program = assemble(source)
    trace = ActivityTrace()
    cpu = CortexM0(MemoryMap.embedded_system(), trace=trace)
    cpu.load_program(program)
    cpu.run(max_cycles=max_cycles, engine="superblock")
    counters = {r.name: r.counters for r in cpu.memory.regions}
    return {
        "checksum": cpu.regs.read(0),
        "cycles": cpu.stats.cycles,
        "instructions": cpu.stats.instructions,
        "taken_branches": cpu.stats.taken_branches,
        "loads": cpu.stats.loads,
        "stores": cpu.stats.stores,
        "program_reads": counters["program"].reads,
        "data_reads": counters["data"].reads,
        "data_writes": counters["data"].writes,
        "register_writes": trace.register_writes,
        "register_toggles": trace.register_toggles,
        "per_mnemonic": dict(cpu.stats.per_mnemonic),
        "error": None,
    }


def assert_lane_matches(lane, reference, context=""):
    for field in LANE_FIELDS:
        got = getattr(lane, field)
        want = (
            reference[field]
            if isinstance(reference, dict)
            else getattr(reference, field)
        )
        assert got == want, f"{context}{field}: {got!r} != {want!r}"


@pytest.mark.smoke
@pytest.mark.parametrize(
    "workload",
    default_study_configs(),
    ids=lambda w: w.name,
)
def test_n1_bit_identical_to_fast_engine(workload):
    """One vector lane degenerates to the scalar result, field-for-field."""
    result = run_lanes(workload.source, lanes=1)
    assert_lane_matches(
        result.lanes[0], scalar_reference(workload.source), workload.name
    )


def test_medium_matmul_n1_identity():
    """A heavier configuration exercising deep loop nests at N=1."""
    workload = matmul_int.workload(n=12, repeats=4, tune=5)
    result = run_lanes(workload.source, lanes=1)
    assert result.vectorized
    assert_lane_matches(result.lanes[0], scalar_reference(workload.source))


def test_seed_variants_vectorize_and_match_goldens():
    """Seed-parameterized lanes stay lockstep and hit their goldens."""
    seeds = [12345, 7, 42, 999, 31337, 271828, 314159, 2**31 - 1]
    variants = [
        matmul_int.seed_variant(s, n=8, repeats=2, tune=5) for s in seeds
    ]
    result = run_lanes(
        variants[0].source,
        lane_words=[w.data_words for w in variants],
    )
    assert result.vectorized, result.bail_reason
    assert result.lanes_retired == len(seeds)
    for seed, workload, lane in zip(seeds, variants, result.lanes):
        assert lane.checksum == matmul_int.golden_checksum(8, seed)
        assert lane.checksum == workload.expected_checksum


def test_divergent_trip_counts_retire_independently():
    """Lanes with different loop trip counts each match a scalar rerun."""
    source = """
        ldr r0, =0x20000000
        ldr r2, [r0]        @ per-lane trip count
        movs r1, #0
    loop:
        adds r1, r1, #1
        muls r1, r1
        subs r2, r2, #1
        bne loop
        bkpt #0
    """
    trips = [3, 7, 5, 3]
    result = run_lanes(source, lane_words=[(t,) for t in trips])
    assert result.vectorized, result.bail_reason
    program = assemble(source)
    for trip, lane in zip(trips, result.lanes):
        reference = _scalar_lane(program, (trip,), 500_000_000)
        assert_lane_matches(lane, reference, f"trips={trip} ")
        assert abs(lane.activity_factor() - reference.activity_factor()) < 1e-15


def test_bailout_falls_back_to_correct_scalar_results():
    """Lane-dependent addresses bail out of lockstep but stay correct."""
    # Each lane stores at a lane-dependent offset: the vector engine
    # cannot keep a single shared memory image, so it must fall back.
    source = """
        ldr r0, =0x20000000
        ldr r1, [r0]        @ per-lane offset (word-aligned)
        lsls r2, r1, #2
        adds r2, r2, r0
        str r1, [r2, #4]
        ldr r0, [r2, #4]
        bkpt #0
    """
    offsets = [1, 2, 3, 4]
    result = run_lanes(source, lane_words=[(o,) for o in offsets])
    assert not result.vectorized
    assert result.bailouts == 1
    assert result.bail_reason
    program = assemble(source)
    for offset, lane in zip(offsets, result.lanes):
        reference = _scalar_lane(program, (offset,), 500_000_000)
        assert_lane_matches(lane, reference, f"offset={offset} ")
        assert lane.checksum == offset


def test_calls_and_stack_traffic_stay_vectorized():
    """BL, BX, PUSH/POP and STM/LDM of lane-varying registers run in
    lockstep blocks and match scalar reruns."""
    source = """
        ldr r0, =0x20000000
        ldr r1, [r0]        @ per-lane value
        bl double
        bl double
        ldr r5, =0x20000100
        movs r2, #3
        stmia r5!, {r1, r2}
        subs r5, #8
        ldmia r5!, {r6, r7}
        adds r0, r6, r7
        bkpt #0
    double:
        push {r1, lr}
        pop {r2, r3}        @ r2: the lane value, r3: the return address
        adds r1, r2, r2
        bx r3
    """
    values = [1, 5, 9, 1000]
    result = run_lanes(source, lane_words=[(v,) for v in values])
    assert result.vectorized, result.bail_reason
    program = assemble(source)
    for value, lane in zip(values, result.lanes):
        assert lane.checksum == 4 * value + 3
        reference = _scalar_lane(program, (value,), 500_000_000)
        assert_lane_matches(lane, reference, f"value={value} ")


def test_lane_varying_return_address_bails_out():
    """``pop {pc}`` of a lane-varying word cannot stay in lockstep."""
    source = """
        ldr r0, =0x20000000
        ldr r1, [r0]        @ per-lane return address
        push {r1}
        pop {pc}
    one:
        movs r0, #1
        bkpt #0
    two:
        movs r0, #2
        bkpt #0
    """
    program = assemble(source)
    targets = [program.symbols["one"] | 1, program.symbols["two"] | 1]
    result = run_lanes(source, lane_words=[(t,) for t in targets])
    assert not result.vectorized
    assert "branch target varies" in result.bail_reason
    assert [lane.checksum for lane in result.lanes] == [1, 2]


class TestRunLanesValidation:
    def test_requires_lanes_or_lane_words(self):
        with pytest.raises(ReproError, match="lane_words or lanes"):
            run_lanes("bkpt #0")

    def test_lane_count_disagreement_rejected(self):
        with pytest.raises(ReproError, match="disagrees"):
            run_lanes("bkpt #0", lane_words=[(1,), (2,)], lanes=3)

    def test_zero_lanes_rejected(self):
        with pytest.raises(ReproError, match=">= 1"):
            run_lanes("bkpt #0", lanes=0)

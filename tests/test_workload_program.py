"""Unit tests for the static program representation and behaviours."""

import pytest

from repro.errors import WorkloadError
from repro.isa import Instruction, Opcode
from repro.workloads import (
    BasicBlock,
    BranchBehavior,
    MemBehavior,
    StaticProgram,
    TraceExecutor,
)


def _mini_program():
    """Two blocks: a loop body with a conditional back edge."""
    b0 = [
        Instruction(0x1000, Opcode.ADDI, 5, (5,)),
        Instruction(0x1004, Opcode.LOAD, 6, (5,)),
        Instruction(0x1008, Opcode.CMP, 7, (6,)),
        Instruction(0x100C, Opcode.BNE, None, (7,), target=0x1000),
    ]
    b1 = [
        Instruction(0x1010, Opcode.ADD, 8, (6, 6)),
        Instruction(0x1014, Opcode.JMP, None, (), target=0x1000),
    ]
    blocks = [
        BasicBlock(0, b0, taken_succ=0, fall_succ=1),
        BasicBlock(1, b1, taken_succ=0),
    ]
    return StaticProgram(
        "mini",
        blocks,
        branch_behaviors={0x100C: BranchBehavior("loop", trip=4)},
        mem_behaviors={0x1004: MemBehavior("stream", base=0, region=256)},
    )


def _branch_outcomes(behavior, n, seed=0):
    """The first *n* outcomes of a one-block loop closed by a branch
    with *behavior*, as the trace executor draws them."""
    block = [
        Instruction(0x2000, Opcode.ADDI, 5, (5,)),
        Instruction(0x2004, Opcode.BNE, None, (5,), target=0x2000),
    ]
    program = StaticProgram(
        "branch",
        [BasicBlock(0, block, taken_succ=0, fall_succ=0)],
        branch_behaviors={0x2004: behavior},
    )
    records = TraceExecutor(program, seed).take(2 * n)
    return [r.taken for r in records if r.inst.is_conditional]


def _addresses(behavior, n, seed=0):
    """The first *n* addresses of a load with *behavior* in a one-block
    loop, as the trace executor draws them."""
    block = [
        Instruction(0x3000, Opcode.LOAD, 6, (5,)),
        Instruction(0x3004, Opcode.JMP, None, (), target=0x3000),
    ]
    program = StaticProgram(
        "memory",
        [BasicBlock(0, block, taken_succ=0)],
        mem_behaviors={0x3000: behavior},
    )
    records = TraceExecutor(program, seed).take(2 * n)
    return [r.mem_addr for r in records if r.inst.is_memory]


class TestBasicBlock:
    def test_terminator_detection(self):
        program = _mini_program()
        assert program.blocks[0].terminator is not None
        assert program.blocks[0].terminator.opcode is Opcode.BNE

    def test_empty_block_rejected(self):
        with pytest.raises(WorkloadError):
            BasicBlock(0, [])

    def test_iteration_and_len(self):
        block = _mini_program().blocks[0]
        assert len(block) == 4
        assert [i.opcode for i in block][0] is Opcode.ADDI


class TestStaticProgramValidation:
    def test_valid_program(self):
        program = _mini_program()
        assert program.num_instructions == 6

    def test_duplicate_pc_rejected(self):
        b0 = [Instruction(0x1000, Opcode.ADD, 5, (1,))]
        b1 = [Instruction(0x1000, Opcode.ADD, 6, (2,))]
        with pytest.raises(WorkloadError):
            StaticProgram(
                "dup",
                [
                    BasicBlock(0, b0, fall_succ=1),
                    BasicBlock(1, b1, fall_succ=0),
                ],
            )

    def test_conditional_without_behavior_rejected(self):
        b0 = [Instruction(0x1000, Opcode.BEQ, None, (1,), target=0x1000)]
        with pytest.raises(WorkloadError):
            StaticProgram(
                "nobehav",
                [BasicBlock(0, b0, taken_succ=0, fall_succ=0)],
            )

    def test_memory_without_behavior_rejected(self):
        b0 = [
            Instruction(0x1000, Opcode.LOAD, 5, (1,)),
            Instruction(0x1004, Opcode.JMP, None, (), target=0x1000),
        ]
        with pytest.raises(WorkloadError):
            StaticProgram("nomem", [BasicBlock(0, b0, taken_succ=0)])

    def test_successor_out_of_range_rejected(self):
        b0 = [Instruction(0x1000, Opcode.JMP, None, (), target=0x1000)]
        with pytest.raises(WorkloadError):
            StaticProgram("badsucc", [BasicBlock(0, b0, taken_succ=3)])

    def test_block_without_successor_rejected(self):
        b0 = [Instruction(0x1000, Opcode.ADD, 5, (1,))]
        with pytest.raises(WorkloadError):
            StaticProgram("nofall", [BasicBlock(0, b0)])


class TestLookups:
    def test_instruction_at(self):
        program = _mini_program()
        assert program.instruction_at(0x1004).opcode is Opcode.LOAD

    def test_instruction_at_bad_pc(self):
        with pytest.raises(WorkloadError):
            _mini_program().instruction_at(0x9999)

    def test_block_of(self):
        program = _mini_program()
        assert program.block_of(0x1010).block_id == 1

    def test_all_instructions_order(self):
        pcs = [i.pc for i in _mini_program().all_instructions()]
        assert pcs == sorted(pcs)


class TestBehaviors:
    def test_loop_behavior_validation(self):
        with pytest.raises(WorkloadError):
            BranchBehavior("loop", trip=1)
        with pytest.raises(WorkloadError):
            BranchBehavior("nope")
        with pytest.raises(WorkloadError):
            BranchBehavior("biased", taken_prob=1.5)

    def test_mem_behavior_validation(self):
        with pytest.raises(WorkloadError):
            MemBehavior("nope", base=0, region=64)
        with pytest.raises(WorkloadError):
            MemBehavior("stream", base=0, region=0)
        with pytest.raises(WorkloadError):
            MemBehavior("stream", base=0, region=64, stride=0)

    def test_loop_outcomes_pattern(self):
        outcomes = _branch_outcomes(BranchBehavior("loop", trip=4), 8)
        # taken trip-1 times, then not taken, repeating
        assert outcomes == [True, True, True, False] * 2

    def test_biased_outcomes_follow_probability(self):
        behavior = BranchBehavior("biased", taken_prob=0.9)
        outcomes = _branch_outcomes(behavior, 1000, seed=1)
        assert 0.85 < sum(outcomes) / len(outcomes) < 0.95

    def test_stream_addresses_advance_and_wrap(self):
        behavior = MemBehavior("stream", base=64, region=16, stride=4)
        assert _addresses(behavior, 6) == [64, 68, 72, 76, 64, 68]

    def test_random_addresses_stay_in_region(self):
        behavior = MemBehavior("random", base=128, region=64)
        for addr in _addresses(behavior, 100, seed=2):
            assert 128 <= addr < 128 + 64
            assert addr % 4 == 0

"""Unit tests for static and dynamic instruction records."""

import pytest

from repro.errors import ISAError
from repro.isa import (
    DynInst,
    Instruction,
    InstrClass,
    Opcode,
    make_copy_inst,
)


def add(pc=0x1000, dst=5, srcs=(1, 2)):
    return Instruction(pc, Opcode.ADD, dst, srcs)


class TestInstructionValidation:
    def test_valid_alu(self):
        inst = add()
        assert inst.cls is InstrClass.SIMPLE_INT
        assert inst.latency == 1

    def test_misaligned_pc_rejected(self):
        with pytest.raises(ISAError):
            Instruction(0x1001, Opcode.ADD, 5, (1,))

    def test_negative_pc_rejected(self):
        with pytest.raises(ISAError):
            Instruction(-4, Opcode.ADD, 5, (1,))

    def test_branch_needs_target(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.BEQ, None, (3,))

    def test_branch_with_target_ok(self):
        inst = Instruction(0x1000, Opcode.BEQ, None, (3,), target=0x2000)
        assert inst.is_conditional
        assert inst.is_control

    def test_jump_needs_target(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.JMP, None, ())

    def test_store_needs_two_sources(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.STORE, None, (1,))

    def test_load_needs_destination(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.LOAD, None, (1,))

    def test_load_needs_address_source(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.LOAD, 5, ())

    def test_store_must_not_write_register(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.STORE, 3, (1, 2))

    def test_branch_must_not_write_register(self):
        with pytest.raises(ISAError):
            Instruction(0x1000, Opcode.BEQ, 3, (1,), target=0x2000)


class TestIssueSources:
    def test_store_issue_srcs_exclude_data(self):
        store = Instruction(0x1000, Opcode.STORE, None, (1, 2))
        assert store.issue_srcs == (1,)
        assert store.store_data_src == 2

    def test_load_issue_srcs_are_all_srcs(self):
        load = Instruction(0x1000, Opcode.LOAD, 5, (1,))
        assert load.issue_srcs == (1,)
        assert load.store_data_src is None

    def test_alu_issue_srcs(self):
        inst = add(srcs=(1, 2))
        assert inst.issue_srcs == (1, 2)


class TestDynInst:
    def test_initial_timing_state(self):
        dyn = DynInst(7, add())
        assert dyn.seq == 7
        assert dyn.cluster == -1
        assert dyn.issue_cycle == -1
        assert dyn.complete_cycle == -1
        assert not dyn.is_copy

    def test_delegated_properties(self):
        inst = add(pc=0x2000)
        dyn = DynInst(0, inst)
        assert dyn.pc == 0x2000
        assert dyn.opcode is Opcode.ADD
        assert dyn.cls is InstrClass.SIMPLE_INT

    def test_branch_outcome_carried(self):
        branch = Instruction(0x1000, Opcode.BNE, None, (3,), target=0x2000)
        dyn = DynInst(1, branch, taken=True)
        assert dyn.taken

    def test_mem_addr_carried(self):
        load = Instruction(0x1000, Opcode.LOAD, 5, (1,))
        dyn = DynInst(1, load, mem_addr=0xBEEF0)
        assert dyn.mem_addr == 0xBEEF0

    def test_repr_mentions_seq_and_opcode(self):
        dyn = DynInst(42, add())
        assert "42" in repr(dyn)
        assert "ADD" in repr(dyn)


class TestCopyInstructions:
    def test_make_copy(self):
        copy = make_copy_inst(100, logical_reg=7, consumer_seq=99)
        assert copy.is_copy
        assert copy.copy_reg == 7
        assert copy.copy_for == 99
        assert copy.cls is InstrClass.COPY

    def test_copy_has_no_destination(self):
        copy = make_copy_inst(1, 2, 3)
        assert copy.inst.dst is None

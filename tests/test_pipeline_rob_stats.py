"""Unit tests for the ROB and the statistics machinery."""

import pytest

from repro.errors import SimulationError
from repro.isa import DynInst, Instruction, Opcode
from repro.pipeline import ReorderBuffer, SimStats
from repro.pipeline.stats import BALANCE_BINS, BALANCE_RANGE


def dyn(seq, pc=0x1000):
    return DynInst(seq, Instruction(pc, Opcode.ADD, 5, (1,)))


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        a, b = dyn(0), dyn(1)
        rob.push(a)
        rob.push(b)
        assert rob.head is a
        assert rob.pop() is a
        assert rob.pop() is b
        assert rob.empty

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(dyn(0))
        rob.push(dyn(1))
        assert rob.full
        with pytest.raises(SimulationError):
            rob.push(dyn(2))

    def test_program_order_enforced(self):
        rob = ReorderBuffer(4)
        rob.push(dyn(5))
        with pytest.raises(SimulationError):
            rob.push(dyn(3))

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            ReorderBuffer(2).pop()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            ReorderBuffer(0)

    def test_len(self):
        rob = ReorderBuffer(8)
        rob.push(dyn(0))
        assert len(rob) == 1


class TestSimStats:
    def test_cycle_accounting(self):
        stats = SimStats()
        stats.on_cycle(3, [1, 2])
        stats.on_cycle(2, [4, 4])
        assert stats.cycles == 2
        assert stats.replication_sum == 5

    def test_balance_histogram_binning(self):
        stats = SimStats()
        stats.on_cycle(0, [0, 5])   # diff +5
        stats.on_cycle(0, [5, 0])   # diff -5
        stats.on_cycle(0, [0, 0])   # diff 0
        assert stats.balance_hist[BALANCE_RANGE + 5] == 1
        assert stats.balance_hist[BALANCE_RANGE - 5] == 1
        assert stats.balance_hist[BALANCE_RANGE] == 1

    def test_balance_histogram_clamps(self):
        stats = SimStats()
        stats.on_cycle(0, [0, 50])
        stats.on_cycle(0, [50, 0])
        assert stats.balance_hist[BALANCE_BINS - 1] == 1
        assert stats.balance_hist[0] == 1


class TestSimResult:
    def test_result_derivations(self, gcc_general_result):
        result = gcc_general_result
        assert result.instructions > 0
        assert result.ipc == pytest.approx(
            result.instructions / result.cycles
        )
        assert 0 <= result.comms_per_instr
        assert (
            result.critical_comms_per_instr <= result.comms_per_instr
        )
        assert result.noncritical_comms_per_instr == pytest.approx(
            result.comms_per_instr - result.critical_comms_per_instr
        )

    def test_balance_distribution_normalized(self, gcc_general_result):
        assert sum(gcc_general_result.balance_distribution) == pytest.approx(
            1.0
        )

    def test_balance_at_clamps(self, gcc_general_result):
        result = gcc_general_result
        assert result.balance_at(99) == result.balance_at(10)
        assert result.balance_at(-99) == result.balance_at(-10)

    def test_speedup_over_self_is_zero(self, gcc_general_result):
        assert gcc_general_result.speedup_over(
            gcc_general_result
        ) == pytest.approx(0.0)

    def test_summary_contains_key_fields(self, gcc_general_result):
        text = gcc_general_result.summary()
        assert "gcc" in text
        assert "ipc=" in text

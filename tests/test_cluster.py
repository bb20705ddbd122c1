"""Unit tests for cluster resources: FUs, windows, FIFOs, bypasses."""

import pytest

from repro.cluster import BypassNetwork, FifoIssueQueue, FUPool, IssueQueue
from repro.errors import SimulationError
from repro.isa import DynInst, Instruction, Opcode, fp_reg, make_copy_inst
from repro.pipeline.wakeup import WakeupCalendar


def dyn(op=Opcode.ADD, seq=0, dst=5, srcs=(1,), target=None, pc=0x1000):
    return DynInst(seq, Instruction(pc, op, dst, srcs, target=target))


def int_cluster_fus():
    return FUPool(n_simple=3, has_complex_int=True, name="c0")


def fp_cluster_fus():
    return FUPool(
        n_simple=3, has_complex_int=False, n_fp_alu=3, has_fp_complex=True,
        name="c1",
    )


class TestFUPool:
    def test_simple_alu_budget(self):
        fus = int_cluster_fus()
        for i in range(3):
            d = dyn(seq=i)
            assert fus.can_issue(d, 0)
            fus.issue(d, 0)
        assert not fus.can_issue(dyn(seq=9), 0)

    def test_budget_renews_each_cycle(self):
        fus = int_cluster_fus()
        for i in range(3):
            fus.issue(dyn(seq=i), 0)
        assert fus.can_issue(dyn(seq=9), 1)

    def test_branches_and_memory_use_simple_alus(self):
        fus = int_cluster_fus()
        branch = dyn(Opcode.BEQ, dst=None, srcs=(1,), target=0x1000)
        load = dyn(Opcode.LOAD, dst=5, srcs=(1,))
        store = dyn(Opcode.STORE, dst=None, srcs=(1, 2))
        fus.issue(branch, 0)
        fus.issue(load, 0)
        fus.issue(store, 0)
        assert not fus.can_issue(dyn(seq=9), 0)

    def test_divider_unpipelined(self):
        fus = int_cluster_fus()
        div = dyn(Opcode.DIV, srcs=(1, 2))
        assert fus.can_issue(div, 0)
        fus.issue(div, 0)
        # busy for the full latency
        assert not fus.can_issue(dyn(Opcode.DIV, srcs=(1, 2)), 5)
        assert fus.can_issue(dyn(Opcode.DIV, srcs=(1, 2)), div.inst.latency)

    def test_multiplier_pipelined(self):
        fus = int_cluster_fus()
        fus.issue(dyn(Opcode.MUL, srcs=(1, 2)), 0)
        assert fus.can_issue(dyn(Opcode.MUL, srcs=(1, 2)), 1)

    def test_one_complex_unit_per_cycle(self):
        fus = int_cluster_fus()
        fus.issue(dyn(Opcode.MUL, srcs=(1, 2)), 0)
        assert not fus.can_issue(dyn(Opcode.MUL, srcs=(1, 2)), 0)

    def test_no_complex_in_fp_cluster(self):
        fus = fp_cluster_fus()
        assert not fus.supports(dyn(Opcode.MUL, srcs=(1, 2)))

    def test_no_fp_in_int_cluster(self):
        fus = int_cluster_fus()
        fadd = dyn(Opcode.FADD, dst=fp_reg(0), srcs=(fp_reg(1), fp_reg(2)))
        assert not fus.supports(fadd)

    def test_fp_alu_budget(self):
        fus = fp_cluster_fus()
        for i in range(3):
            fadd = dyn(
                Opcode.FADD, seq=i, dst=fp_reg(0), srcs=(fp_reg(1),)
            )
            assert fus.can_issue(fadd, 0)
            fus.issue(fadd, 0)
        assert not fus.can_issue(
            dyn(Opcode.FADD, seq=9, dst=fp_reg(0), srcs=(fp_reg(1),)), 0
        )

    def test_copies_need_no_fu(self):
        fus = int_cluster_fus()
        for i in range(3):
            fus.issue(dyn(seq=i), 0)
        copy = make_copy_inst(99, 5, 100)
        assert fus.can_issue(copy, 0)

    def test_baseline_fp_cluster_has_no_simple_units(self):
        fus = FUPool(n_simple=0, has_complex_int=False, n_fp_alu=3)
        assert not fus.supports(dyn())


class TestIssueQueue:
    def test_capacity_enforced(self):
        iq = IssueQueue(2)
        assert iq.insert(dyn(seq=0))
        assert iq.insert(dyn(seq=1))
        assert not iq.can_accept()
        # insert is the single guarded path: a full queue refuses rather
        # than raising, and the refused instruction is not enqueued.
        assert not iq.insert(dyn(seq=2))
        assert len(iq) == 2
        assert [d.seq for d in iq.entries_oldest_first()] == [0, 1]

    def test_age_order(self):
        iq = IssueQueue(8)
        for i in (0, 1, 2):
            iq.insert(dyn(seq=i))
        assert [d.seq for d in iq.entries_oldest_first()] == [0, 1, 2]

    def test_remove(self):
        iq = IssueQueue(8)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        iq.remove(a)
        assert [d.seq for d in iq.entries_oldest_first()] == [1]

    def test_remove_missing_raises(self):
        iq = IssueQueue(8)
        with pytest.raises(SimulationError):
            iq.remove(dyn())

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            IssueQueue(0)


class TestFifoIssueQueue:
    def test_dependent_chain_shares_fifo(self):
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        producer = dyn(seq=0)
        consumer = dyn(seq=1, dst=6, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        iq.insert(consumer)
        # Only the head (producer) is an issue candidate.
        assert iq.entries_oldest_first() == [producer]
        assert len(iq) == 2

    def test_independent_instructions_get_new_fifos(self):
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        assert set(iq.entries_oldest_first()) == {a, b}

    def test_placement_fails_when_no_fifo_usable(self):
        iq = FifoIssueQueue(n_fifos=1, depth=1)
        assert iq.insert(dyn(seq=0))
        unrelated = dyn(seq=1)
        assert iq.placement_for(unrelated) is None
        assert not iq.insert(unrelated)
        assert len(iq) == 1

    def test_full_tail_starts_a_new_chain(self):
        iq = FifoIssueQueue(n_fifos=2, depth=1)
        producer = dyn(seq=0)
        consumer = dyn(seq=1, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        assert iq.placement_for(consumer) == 1
        assert iq.insert(consumer)
        assert iq.entries_oldest_first() == [producer, consumer]

    def test_can_accept_counts_empty_fifos(self):
        # The dispatch reservation: every instruction reserved for needs
        # an empty FIFO, even one that could join a chain.
        iq = FifoIssueQueue(n_fifos=3, depth=4)
        producer = dyn(seq=0)
        iq.insert(producer)
        assert iq.can_accept(2)
        assert not iq.can_accept(3)
        consumer = dyn(seq=1, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(consumer)
        assert iq.can_accept(2)
        iq.remove(producer)
        assert iq.can_accept(2) and not iq.can_accept(3)
        iq.remove(consumer)
        assert iq.can_accept(3)

    def test_heads_sorted_by_age(self):
        iq = FifoIssueQueue(n_fifos=4, depth=4)
        for i in (2, 0, 1):
            iq.insert(dyn(seq=i))
        heads = iq.entries_oldest_first()
        assert [d.seq for d in heads] == sorted(d.seq for d in heads)

    def test_remove_non_head_rejected(self):
        iq = FifoIssueQueue(n_fifos=1, depth=4)
        producer = dyn(seq=0)
        consumer = dyn(seq=1, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        iq.insert(consumer)
        with pytest.raises(SimulationError):
            iq.remove(consumer)


def waiting_on(calendar, consumer, *producers):
    """Enrol *consumer* for *producers*' completions, as dispatch does
    (one consumer-list entry and one pending operand per source)."""
    consumer.providers = list(producers)
    for producer in producers:
        calendar.waiting.setdefault(producer.seq, []).append(consumer)
    consumer.pending_ops = len(producers)
    return consumer


def ready_seqs(iq):
    return [entry.seq for _, entry in iq._ready]


class TestReadySet:
    """The ready lists as the wakeup calendar fills them: one rule for
    both window organisations, ordered by ``iq_rank``."""

    def test_insert_with_no_pending_ops_is_ready(self):
        iq = IssueQueue(8)
        d = dyn(seq=0)
        iq.insert(d)
        assert iq._ready == [(d.iq_rank, d)]

    def test_remove_discards_ready_entry(self):
        iq = IssueQueue(8)
        d = dyn(seq=0)
        iq.insert(d)
        iq.remove(d)
        assert iq._ready == []

    def test_conventional_order_is_insertion_rank_not_seq(self):
        # A copy gets a younger seq than the instructions dispatched
        # after it, but entered the window first: select treats
        # insertion order as age, whatever the seqs and the wake order.
        windows = [IssueQueue(8), IssueQueue(8)]
        calendar = WakeupCalendar(windows)
        early, late = dyn(seq=1), dyn(seq=2)
        copy = waiting_on(calendar, make_copy_inst(100, 5, 3), early)
        consumer = waiting_on(calendar, dyn(seq=5, srcs=(6,)), late)
        copy.cluster = consumer.cluster = 0
        windows[0].insert(copy)
        windows[0].insert(consumer)
        calendar.complete(late, 2, 0)
        calendar.complete(early, 3, 0)
        calendar.fire(1)
        assert windows[0]._ready == []
        calendar.fire(2)
        assert ready_seqs(windows[0]) == [5]
        calendar.fire(3)
        assert ready_seqs(windows[0]) == [100, 5]
        assert [rank for rank, _ in windows[0]._ready] == [0, 1]

    def test_fifo_heads_ready_in_seq_order(self):
        windows = [FifoIssueQueue(n_fifos=4, depth=4) for _ in range(2)]
        calendar = WakeupCalendar(windows)
        producers = [dyn(seq=s) for s in (70, 20, 50)]
        for producer in producers:
            head = waiting_on(
                calendar, dyn(seq=producer.seq // 10, srcs=(6,)), producer
            )
            head.cluster = 0
            windows[0].insert(head)
            calendar.complete(producer, 4, 0)
        calendar.fire(4)
        assert ready_seqs(windows[0]) == [2, 5, 7]
        assert [rank for rank, _ in windows[0]._ready] == [2, 5, 7]

    def test_fifo_entry_behind_a_head_wakes_after_it_issues(self):
        windows = [FifoIssueQueue(n_fifos=2, depth=4) for _ in range(2)]
        calendar = WakeupCalendar(windows)
        outside = dyn(seq=0)
        head = waiting_on(calendar, dyn(seq=1, srcs=(5,)), outside)
        behind = waiting_on(calendar, dyn(seq=2, dst=6, srcs=(5,)), head)
        head.cluster = behind.cluster = 0
        windows[0].insert(head)
        windows[0].insert(behind)
        assert windows[0].entries_oldest_first() == [head]
        calendar.complete(outside, 1, 0)
        calendar.fire(1)
        assert ready_seqs(windows[0]) == [1]
        windows[0].remove(head)  # it issues; its successor still waits
        assert ready_seqs(windows[0]) == []
        calendar.complete(head, 3, 1)
        calendar.fire(3)
        assert ready_seqs(windows[0]) == [2]

    def test_duplicate_waiter_counts_once_per_operand(self):
        windows = [IssueQueue(8), IssueQueue(8)]
        calendar = WakeupCalendar(windows)
        twice, once = dyn(seq=0), dyn(seq=1)
        # Reads *twice*'s register in two operands and *once*'s in one.
        consumer = waiting_on(
            calendar, dyn(seq=2, srcs=(5, 5, 6)), twice, twice, once
        )
        consumer.cluster = 1
        windows[1].insert(consumer)
        assert calendar.waiting[twice.seq] == [consumer, consumer]
        calendar.complete(twice, 2, 0)
        calendar.fire(2)
        assert consumer.pending_ops == 1
        assert windows[1]._ready == []
        # A completion at the current cycle wakes at once.
        calendar.complete(once, 3, 3)
        assert consumer.pending_ops == 0
        assert ready_seqs(windows[1]) == [2]


class TestBypassNetwork:
    def test_per_direction_budget(self):
        bypass = BypassNetwork(ports_per_direction=2, latency=1)
        assert bypass.claim(0, 0)
        assert bypass.claim(0, 0)
        assert not bypass.claim(0, 0)
        assert bypass.claim(0, 1)  # other direction unaffected

    def test_budget_renews(self):
        bypass = BypassNetwork(ports_per_direction=1)
        assert bypass.claim(0, 0)
        assert bypass.claim(1, 0)

    def test_transfer_counting(self):
        bypass = BypassNetwork()
        bypass.claim(0, 0)
        bypass.claim(0, 1)
        bypass.claim(1, 1)
        assert bypass.transfers == [1, 2]
        assert bypass.total_transfers == 3

    def test_zero_ports_always_refuses(self):
        bypass = BypassNetwork(ports_per_direction=0)
        assert not bypass.available(0, 0)
        assert not bypass.claim(0, 0)

    def test_negative_geometry_rejected(self):
        with pytest.raises(SimulationError):
            BypassNetwork(ports_per_direction=-1)

"""Unit tests for the central disambiguation queue (paper §2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steering import make_steering
from repro.isa import DynInst, InstrClass, Instruction, Opcode
from repro.memory import DisambiguationQueue, MemoryHierarchy
from repro.pipeline import Processor
from repro.spec.machines import machine_config
from repro.workloads import workload


def make_lsq(**kwargs):
    return DisambiguationQueue(MemoryHierarchy(), **kwargs)


def load(seq, addr, pc=0x1000):
    inst = Instruction(pc + seq * 4, Opcode.LOAD, 5, (1,))
    dyn = DynInst(seq, inst, mem_addr=addr)
    return dyn


def store(seq, addr, pc=0x1000):
    inst = Instruction(pc + seq * 4, Opcode.STORE, None, (1, 2))
    dyn = DynInst(seq, inst, mem_addr=addr)
    return dyn


class TestLoadScheduling:
    def test_load_waits_for_its_address(self):
        lsq = make_lsq()
        ld = load(0, 0x100)
        lsq.add(ld)
        lsq.step(5)
        assert ld.complete_cycle == -1  # EA not done yet
        ld.ea_done_cycle = 6
        lsq.step(6)
        assert ld.complete_cycle > 6

    def test_load_blocked_by_unknown_store_address(self):
        lsq = make_lsq()
        st = store(0, 0x200)
        ld = load(1, 0x100)
        lsq.add(st)
        lsq.add(ld)
        ld.ea_done_cycle = 3
        lsq.step(3)
        assert ld.complete_cycle == -1  # older store address unknown
        st.ea_done_cycle = 4
        lsq.step(4)
        assert ld.complete_cycle > 4

    def test_store_to_load_forwarding(self):
        lsq = make_lsq()
        st = store(0, 0x100)
        ld = load(1, 0x100)
        lsq.add(st)
        lsq.add(ld)
        st.ea_done_cycle = 2
        ld.ea_done_cycle = 2
        lsq.step(2)
        assert ld.complete_cycle == 2 + lsq.forward_latency
        assert lsq.loads_forwarded == 1
        assert lsq.loads_accessed == 0

    def test_forwarding_requires_same_word(self):
        lsq = make_lsq()
        st = store(0, 0x104)
        ld = load(1, 0x100)
        lsq.add(st)
        lsq.add(ld)
        st.ea_done_cycle = 2
        ld.ea_done_cycle = 2
        lsq.step(2)
        assert lsq.loads_forwarded == 0
        assert lsq.loads_accessed == 1

    def test_younger_store_does_not_forward(self):
        lsq = make_lsq()
        ld = load(0, 0x100)
        st = store(1, 0x100)
        lsq.add(ld)
        lsq.add(st)
        ld.ea_done_cycle = 2
        st.ea_done_cycle = 2
        lsq.step(2)
        assert lsq.loads_forwarded == 0

    def test_load_scheduled_once(self):
        lsq = make_lsq()
        ld = load(0, 0x100)
        lsq.add(ld)
        ld.ea_done_cycle = 1
        lsq.step(1)
        first = ld.complete_cycle
        lsq.step(2)
        assert ld.complete_cycle == first

    def test_port_limit_defers_loads(self):
        lsq = make_lsq()
        loads = [load(i, 0x1000 + 64 * i) for i in range(5)]
        for ld in loads:
            ld.ea_done_cycle = 1
            lsq.add(ld)
        lsq.step(1)
        scheduled = [ld for ld in loads if ld.complete_cycle >= 0]
        assert len(scheduled) == 3  # 3 D-cache ports

    def test_outstanding_miss_limit(self):
        lsq = make_lsq(max_outstanding_misses=1)
        # Two cold loads to different lines: both would miss.
        a = load(0, 0x10000)
        b = load(1, 0x20000)
        for ld in (a, b):
            ld.ea_done_cycle = 1
            lsq.add(ld)
        lsq.step(1)
        assert a.complete_cycle > 0
        assert b.complete_cycle == -1  # MSHR full


class TestEventDrivenLoadScheduling:
    """The event-driven walk (processor mode): loads announce their
    address-ready cycle through ``queue_address`` instead of being
    polled, and must schedule identically to the reference walk."""

    @staticmethod
    def make_event_lsq(**kwargs):
        return DisambiguationQueue(
            MemoryHierarchy(), event_driven=True, **kwargs
        )

    def test_load_parked_until_address_ready(self):
        lsq = self.make_event_lsq()
        ld = load(0, 0x100)
        lsq.add(ld)
        ld.ea_done_cycle = 6
        lsq.queue_address(ld, 6)
        lsq.step(5)
        assert ld.complete_cycle == -1  # still parked in the wheel
        lsq.step(6)
        assert ld.complete_cycle > 6

    def test_barrier_blocks_younger_load_only(self):
        lsq = self.make_event_lsq()
        older = load(0, 0x100)
        st = store(1, 0x200)
        younger = load(2, 0x300)
        lsq.add(older)
        lsq.add(st)
        lsq.add(younger)
        for ld in (older, younger):
            ld.ea_done_cycle = 3
            lsq.queue_address(ld, 3)
        lsq.step(3)  # store address unknown: barrier at seq 1
        assert older.complete_cycle > 3  # older than the barrier
        assert younger.complete_cycle == -1
        st.ea_done_cycle = 4
        lsq.step(4)
        assert younger.complete_cycle > 4

    def test_forwarding_matches_reference(self):
        lsq = self.make_event_lsq()
        st = store(0, 0x100)
        ld = load(1, 0x100)
        lsq.add(st)
        lsq.add(ld)
        st.ea_done_cycle = 2
        ld.ea_done_cycle = 2
        lsq.queue_address(ld, 2)
        lsq.step(2)
        assert ld.complete_cycle == 2 + lsq.forward_latency
        assert lsq.loads_forwarded == 1

    def test_wheel_arrivals_schedule_in_program_order(self):
        lsq = self.make_event_lsq()
        loads = [load(i, 0x1000 + 64 * i) for i in range(5)]
        for ld in loads:
            lsq.add(ld)
            ld.ea_done_cycle = 1
        # Announce youngest-first: the wheel must still schedule the
        # oldest three (3 D-cache ports).
        for ld in reversed(loads):
            lsq.queue_address(ld, 1)
        lsq.step(1)
        scheduled = [ld.seq for ld in loads if ld.complete_cycle >= 0]
        assert scheduled == [0, 1, 2]

    def test_completion_hook_receives_loads(self):
        seen = []
        lsq = DisambiguationQueue(
            MemoryHierarchy(),
            event_driven=True,
            on_complete=lambda dyn, cc, cycle: (
                seen.append((dyn.seq, cc, cycle)),
                setattr(dyn, "complete_cycle", cc),
            ),
        )
        ld = load(0, 0x100)
        lsq.add(ld)
        ld.ea_done_cycle = 1
        lsq.queue_address(ld, 1)
        lsq.step(1)
        assert seen and seen[0][0] == 0 and seen[0][2] == 1


    def test_barrier_after_stale_commits(self):
        # Stores complete and commit while no load waits, so ``step``
        # never advances the known-store count; a load arriving later
        # must still find the barrier at the first unknown store.
        lsq = self.make_event_lsq()
        stores = [store(i, 0x100 + 4 * i) for i in range(3)]
        for st_ in stores:
            lsq.add(st_)
        stores[0].ea_done_cycle = 1
        stores[1].ea_done_cycle = 1
        lsq.step(1)
        assert lsq.commit_store(stores[0], 2)
        younger = load(3, 0x300)
        lsq.add(younger)
        younger.ea_done_cycle = 3
        lsq.queue_address(younger, 3)
        lsq.step(3)  # stores[2] has no address: it is the barrier
        assert younger.complete_cycle == -1
        assert lsq.commit_store(stores[1], 4)
        stores[2].ea_done_cycle = 5
        lsq.step(4)
        assert younger.complete_cycle == -1
        lsq.step(5)
        assert younger.complete_cycle > 5


#: One memory operation of a generated sequence: (is a store, cache line
#: 0-5, word in the line 0-3, cycles from dispatch to address issue).
#: Long issue delays keep store addresses unknown while older stores
#: commit, which is when a stale known-store count would show.
_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 5),
        st.integers(0, 3),
        st.integers(0, 20),
    ),
    min_size=8,
    max_size=40,
)


def _drive(ops, event_driven, width, commit_blocked, ports, misses):
    """Run *ops* through one queue the way the processor does, cycle by
    cycle: commit in order, schedule loads, issue address computations
    (out of order), then dispatch in program order.  Returns the load
    completion cycles, the commit cycles and the counters."""
    lsq = DisambiguationQueue(
        MemoryHierarchy(dcache_ports=ports),
        max_outstanding_misses=misses,
        event_driven=event_driven,
    )
    program = []
    for seq, (is_store, line, word, delay) in enumerate(ops):
        addr = 0x1000 * (line + 1) + 4 * word
        dyn = store(seq, addr) if is_store else load(seq, addr)
        dispatch = seq // width
        program.append((dyn, dispatch, dispatch + 1 + delay))
    commits = {}
    head = 0
    cycle = 0
    while head < len(program):
        assert cycle < 5000, "generated sequence wedged"
        # Commit: in order, up to *width* a cycle, unless blocked.
        retired = 0
        while (
            head < len(program)
            and retired < width
            and not commit_blocked[cycle % len(commit_blocked)]
        ):
            dyn, dispatch, _ = program[head]
            if dispatch >= cycle or not 0 <= dyn.complete_cycle <= cycle:
                break
            if dyn.cls is InstrClass.STORE:
                if not lsq.commit_store(dyn, cycle):
                    break
            else:
                lsq.retire_load(dyn)
            commits[dyn.seq] = cycle
            head += 1
            retired += 1
        if event_driven:
            lsq.step(cycle)
        else:
            lsq._step_scan(cycle)
        # Issue: the address computation finishes next cycle.
        for dyn, _, issue in program:
            if issue == cycle:
                dyn.ea_done_cycle = cycle + 1
                if dyn.cls is InstrClass.STORE:
                    dyn.complete_cycle = cycle + 1
                else:
                    lsq.queue_address(dyn, cycle + 1)
        # Dispatch, in program order.
        for dyn, dispatch, _ in program:
            if dispatch == cycle:
                lsq.add(dyn)
        cycle += 1
    loads = {
        dyn.seq: (dyn.complete_cycle, dyn.mem_latency)
        for dyn, _, _ in program
        if dyn.cls is InstrClass.LOAD
    }
    return loads, commits, lsq.stats()


class TestEventMatchesScan:
    """The event-driven walk, with its incremental store barrier and its
    miss heap, schedules every load exactly as the reference scan does.
    Addresses resolve out of order and commits stall at random, so
    stores often commit while the known-store count is stale."""

    @given(
        ops=_OPS,
        width=st.integers(1, 4),
        # Cycles commit may not retire, repeating; at least one may.
        commit_blocked=st.lists(st.booleans(), max_size=11).map(
            lambda blocked: blocked + [False]
        ),
        ports=st.integers(1, 3),
        misses=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_completions_and_counters(
        self, ops, width, commit_blocked, ports, misses
    ):
        event = _drive(ops, True, width, commit_blocked, ports, misses)
        scan = _drive(ops, False, width, commit_blocked, ports, misses)
        assert event == scan


class TestCommitSide:
    def test_commit_store_needs_port(self):
        hierarchy = MemoryHierarchy(dcache_ports=1)
        lsq = DisambiguationQueue(hierarchy)
        st = store(0, 0x100)
        lsq.add(st)
        assert hierarchy.claim_dcache_port(4)  # consume the only port
        assert not lsq.commit_store(st, 4)
        assert lsq.commit_store(st, 5)
        assert len(lsq) == 0

    def test_retire_load_removes_entry(self):
        lsq = make_lsq()
        ld = load(0, 0x100)
        lsq.add(ld)
        lsq.retire_load(ld)
        assert len(lsq) == 0

    def test_stats_dict(self):
        lsq = make_lsq()
        stats = lsq.stats()
        assert stats == {
            "loads_forwarded": 0,
            "loads_accessed": 0,
            "stores_written": 0,
        }



class TestCommittedLoads:
    """``retire_load`` only has the program-ordered queue to clean: a
    load completes when ``step`` schedules it, which takes it out of
    ``_waiting_loads``, and commit retires only completed loads."""

    @pytest.mark.parametrize(
        "bench,scheme,machine",
        [
            ("gcc", "general-balance", "clustered"),
            ("pchase-heavy", "general-balance", "clustered"),
            ("pchase-heavy", "fifo", "clustered-fifo"),
        ],
    )
    def test_no_committed_load_is_still_waiting(self, bench, scheme, machine):
        processor = Processor(
            workload(bench), machine_config(machine), make_steering(scheme)
        )
        lsq = processor.lsq
        retire = lsq.retire_load
        retired = []

        def checked_retire(dyn):
            assert all(w is not dyn for _, w in lsq._waiting_loads), (
                f"committed load seq {dyn.seq} is still waiting"
            )
            retired.append(dyn)
            retire(dyn)

        lsq.retire_load = checked_retire
        processor.run(1500, warmup=300)
        assert retired

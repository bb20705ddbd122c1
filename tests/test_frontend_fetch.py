"""Unit tests for the trace-driven fetch unit (columns-backed).

The unit has one loop, :meth:`FetchUnit.fetch`, which appends each
cycle's group to the decode buffer it was given; the tests read a
cycle's group off an emptied buffer.
"""

from collections import deque

from repro.frontend import CombinedPredictor, FetchUnit
from repro.memory import MemoryHierarchy
from repro.workloads import workload


def make_fetch(bench="gcc", **kwargs):
    wl = workload(bench)
    hierarchy = MemoryHierarchy()
    predictor = CombinedPredictor()
    return FetchUnit(
        wl.shared_trace().columns(), hierarchy, predictor, **kwargs
    )


def fetch_group(fetch, cycle):
    """The group fetched at *cycle* into an emptied decode buffer."""
    fetch.decode_buffer.clear()
    fetch.fetch(cycle)
    return list(fetch.decode_buffer)


def drain(fetch, cycles):
    return [fetch_group(fetch, cycle) for cycle in range(cycles)]


class TestBasicFetch:
    def test_fetch_width_respected(self):
        fetch = make_fetch(fetch_width=4)
        groups = drain(fetch, 50)
        assert all(len(group) <= 4 for group in groups)
        assert any(len(group) == 4 for group in groups)

    def test_appends_to_the_given_buffer(self):
        buffer = deque()
        fetch = make_fetch(decode_buffer=buffer)
        assert fetch.decode_buffer is buffer
        for cycle in range(50):
            fetch.fetch(cycle)
        assert len(buffer) == fetch.fetched > 0

    def test_buffer_space_bounds_the_group(self):
        fetch = make_fetch(decode_buffer_size=16)
        buffer = fetch.decode_buffer
        longest = 0
        for cycle in range(300):
            buffer.clear()
            buffer.extend([None] * 13)
            fetch.fetch(cycle)
            assert len(buffer) <= 16
            longest = max(longest, len(buffer))
            for dyn in list(buffer)[13:]:
                if dyn.mispredicted:
                    dyn.complete_cycle = cycle  # resolve, so fetch resumes
        assert longest == 16

    def test_full_buffer_fetches_nothing_and_counts_no_stall(self):
        fetch = make_fetch(decode_buffer_size=8)
        fetch.fetch(0)  # cold I-cache miss: cycle 1 would count a stall
        stalls = fetch.icache_stall_cycles
        assert stalls == 0 and not fetch.decode_buffer
        fetch.decode_buffer.extend([None] * 8)
        fetch.fetch(1)
        assert len(fetch.decode_buffer) == 8
        assert fetch.icache_stall_cycles == stalls
        assert fetch.fetched == 0

    def test_sequence_numbers_monotonic(self):
        fetch = make_fetch()
        seqs = [d.seq for g in drain(fetch, 100) for d in g]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_fetch_cycle_recorded(self):
        fetch = make_fetch()
        for cycle in range(50):
            for dyn in fetch_group(fetch, cycle):
                assert dyn.fetch_cycle == cycle

    def test_program_order_matches_trace(self):
        columns = workload("li").shared_trace().columns()
        fetch = FetchUnit(columns, MemoryHierarchy(), CombinedPredictor())
        fetched = [d.inst.pc for g in drain(fetch, 400) for d in g]
        assert fetched == columns.pcs[:len(fetched)]


class TestGroupTermination:
    def test_taken_branch_ends_group(self):
        fetch = make_fetch()
        for cycle in range(300):
            group = fetch_group(fetch, cycle)
            for i, dyn in enumerate(group):
                if dyn.inst.is_control and dyn.taken:
                    assert i == len(group) - 1

    def test_mispredict_stalls_fetch(self):
        fetch = make_fetch("go")  # hardest branches
        mispredicted = None
        cycle = 0
        while mispredicted is None and cycle < 2000:
            for dyn in fetch_group(fetch, cycle):
                if dyn.mispredicted:
                    mispredicted = dyn
            cycle += 1
        assert mispredicted is not None, "go must mispredict eventually"
        # While unresolved, fetch delivers nothing.
        assert fetch.stalled
        assert fetch_group(fetch, cycle) == []
        # Resolve the branch; fetch resumes after the redirect penalty.
        mispredicted.complete_cycle = cycle + 1
        assert fetch_group(fetch, cycle + 1) == []
        resumed = fetch_group(fetch, cycle + 2 + fetch.redirect_penalty)
        assert resumed
        assert not fetch.stalled

    def test_icache_cold_start_stalls(self):
        fetch = make_fetch()
        assert fetch_group(fetch, 0) == []  # first line is a cold miss
        assert fetch.icache_stall_cycles >= 0
        # After the miss latency, instructions flow.
        produced = []
        for cycle in range(1, 40):
            produced.extend(fetch_group(fetch, cycle))
        assert produced


class TestCounters:
    def test_fetched_counter(self):
        fetch = make_fetch()
        total = sum(len(g) for g in drain(fetch, 100))
        assert fetch.fetched == total

    def test_next_seq_shared_with_copies(self):
        fetch = make_fetch()
        drain(fetch, 10)
        before = fetch.next_seq()
        after = fetch.next_seq()
        assert after == before + 1

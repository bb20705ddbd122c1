"""Unit tests for the trace-driven fetch unit (columns-backed)."""

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


def drain(fetch, cycles, budget=8):
    groups = []
    for cycle in range(cycles):
        groups.append(fetch.fetch(cycle, budget))
    return groups


class TestBasicFetch:
    def test_fetch_width_respected(self):
        fetch = make_fetch(fetch_width=8)
        for cycle, group in enumerate(drain(make_fetch(), 50)):
            assert len(group) <= 8

    def test_budget_respected(self):
        fetch = make_fetch()
        # warm the I-cache first so the budget is the only limit
        drain(fetch, 200)
        group = fetch.fetch(1000, 3)
        assert len(group) <= 3

    def test_sequence_numbers_monotonic(self):
        fetch = make_fetch()
        seqs = [d.seq for g in drain(fetch, 100) for d in g]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_fetch_cycle_recorded(self):
        fetch = make_fetch()
        for cycle in range(50):
            for dyn in fetch.fetch(cycle, 8):
                assert dyn.fetch_cycle == cycle

    def test_program_order_matches_trace(self):
        wl = workload("li")
        fetch = FetchUnit(
            wl.shared_trace().columns(), MemoryHierarchy(), CombinedPredictor()
        )
        fetched = [d.inst.pc for g in drain(fetch, 400) for d in g]
        expected = [r.inst.pc for r in wl.trace().take(len(fetched))]
        assert fetched == expected


class TestGroupTermination:
    def test_taken_branch_ends_group(self):
        fetch = make_fetch()
        for cycle in range(300):
            group = fetch.fetch(cycle, 8)
            for i, dyn in enumerate(group):
                if dyn.inst.is_control and dyn.taken:
                    assert i == len(group) - 1

    def test_mispredict_stalls_fetch(self):
        fetch = make_fetch("go")  # hardest branches
        mispredicted = None
        cycle = 0
        while mispredicted is None and cycle < 2000:
            for dyn in fetch.fetch(cycle, 8):
                if dyn.mispredicted:
                    mispredicted = dyn
            cycle += 1
        assert mispredicted is not None, "go must mispredict eventually"
        # While unresolved, fetch delivers nothing.
        assert fetch.stalled
        assert fetch.fetch(cycle, 8) == []
        # Resolve the branch; fetch resumes after the redirect penalty.
        mispredicted.complete_cycle = cycle + 1
        assert fetch.fetch(cycle + 1, 8) == []
        resumed = fetch.fetch(
            cycle + 2 + fetch.redirect_penalty, 8
        )
        assert resumed
        assert not fetch.stalled

    def test_icache_cold_start_stalls(self):
        fetch = make_fetch()
        assert fetch.fetch(0, 8) == []  # first line is a cold miss
        assert fetch.icache_stall_cycles >= 0
        # After the miss latency, instructions flow.
        produced = []
        for cycle in range(1, 40):
            produced.extend(fetch.fetch(cycle, 8))
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

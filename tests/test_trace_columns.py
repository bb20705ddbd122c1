"""Unit tests for the columnar trace representation and steering memo.

``TraceColumns`` is the structure-of-arrays core the columnar pipeline
fetches from; these tests pin its round-trip fidelity against an
independent executor's ``TraceRecord`` stream, the ``.rtrace`` array
decode path, the frozen-length contract, and the slice-steering
memoisation counters it enabled (surfaced through
``repro.telemetry.metrics``).
"""

import pytest

from repro.core.slices import SliceFlagTable
from repro.core.steering import make_steering
from repro.errors import ScenarioError
from repro.pipeline import Processor, ProcessorConfig
from repro.workloads import TraceColumns, TraceExecutor, workload
from repro.workloads.columns import (
    CONDITIONAL,
    CONTROL,
    EXTEND_CHUNK,
    MEMORY,
    TAKEN,
)

N_RECORDS = 600


@pytest.fixture(scope="module")
def shared():
    trace = workload("gcc", seed=0).shared_trace()
    trace.ensure(N_RECORDS)
    return trace


class TestRoundTrip:
    def test_to_records_matches_backing_trace(self, shared):
        """The columns are the only record store: rebuilding records
        from them must reproduce an independent executor's stream."""
        back = shared.columns().to_records()
        assert len(back) >= N_RECORDS
        independent = TraceColumns(
            shared.program, TraceExecutor(shared.program, shared.seed)
        )
        independent.fill(len(back))
        assert back == independent.to_records()[:len(back)]

    def test_from_arrays_rebuilds_identical_columns(self, shared):
        cols = shared.columns()
        n = min(len(cols), N_RECORDS)
        taken = [(f & TAKEN) != 0 for f in cols.flags[:n]]
        rebuilt = TraceColumns.from_arrays(
            shared.program, cols.pcs[:n], taken, cols.mem_addrs[:n]
        )
        assert rebuilt.pcs == cols.pcs[:n]
        assert rebuilt.flags == cols.flags[:n]
        assert rebuilt.mem_addrs == cols.mem_addrs[:n]
        assert rebuilt.to_records() == cols.to_records()[:n]

    def test_flags_encode_instruction_kind(self, shared):
        cols = shared.columns()
        for inst, flags in zip(cols.insts, cols.flags):
            assert bool(flags & CONTROL) == inst.is_control
            assert bool(flags & CONDITIONAL) == inst.is_conditional
            assert bool(flags & MEMORY) == inst.is_memory

    def test_line_ids_match_pcs(self, shared):
        cols = shared.columns()
        line_bytes = 32
        assert cols.line_ids(line_bytes) == [
            pc // line_bytes for pc in cols.pcs
        ]

    def test_fixed_length_columns_refuse_extension(self, shared):
        cols = shared.columns()
        n = len(cols)
        taken = [(f & TAKEN) != 0 for f in cols.flags]
        fixed = TraceColumns.from_arrays(
            shared.program, cols.pcs, taken, cols.mem_addrs
        )
        fixed.require(n)  # exactly what is there: fine
        with pytest.raises(ScenarioError):
            fixed.require(n + 1)


    def test_live_require_generates_a_chunk_ahead(self, shared):
        cols = TraceColumns(
            shared.program, TraceExecutor(shared.program, shared.seed)
        )
        cols.require(10)
        assert len(cols) >= 10 + EXTEND_CHUNK - 1
        held = len(cols)
        cols.require(held)  # already held: nothing generated
        assert len(cols) == held

    def test_cached_line_ids_follow_fill(self, shared):
        """A line-id list handed out before an extension stays valid."""
        cols = TraceColumns(
            shared.program, TraceExecutor(shared.program, shared.seed)
        )
        cols.fill(50)
        ids = cols.line_ids(64)
        cols.fill(3000)
        assert cols.line_ids(64) is ids
        assert ids == [pc // 64 for pc in cols.pcs]


class TestSteeringMemo:
    def test_flag_table_version_counts_new_flags_only(self):
        flags = SliceFlagTable("ldst")
        assert flags.version == 0

        class _Dyn:
            def __init__(self, pc, cls):
                self.pc = pc
                self.cls = cls
                self.inst = self

        from repro.isa import InstrClass

        class _Parents:
            def parents_of(self, dyn):
                return ()

        load = _Dyn(0x100, InstrClass.LOAD)
        flags.observe(load, _Parents())
        assert flags.version == 1
        # Re-observing the same pc adds no flag: version must not move
        # (a moving version would needlessly flush the steering memos).
        flags.observe(load, _Parents())
        assert flags.version == 1

    def test_memo_counters_surface_in_metrics(self):
        from repro.telemetry import metrics

        hits0 = metrics.counter("steering.memo.hits").value
        misses0 = metrics.counter("steering.memo.misses").value
        processor = Processor(
            workload("gcc", seed=0),
            ProcessorConfig.default(),
            make_steering("ldst-slice"),
        )
        processor.run(2000, warmup=200)
        hits = metrics.counter("steering.memo.hits").value - hits0
        misses = metrics.counter("steering.memo.misses").value - misses0
        assert misses > 0  # first sight of each pc misses
        assert hits > 0  # loops revisit pcs and hit the memo
        # Every steerable instruction consulted the memo exactly once.
        assert hits + misses > 0

    def test_memo_not_consulted_by_unmemoised_scheme(self):
        from repro.telemetry import metrics

        hits0 = metrics.counter("steering.memo.hits").value
        misses0 = metrics.counter("steering.memo.misses").value
        processor = Processor(
            workload("gcc", seed=0),
            ProcessorConfig.default(),
            make_steering("general-balance"),
        )
        processor.run(1000, warmup=100)
        assert metrics.counter("steering.memo.hits").value == hits0
        assert metrics.counter("steering.memo.misses").value == misses0

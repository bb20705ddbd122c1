"""Unit tests for the dynamic trace executor."""

from repro.isa import InstrClass
from repro.workloads import (
    SharedTrace,
    TraceColumns,
    TraceExecutor,
    reset_trace_stats,
    trace_build_counts,
    workload,
)


def _records(wl, n):
    """The first *n* records of *wl*'s shared trace."""
    shared = wl.shared_trace()
    shared.ensure(n)
    columns = shared.columns()
    return [columns.record(i) for i in range(n)]


def _executor_records(program, seed, n):
    """The first *n* records an independent executor generates."""
    columns = TraceColumns(program, TraceExecutor(program, seed=seed))
    columns.fill(n)
    return columns.to_records()[:n]


def test_trace_is_deterministic():
    a = [r.inst.pc for r in _records(workload("li"), 5000)]
    b = [r.inst.pc for r in _records(workload("li", fresh=True), 5000)]
    assert a == b


def test_trace_seed_changes_outcomes():
    wl = workload("li")
    base = _executor_records(wl.program, 0, 5000)
    other = _executor_records(wl.program, 7, 5000)
    taken_a = [r.taken for r in base if r.inst.is_conditional]
    taken_b = [r.taken for r in other if r.inst.is_conditional]
    assert taken_a != taken_b


def test_trace_follows_cfg_edges():
    """Consecutive records must follow program successor edges."""
    wl = workload("gcc")
    program = wl.program
    records = _records(wl, 5001)
    for prev, record in zip(records, records[1:]):
        inst = prev.inst
        block = program.block_of(inst.pc)
        if inst.pc == block.instructions[-1].pc:
            # block transition
            if inst.is_control and prev.taken:
                expected = program.blocks[block.taken_succ].start_pc
            else:
                expected = program.blocks[block.fall_succ].start_pc
            assert record.inst.pc == expected
        else:
            assert record.inst.pc == inst.pc + 4


def test_memory_records_have_addresses():
    for record in _records(workload("compress"), 3000):
        if record.inst.is_memory:
            assert record.mem_addr >= 0
            assert record.mem_addr % 4 == 0


def test_non_control_records_not_taken():
    for record in _records(workload("go"), 2000):
        if not record.inst.is_control:
            assert not record.taken


def test_jumps_always_taken():
    for record in _records(workload("go"), 5000):
        if record.inst.cls is InstrClass.JUMP:
            assert record.taken


def test_trace_is_endless():
    """The CFG is closed: far more dynamic records than static pcs."""
    wl = workload("compress")
    records = _records(wl, 20000)
    assert len(records) == 20000
    assert len({r.inst.pc for r in records}) <= wl.program.num_instructions


def test_fill_stops_at_a_block_end():
    """``fill`` appends whole blocks: it overshoots *n* by less than one
    block and leaves the last record on a block's terminator."""
    program = workload("gcc").program
    longest = max(len(block.instructions) for block in program.blocks)
    columns = TraceColumns(program, TraceExecutor(program, seed=0))
    for n in (1, 37, 500, 1201):
        columns.fill(n)
        assert n <= len(columns) < n + longest
        last_pc = columns.pcs[-1]
        assert program.block_of(last_pc).instructions[-1].pc == last_pc


def test_live_shared_trace_counts_one_build():
    program = workload("li").program
    reset_trace_stats()
    trace = SharedTrace(program, seed=4)
    trace.ensure(300)
    trace.ensure(900)
    assert trace_build_counts() == {(program.name, 4): 1}
    assert len(trace) >= 900


def test_shared_trace_over_fixed_columns_counts_no_build():
    """A trace over decoded columns generates nothing and is not counted."""
    source = workload("li").shared_trace()
    source.ensure(200)
    cols = source.columns()
    fixed = TraceColumns.from_arrays(
        source.program,
        cols.pcs[:200],
        [cols.record(i).taken for i in range(200)],
        cols.mem_addrs[:200],
    )
    reset_trace_stats()
    trace = SharedTrace(source.program, seed=0, columns=fixed)
    trace.ensure(200)
    assert trace_build_counts() == {}
    assert trace.columns() is fixed
    assert len(trace) == 200

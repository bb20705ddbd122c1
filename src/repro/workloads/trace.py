"""Dynamic trace execution: the committed-path oracle.

The timing simulator is trace-driven: it consumes the committed instruction
stream (with branch outcomes and memory addresses decided here) and models
the machine's timing around it.  This matches the methodology of
trace-driven SimpleScalar timing studies: wrong-path instructions are not
simulated; a mispredicted branch instead stalls fetch until it resolves.

:class:`TraceExecutor` walks the program CFG for ever, sampling branch
outcomes and memory addresses from the per-instruction behaviours attached
to the program.  Iteration is deterministic for a fixed seed.

:class:`SharedTrace` materialises that committed path once and replays it
to any number of simulations: a figure campaign running ten steering
schemes over one benchmark decodes the trace a single time instead of
ten.  Replays are exact — a :class:`TraceReplay` yields the very records
the underlying executor produced, lazily extending the shared buffer when
a consumer runs past the materialised prefix.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Tuple

from ..isa import Instruction
from .program import (
    StaticProgram,
    sample_branch_outcome,
    sample_mem_address,
)


class TraceRecord(NamedTuple):
    """One committed dynamic instruction.

    ``taken`` is meaningful for control instructions, ``mem_addr`` for
    memory instructions (0 otherwise).
    """

    inst: Instruction
    taken: bool
    mem_addr: int


class TraceExecutor:
    """Infinite iterator over the committed path of a program."""

    def __init__(self, program: StaticProgram, seed: int = 0) -> None:
        self.program = program
        self.seed = seed
        self._rng = random.Random(seed * 9176 + 11)
        self._branch_state = {
            pc: [0] for pc in program.branch_behaviors
        }
        self._mem_state: dict = {}
        for pc, behavior in program.mem_behaviors.items():
            self._mem_state[pc] = [0]
        self._block = program.blocks[program.entry]
        self._index = 0
        self._emitted = 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return self

    def __next__(self) -> TraceRecord:
        block = self._block
        inst = block.instructions[self._index]
        taken = False
        mem_addr = 0
        is_last = self._index == len(block.instructions) - 1
        if inst.is_memory:
            behavior = self.program.mem_behaviors[inst.pc]
            mem_addr = sample_mem_address(
                behavior, self._rng, self._mem_state[inst.pc]
            )
        if is_last:
            next_block = block.fall_succ
            if inst.is_control:
                if inst.is_conditional:
                    behavior = self.program.branch_behaviors[inst.pc]
                    taken = sample_branch_outcome(
                        behavior, self._rng, self._branch_state[inst.pc]
                    )
                else:
                    taken = True
                next_block = (
                    block.taken_succ if taken else block.fall_succ
                )
            self._block = self.program.blocks[next_block]
            self._index = 0
        else:
            self._index += 1
        self._emitted += 1
        return TraceRecord(inst, taken, mem_addr)

    @property
    def emitted(self) -> int:
        """Number of records produced so far."""
        return self._emitted

    def skip(self, n: int) -> None:
        """Advance the trace by *n* instructions without yielding them.

        Mirrors the paper's methodology of skipping the first part of each
        benchmark before measuring.
        """
        for _ in range(n):
            next(self)

    def take(self, n: int) -> List[TraceRecord]:
        """Materialise the next *n* records (mainly for tests/analysis)."""
        return list(itertools.islice(self, n))


#: How many records a replay materialises at a time when it outruns the
#: shared buffer.  Large enough to amortise the Python call overhead,
#: small enough that a short smoke run does not decode a huge prefix.
_EXTEND_CHUNK = 2048

#: Builds per (program name, seed) since the last reset — the campaign
#: tests use this to prove a trace is generated exactly once per
#: benchmark/seed pair.
_BUILD_COUNTS: Dict[Tuple[str, int], int] = {}


def trace_build_counts() -> Dict[Tuple[str, int], int]:
    """Snapshot of ``{(program_name, seed): SharedTrace builds}``."""
    return dict(_BUILD_COUNTS)


def reset_trace_stats() -> None:
    """Forget the build counters (test isolation)."""
    _BUILD_COUNTS.clear()


class SharedTrace:
    """A lazily materialised committed path, shared across simulations.

    Wraps one :class:`TraceExecutor` and buffers everything it emits.
    :meth:`replay` hands out independent cursors over the buffer, so many
    processors can consume the same dynamic stream without re-sampling
    branch outcomes or memory addresses.  The buffer grows on demand and
    is append-only, which keeps replays exact and deterministic.

    This trades memory for speed: the buffer retains every record any
    consumer has reached (O(warmup + n) per (bench, seed)), and the
    workload cache keeps it alive for the process lifetime.  At the
    default 25k-instruction windows that is negligible; sessions
    running very large windows over many benchmarks should call
    :func:`repro.workloads.clear_workload_cache` between campaigns.
    """

    def __init__(self, program, seed: int = 0) -> None:
        self.program = program
        self.seed = seed
        self._source = TraceExecutor(program, seed=seed)
        self._records: List[TraceRecord] = []
        self._columns = None
        key = (program.name, seed)
        _BUILD_COUNTS[key] = _BUILD_COUNTS.get(key, 0) + 1

    def __len__(self) -> int:
        """Records materialised so far."""
        return len(self._records)

    def ensure(self, n: int) -> None:
        """Materialise the committed path out to at least *n* records."""
        records = self._records
        source = self._source
        while len(records) < n:
            records.append(next(source))

    def record(self, index: int) -> TraceRecord:
        """The *index*-th committed record (materialising as needed)."""
        if index >= len(self._records):
            self.ensure(index + _EXTEND_CHUNK)
        return self._records[index]

    def replay(self) -> "TraceReplay":
        """A fresh cursor over the shared stream (starts at record 0)."""
        return TraceReplay(self)

    def columns(self):
        """Structure-of-arrays view of the trace, built once and pinned.

        The returned :class:`~repro.workloads.columns.TraceColumns`
        extends in step with this buffer; every simulation of the same
        shared trace reuses the same column set (the pipeline's analogue
        of sharing the record buffer).
        """
        from .columns import TraceColumns

        if self._columns is None:
            self._columns = TraceColumns.for_trace(self)
        else:
            self._columns.sync()
        return self._columns


class TraceReplay:
    """Iterator replaying a :class:`SharedTrace` from the beginning.

    Implements the same surface as :class:`TraceExecutor` (iteration,
    ``skip``, ``take``, ``emitted``) so the fetch unit and the analysis
    helpers cannot tell a replay from a live executor.
    """

    __slots__ = ("_shared", "_pos")

    def __init__(self, shared: SharedTrace) -> None:
        self._shared = shared
        self._pos = 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return self

    def __next__(self) -> TraceRecord:
        record = self._shared.record(self._pos)
        self._pos += 1
        return record

    @property
    def emitted(self) -> int:
        """Number of records produced so far."""
        return self._pos

    def skip(self, n: int) -> None:
        """Advance the replay by *n* records without yielding them."""
        self._shared.ensure(self._pos + n)
        self._pos += n

    def take(self, n: int) -> List[TraceRecord]:
        """Materialise the next *n* records."""
        return list(itertools.islice(self, n))

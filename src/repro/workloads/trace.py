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
ten.  Replays are exact — a :class:`TraceReplay` yields the records the
underlying executor produced, lazily extending the shared columns when a
consumer runs past the materialised prefix.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

from ..isa import Instruction
from .columns import TraceColumns, TraceRecord
from .program import (
    StaticProgram,
    sample_branch_outcome,
    sample_mem_address,
)


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
        return TraceRecord(*self.emit())

    def emit(self) -> Tuple[Instruction, bool, int]:
        """The next committed record as a plain ``(inst, taken,
        mem_addr)`` tuple — the form :class:`TraceColumns` decodes."""
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
        return inst, taken, mem_addr

    @property
    def emitted(self) -> int:
        """Number of records produced so far."""
        return self._emitted

    def skip(self, n: int) -> None:
        """Advance the trace by *n* instructions without yielding them.

        Mirrors the paper's methodology of skipping the first part of each
        benchmark before measuring.
        """
        emit = self.emit
        for _ in range(n):
            emit()

    def take(self, n: int) -> List[TraceRecord]:
        """Materialise the next *n* records (mainly for tests/analysis)."""
        return list(itertools.islice(self, n))


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

    Owns one :class:`~repro.workloads.columns.TraceColumns` set, which
    decodes its :class:`TraceExecutor` on demand and is the only store
    of the records.  :meth:`replay` hands out independent cursors over
    it, so many processors can consume the same dynamic stream without
    re-sampling branch outcomes or memory addresses.  The columns grow
    on demand and are append-only, which keeps replays exact and
    deterministic.

    The columns retain every record any consumer has reached
    (O(warmup + n) per (bench, seed)) for as long as the owning
    :class:`~repro.workloads.Workload` is held; the workload cache does
    not keep it alive on its own.
    """

    def __init__(self, program, seed: int = 0) -> None:
        self.program = program
        self.seed = seed
        self._columns = TraceColumns(
            program, TraceExecutor(program, seed=seed)
        )
        key = (program.name, seed)
        _BUILD_COUNTS[key] = _BUILD_COUNTS.get(key, 0) + 1

    def __len__(self) -> int:
        """Records materialised so far."""
        return len(self._columns)

    def ensure(self, n: int) -> None:
        """Materialise the committed path out to at least *n* records."""
        self._columns.fill(n)

    def record(self, index: int) -> TraceRecord:
        """The *index*-th committed record (materialising as needed)."""
        columns = self._columns
        columns.require(index + 1)
        return columns.record(index)

    def replay(self) -> "TraceReplay":
        """A fresh cursor over the shared stream (starts at record 0)."""
        return TraceReplay(self)

    def columns(self) -> TraceColumns:
        """The structure-of-arrays store every simulation fetches from."""
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

"""Dynamic trace execution: the committed-path oracle.

The timing simulator is trace-driven: it consumes the committed instruction
stream (with branch outcomes and memory addresses decided here) and models
the machine's timing around it.  This matches the methodology of
trace-driven SimpleScalar timing studies: wrong-path instructions are not
simulated; a mispredicted branch instead stalls fetch until it resolves.

:class:`TraceExecutor` walks the program CFG for ever, one basic block at
a time.  Each block has a template, built on its first visit and kept on
the :class:`~repro.workloads.program.StaticProgram` (so it is freed with
the program): the block's instructions, pcs and static flag bits, the
positions and address behaviours of its memory instructions, and its
terminator's branch behaviour.  A visit extends the
:class:`~repro.workloads.columns.TraceColumns` lists from the template,
draws one address per memory instruction in program order, then draws
the terminator's outcome, marks the last record ``TAKEN`` when it is
taken and follows that edge.  Iteration is deterministic for a fixed
seed.

:class:`SharedTrace` materialises that committed path once and replays it
to any number of simulations: a figure campaign running ten steering
schemes over one benchmark generates the trace a single time instead of
ten.  Replays are exact — a :class:`TraceReplay` yields the records the
underlying executor produced, lazily extending the shared columns when a
consumer runs past the materialised prefix.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

from ..isa import Instruction
from .columns import TAKEN, TraceColumns, TraceRecord, base_flags
from .program import StaticProgram

#: Terminator kinds of a block template: fall through (no control
#: terminator), unconditional jump, loop branch, biased branch.
FALL, JUMP, LOOP, BIASED = range(4)


def _block_template(program: StaticProgram, block_id: int) -> tuple:
    """Build, store and return the generation template of one block.

    ``(insts, pcs, flags, zeros, mem, kind, param, term_pc, taken_succ,
    fall_succ)``:

    ``insts``, ``pcs``, ``flags``
        The block's records minus what is drawn per visit.  A jump's
        ``TAKEN`` bit is already set; a conditional terminator's is
        set on the record when its outcome is drawn.
    ``zeros``
        The block's ``mem_addrs`` before addresses are drawn.
    ``mem``
        ``(position, pc, stride, base, span)`` per memory instruction,
        in program order.  A stream (``stride > 0``) walks ``base +
        offset`` with the offset wrapping at ``span``, the region; a
        random behaviour (``stride == 0``) draws a word below ``span``,
        the region's word count.
    ``kind``, ``param``, ``term_pc``
        :data:`FALL`, :data:`JUMP`, :data:`LOOP` (``param`` the trip
        count) or :data:`BIASED` (``param`` the taken probability), and
        the terminator's pc, which keys its loop counter.
    """
    block = program.blocks[block_id]
    insts = tuple(block.instructions)
    flags = [base_flags(inst) for inst in insts]
    mem = tuple(
        (pos, inst.pc, *_mem_params(program.mem_behaviors[inst.pc]))
        for pos, inst in enumerate(insts)
        if inst.is_memory
    )
    last = insts[-1]
    kind, param = FALL, 0
    if last.is_control:
        if last.is_conditional:
            behavior = program.branch_behaviors[last.pc]
            if behavior.kind == "loop":
                kind, param = LOOP, behavior.trip
            else:
                kind, param = BIASED, behavior.taken_prob
        else:
            kind = JUMP
            flags[-1] |= TAKEN
    template = (
        insts,
        tuple(inst.pc for inst in insts),
        tuple(flags),
        (0,) * len(insts),
        mem,
        kind,
        param,
        last.pc,
        block.taken_succ,
        block.fall_succ,
    )
    program.block_templates[block_id] = template
    return template


def _mem_params(behavior) -> Tuple[int, int, int]:
    """``(stride, base, span)`` of a memory behaviour (see the template)."""
    if behavior.kind == "stream":
        return behavior.stride, behavior.base, behavior.region
    return 0, behavior.base, behavior.region // 4


class TraceExecutor:
    """Generator of the committed path of a program, block by block.

    :meth:`fill` appends whole blocks onto a column set; that is how a
    :class:`SharedTrace` grows.  The record iterator (:meth:`emit`,
    ``next()``, :meth:`skip`, :meth:`take`) drains the same block path
    one record at a time.  An executor serves one consumer: its state
    is the position in the path, so mixing the two forms would split
    one path between them.
    """

    def __init__(self, program: StaticProgram, seed: int = 0) -> None:
        self.program = program
        self.seed = seed
        self._rng = random.Random(seed * 9176 + 11)
        #: Per-pc loop-branch counters and stream offsets.
        self._loop_state: Dict[int, int] = dict.fromkeys(
            program.branch_behaviors, 0
        )
        self._mem_state: Dict[int, int] = dict.fromkeys(
            program.mem_behaviors, 0
        )
        self._block = program.entry
        #: The iterator form's records of the current block, and the
        #: index of the next one to hand out.
        self._pending = TraceColumns(program)
        self._pos = 0
        self._emitted = 0

    def fill(self, columns: TraceColumns, n: int) -> None:
        """Append whole blocks onto *columns* until they hold at least
        *n* records (so up to one block more)."""
        program = self.program
        templates = program.block_templates
        rng_random = self._rng.random
        randrange = self._rng.randrange
        loop_state = self._loop_state
        mem_state = self._mem_state
        insts = columns.insts
        pcs = columns.pcs
        flags = columns.flags
        addrs = columns.mem_addrs
        size = len(pcs)
        block = self._block
        while size < n:
            template = templates[block]
            if template is None:
                template = _block_template(program, block)
            (b_insts, b_pcs, b_flags, zeros, mem, kind, param, term_pc,
             taken_succ, fall_succ) = template
            insts.extend(b_insts)
            pcs.extend(b_pcs)
            flags.extend(b_flags)
            addrs.extend(zeros)
            for pos, pc, stride, base, span in mem:
                if stride:
                    offset = mem_state[pc]
                    addrs[size + pos] = base + offset
                    mem_state[pc] = (offset + stride) % span
                else:
                    addrs[size + pos] = base + randrange(span) * 4
            size += len(b_pcs)
            if kind == LOOP:
                count = loop_state[term_pc] + 1
                taken = count < param
                loop_state[term_pc] = count if taken else 0
            elif kind == BIASED:
                taken = rng_random() < param
            else:
                block = taken_succ if kind == JUMP else fall_succ
                continue
            if taken:
                flags[-1] |= TAKEN
                block = taken_succ
            else:
                block = fall_succ
        self._block = block

    def __iter__(self) -> Iterator[TraceRecord]:
        return self

    def __next__(self) -> TraceRecord:
        return TraceRecord(*self.emit())

    def emit(self) -> Tuple[Instruction, bool, int]:
        """The next committed record as a plain ``(inst, taken,
        mem_addr)`` tuple."""
        pending = self._pending
        pos = self._pos
        if pos == len(pending.pcs):
            pending = self._pending = TraceColumns(self.program)
            self.fill(pending, 1)
            pos = 0
        self._pos = pos + 1
        self._emitted += 1
        return (
            pending.insts[pos],
            (pending.flags[pos] & TAKEN) != 0,
            pending.mem_addrs[pos],
        )

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
    its :class:`TraceExecutor` fills on demand and which is the only
    store of the records.  :meth:`replay` hands out independent cursors over
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
        """Materialise the committed path out to at least *n* records
        (whole blocks, so up to one block more)."""
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

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
taken and follows that edge.  The path is deterministic for a fixed
seed.

:class:`SharedTrace` materialises that committed path once, as columns,
for any number of simulations: a figure campaign running ten steering
schemes over one benchmark generates the trace a single time instead of
ten.  Every reader indexes the same append-only columns, extending them
when it runs past the materialised prefix.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from .columns import TAKEN, TraceColumns, base_flags
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
    :class:`SharedTrace` grows.  The executor's state is its position in
    the path, so it serves the one column set it fills.
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

    Owns one :class:`~repro.workloads.columns.TraceColumns` set, the
    only store of the records, which many processors read without
    re-sampling branch outcomes or memory addresses.  By default the
    set is live: the trace builds a :class:`TraceExecutor` that fills
    it on demand, append-only, and counts as one build in
    :func:`trace_build_counts`.  Given *columns* (a fixed-length set
    decoded from an ``.rtrace`` document) nothing is generated or
    counted, and reading past the recorded end raises
    :class:`~repro.errors.ScenarioError`.

    The columns retain every record any consumer has reached
    (O(warmup + n) per (bench, seed)) for as long as the owning
    :class:`~repro.workloads.Workload` is held; the workload cache does
    not keep it alive on its own.
    """

    def __init__(
        self, program, seed: int = 0, columns: Optional[TraceColumns] = None
    ) -> None:
        self.program = program
        self.seed = seed
        if columns is None:
            columns = TraceColumns(program, TraceExecutor(program, seed=seed))
            key = (program.name, seed)
            _BUILD_COUNTS[key] = _BUILD_COUNTS.get(key, 0) + 1
        self._columns = columns

    def __len__(self) -> int:
        """Records materialised so far."""
        return len(self._columns)

    def ensure(self, n: int) -> None:
        """Materialise the committed path out to at least *n* records
        (whole blocks, so up to one block more)."""
        self._columns.fill(n)

    def columns(self) -> TraceColumns:
        """The structure-of-arrays store every simulation fetches from."""
        return self._columns


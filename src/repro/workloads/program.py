"""Static program representation: basic blocks, behaviours, CFG.

A :class:`StaticProgram` is a closed control-flow graph of
:class:`BasicBlock` objects.  Every block ends in a terminator (conditional
branch or jump) whose successors stay inside the program, so the dynamic
instruction stream is infinite — the paper simulates a 100M-instruction
window of much longer executions, and we likewise simulate a window of an
endless synthetic execution.

Besides the instructions themselves, the program records the *behaviour*
of every conditional branch (how its outcome stream looks) and of every
memory instruction (how its address stream looks).  The timing simulator is
trace-driven: outcomes and addresses come from these behaviours via the
:class:`~repro.workloads.trace.TraceExecutor` oracle, which keeps one
generation template per visited block in
:attr:`StaticProgram.block_templates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..errors import WorkloadError
from ..isa import Instruction


@dataclass(frozen=True)
class BranchBehavior:
    """Outcome model of one static conditional branch.

    Two families cover the predictability spectrum:

    * ``kind="loop"`` — taken ``trip - 1`` consecutive times, then
      not-taken once, repeating.  Two-bit counters predict these almost
      perfectly for non-trivial trip counts.
    * ``kind="biased"`` — independent Bernoulli outcomes with probability
      ``taken_prob``.  Near 0.5 these defeat any predictor.
    """

    kind: str  # "loop" | "biased"
    taken_prob: float = 0.5
    trip: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("loop", "biased"):
            raise WorkloadError(f"unknown branch behaviour kind {self.kind!r}")
        if self.kind == "loop" and self.trip < 2:
            raise WorkloadError("loop behaviour needs trip >= 2")
        if not 0.0 <= self.taken_prob <= 1.0:
            raise WorkloadError("taken_prob must lie in [0, 1]")


@dataclass(frozen=True)
class MemBehavior:
    """Address model of one static memory instruction.

    * ``kind="stream"`` — sequential walk ``base, base+stride, ...``
      wrapping inside ``region`` bytes.  Hits most of the time with 32-byte
      lines.
    * ``kind="random"`` — uniform random word inside ``region`` bytes
      starting at ``base``.  Misses once the region exceeds the cache.
    """

    kind: str  # "stream" | "random"
    base: int
    region: int
    stride: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("stream", "random"):
            raise WorkloadError(f"unknown memory behaviour kind {self.kind!r}")
        if self.region <= 0 or self.base < 0:
            raise WorkloadError("memory behaviour needs region > 0, base >= 0")
        if self.kind == "stream" and self.stride <= 0:
            raise WorkloadError("stream behaviour needs a positive stride")


class BasicBlock:
    """A straight-line instruction sequence with a single terminator.

    Attributes
    ----------
    block_id:
        Dense index of the block inside its program.
    instructions:
        The instructions in program order.  The last one is the terminator
        when :attr:`terminator` is not ``None``; otherwise the block falls
        through to :attr:`fall_through`.
    taken_succ / fall_succ:
        Successor block ids for the taken and fall-through edges.  Jumps
        only use ``taken_succ``.
    """

    def __init__(
        self,
        block_id: int,
        instructions: List[Instruction],
        taken_succ: Optional[int] = None,
        fall_succ: Optional[int] = None,
    ) -> None:
        if not instructions:
            raise WorkloadError(f"basic block {block_id} is empty")
        self.block_id = block_id
        self.instructions = instructions
        self.taken_succ = taken_succ
        self.fall_succ = fall_succ

    @property
    def terminator(self) -> Optional[Instruction]:
        """The control instruction ending the block, if any."""
        last = self.instructions[-1]
        return last if last.is_control else None

    @property
    def start_pc(self) -> int:
        """PC of the first instruction."""
        return self.instructions[0].pc

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return (
            f"<BasicBlock {self.block_id} pc={self.start_pc:#x} "
            f"len={len(self.instructions)}>"
        )


class StaticProgram:
    """A closed CFG plus the behaviours driving its dynamic execution."""

    def __init__(
        self,
        name: str,
        blocks: List[BasicBlock],
        entry: int = 0,
        branch_behaviors: Optional[Dict[int, BranchBehavior]] = None,
        mem_behaviors: Optional[Dict[int, MemBehavior]] = None,
    ) -> None:
        self.name = name
        self.blocks = blocks
        self.entry = entry
        self.branch_behaviors = dict(branch_behaviors or {})
        self.mem_behaviors = dict(mem_behaviors or {})
        #: Per-block generation templates, built by the trace executor
        #: on a block's first visit (``None`` until then).
        self.block_templates: List[Optional[tuple]] = [None] * len(blocks)
        self._by_pc: Dict[int, Instruction] = {}
        self._block_of_pc: Dict[int, int] = {}
        for block in blocks:
            for inst in block:
                if inst.pc in self._by_pc:
                    raise WorkloadError(f"duplicate pc {inst.pc:#x}")
                self._by_pc[inst.pc] = inst
                self._block_of_pc[inst.pc] = block.block_id
        self._validate()

    def _validate(self) -> None:
        n = len(self.blocks)
        if not 0 <= self.entry < n:
            raise WorkloadError(f"entry block {self.entry} out of range")
        for block in self.blocks:
            if block.block_id != self.blocks[block.block_id].block_id:
                raise WorkloadError("block ids must be dense indices")
            term = block.terminator
            if term is None:
                if block.fall_succ is None:
                    raise WorkloadError(
                        f"block {block.block_id} has no terminator and no "
                        f"fall-through successor"
                    )
            else:
                if block.taken_succ is None:
                    raise WorkloadError(
                        f"block {block.block_id} terminator lacks a taken "
                        f"successor"
                    )
                if term.is_conditional:
                    if block.fall_succ is None:
                        raise WorkloadError(
                            f"block {block.block_id} conditional branch lacks "
                            f"a fall-through successor"
                        )
                    if term.pc not in self.branch_behaviors:
                        raise WorkloadError(
                            f"conditional branch at {term.pc:#x} has no "
                            f"behaviour"
                        )
            for succ in (block.taken_succ, block.fall_succ):
                if succ is not None and not 0 <= succ < n:
                    raise WorkloadError(
                        f"block {block.block_id} successor {succ} out of range"
                    )
            for inst in block:
                if inst.is_memory and inst.pc not in self.mem_behaviors:
                    raise WorkloadError(
                        f"memory instruction at {inst.pc:#x} has no behaviour"
                    )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def instruction_at(self, pc: int) -> Instruction:
        """Return the static instruction at *pc* (raises on a bad pc)."""
        try:
            return self._by_pc[pc]
        except KeyError:
            raise WorkloadError(f"no instruction at pc {pc:#x}") from None

    def block_of(self, pc: int) -> BasicBlock:
        """Return the block containing *pc*."""
        return self.blocks[self._block_of_pc[pc]]

    def all_instructions(self) -> Iterator[Instruction]:
        """Iterate over every static instruction in program order."""
        for block in self.blocks:
            yield from block

    @property
    def num_instructions(self) -> int:
        """Total static instruction count."""
        return len(self._by_pc)

    def __repr__(self) -> str:
        return (
            f"<StaticProgram {self.name!r} blocks={len(self.blocks)} "
            f"instructions={self.num_instructions}>"
        )


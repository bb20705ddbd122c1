"""Structure-of-arrays form of a committed trace (the columnar core).

:class:`TraceColumns` holds one workload's committed path as parallel
arrays — static :class:`~repro.isa.Instruction` references, program
counters, packed per-record flags and memory addresses — instead of a
list of per-record tuples.  The pipeline's fetch unit indexes these
arrays directly: every simulation fetches from columns, with no
per-record iterator or method-call chain.

The columns are the only store of a trace's records.  A column set is
either *live* — it owns a :class:`~repro.workloads.trace.TraceExecutor`,
which appends whole basic blocks to the lists on demand (the set behind
every :class:`~repro.workloads.trace.SharedTrace`) — or *fixed-length*:
:meth:`TraceColumns.from_arrays` builds the lists from an ``.rtrace``
document's ``pc``/``taken``/``addr`` columns, with one lookup per
distinct pc, and reading past their end raises
:class:`~repro.errors.ScenarioError`.  :class:`TraceRecord` tuples are
built on demand (:meth:`TraceColumns.record`) for the analysis helpers
and tests that consume the record form.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

from ..errors import ScenarioError
from ..isa import Instruction

#: Packed per-record flag bits (``TraceColumns.flags``).
TAKEN = 1
CONTROL = 2
CONDITIONAL = 4
MEMORY = 8

#: How many records a live column set generates at a time when a reader
#: runs past its end.  Large enough to amortise the per-call overhead,
#: small enough that a short smoke run does not generate a huge prefix.
EXTEND_CHUNK = 2048


class TraceRecord(NamedTuple):
    """One committed dynamic instruction.

    ``taken`` is meaningful for control instructions, ``mem_addr`` for
    memory instructions (0 otherwise).
    """

    inst: Instruction
    taken: bool
    mem_addr: int


def base_flags(inst) -> int:
    """The static (taken-independent) flag bits of one instruction."""
    base = 0
    if inst.is_control:
        base |= CONTROL
    if inst.is_conditional:
        base |= CONDITIONAL
    if inst.is_memory:
        base |= MEMORY
    return base


class TraceColumns:
    """Parallel per-record arrays over one committed instruction stream.

    Attributes (all lists of equal length, one entry per record):

    ``insts``
        The static :class:`~repro.isa.Instruction` at each record.
    ``pcs``
        Program counter of each record.
    ``flags``
        Packed ``TAKEN | CONTROL | CONDITIONAL | MEMORY`` bits.
    ``mem_addrs``
        Effective address for memory records (0 otherwise).

    Plain Python lists are deliberate: the hot loops index one element
    at a time, where list indexing beats array or numpy scalar access.

    *source*, when given, is the
    :class:`~repro.workloads.trace.TraceExecutor` that appends further
    records (:meth:`fill`); without one the set has a fixed length.
    """

    __slots__ = (
        "program",
        "insts",
        "pcs",
        "flags",
        "mem_addrs",
        "_line_cache",
        "_source",
    )

    def __init__(self, program, source=None) -> None:
        self.program = program
        self.insts: List[Instruction] = []
        self.pcs: List[int] = []
        self.flags: List[int] = []
        self.mem_addrs: List[int] = []
        #: line_bytes -> per-record I-cache line ids (extended in step
        #: with the record columns, so cached lists stay valid).
        self._line_cache: Dict[int, List[int]] = {}
        self._source = source

    @classmethod
    def from_arrays(
        cls,
        program,
        pcs: Sequence[int],
        taken: Sequence[int],
        addrs: Sequence[int],
    ) -> "TraceColumns":
        """Build a fixed-length set from ``.rtrace`` record columns.

        The arrays are the wire format of the ``records`` section of an
        ``.rtrace`` document.  Each distinct pc is looked up in
        *program* once; reading past the end of the result raises
        :class:`ScenarioError`.
        """
        self = cls(program)
        inst_of = {pc: program.instruction_at(pc) for pc in set(pcs)}
        flags_of = {pc: base_flags(inst) for pc, inst in inst_of.items()}
        self.insts = [inst_of[pc] for pc in pcs]
        self.pcs = list(pcs)
        self.flags = [
            flags_of[pc] | TAKEN if t else flags_of[pc]
            for pc, t in zip(pcs, taken)
        ]
        self.mem_addrs = list(addrs)
        return self

    # ------------------------------------------------------------------
    # Length / extension protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Records held in the columns so far."""
        return len(self.pcs)

    def fill(self, n: int) -> None:
        """Have the source append whole blocks until at least *n*
        records are held.

        A fixed-length set raises :class:`~repro.errors.ScenarioError`
        instead.
        """
        start = len(self.pcs)
        if n <= start:
            return
        source = self._source
        if source is None:
            raise ScenarioError(
                f"trace of {self.program.name!r} holds {start} records "
                f"but {n} were requested; re-export the trace with a "
                f"larger --records"
            )
        source.fill(self, n)
        if self._line_cache:
            new_pcs = self.pcs[start:]
            for line_bytes, ids in self._line_cache.items():
                ids.extend(pc // line_bytes for pc in new_pcs)

    def require(self, n: int) -> None:
        """Make at least *n* records available, or raise.

        A live set generates ahead in chunks of :data:`EXTEND_CHUNK`
        records; a fixed-length set raises
        :class:`~repro.errors.ScenarioError`.
        """
        if n > len(self.pcs):
            if self._source is not None:
                n += EXTEND_CHUNK - 1
            self.fill(n)

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def line_ids(self, line_bytes: int) -> List[int]:
        """Per-record I-cache line ids (``pc // line_bytes``), cached.

        The cached list is extended in place by :meth:`fill`, so hot
        loops may hold a reference across extensions.
        """
        ids = self._line_cache.get(line_bytes)
        if ids is None:
            ids = [pc // line_bytes for pc in self.pcs]
            self._line_cache[line_bytes] = ids
        return ids

    # ------------------------------------------------------------------
    # The record form
    # ------------------------------------------------------------------
    def record(self, index: int) -> TraceRecord:
        """The *index*-th record as a :class:`TraceRecord` (no extension)."""
        return TraceRecord(
            self.insts[index],
            (self.flags[index] & TAKEN) != 0,
            self.mem_addrs[index],
        )

    def to_records(self) -> List[TraceRecord]:
        """Every held record as a :class:`TraceRecord` list."""
        return [self.record(i) for i in range(len(self.pcs))]

    def __len__(self) -> int:
        return len(self.pcs)

    def __repr__(self) -> str:
        name = getattr(self.program, "name", "?")
        return f"<TraceColumns {name!r} n={len(self.pcs)}>"

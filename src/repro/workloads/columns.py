"""Structure-of-arrays form of a committed trace (the columnar core).

:class:`TraceColumns` holds one workload's committed path as parallel
arrays — static :class:`~repro.isa.Instruction` references, program
counters, packed per-record flags, memory addresses and dense static
(slice) ids — instead of a list of per-record tuples.  The pipeline's
fetch unit indexes these arrays directly: every simulation fetches from
columns, with no per-record iterator or method-call chain.

The columns are the only store of a trace's records.  A column set is
either *live* — it owns a :class:`~repro.workloads.trace.TraceExecutor`
and decodes further records from it on demand (the set behind every
:class:`~repro.workloads.trace.SharedTrace`) — or *fixed-length*:
:meth:`TraceColumns.from_arrays` decodes an ``.rtrace`` document's
``pc``/``taken``/``addr`` columns, and reading past their end raises
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

#: How many records a live column set decodes at a time when a reader
#: runs past its end.  Large enough to amortise the per-call overhead,
#: small enough that a short smoke run does not decode a huge prefix.
EXTEND_CHUNK = 2048


class TraceRecord(NamedTuple):
    """One committed dynamic instruction.

    ``taken`` is meaningful for control instructions, ``mem_addr`` for
    memory instructions (0 otherwise).
    """

    inst: Instruction
    taken: bool
    mem_addr: int


def _base_flags(inst) -> int:
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
    ``static_ids``
        Dense per-static-instruction index (first-seen order) — the
        compact slice-id key steering memo tables use instead of sparse
        PCs.  Stable within one :class:`TraceColumns`.

    Plain Python lists are deliberate: the hot loops index one element
    at a time, where list indexing beats array or numpy scalar access.

    *source*, when given, is the
    :class:`~repro.workloads.trace.TraceExecutor` the set decodes
    further records from (:meth:`fill`); without one the set has a
    fixed length.
    """

    __slots__ = (
        "program",
        "insts",
        "pcs",
        "flags",
        "mem_addrs",
        "static_ids",
        "_per_pc",
        "_line_cache",
        "_source",
    )

    def __init__(self, program, source=None) -> None:
        self.program = program
        self.insts: List[Instruction] = []
        self.pcs: List[int] = []
        self.flags: List[int] = []
        self.mem_addrs: List[int] = []
        self.static_ids: List[int] = []
        #: pc -> (instruction, base flags, static id) build cache.
        self._per_pc: Dict[int, tuple] = {}
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
        """Decode ``.rtrace`` record columns directly (no TraceRecords).

        The arrays are the wire format of the ``records`` section of an
        ``.rtrace`` document; the result is a fixed-length column set
        (reading past the end raises :class:`ScenarioError`).
        """
        self = cls(program)
        info = self._pc_info
        self._append(
            (info(pc)[0], t, addr) for pc, t, addr in zip(pcs, taken, addrs)
        )
        return self

    def _pc_info(self, pc: int) -> tuple:
        """(instruction, base flags, static id) of *pc*, cached."""
        per_pc = self._per_pc
        tup = per_pc.get(pc)
        if tup is None:
            inst = self.program.instruction_at(pc)
            tup = (inst, _base_flags(inst), len(per_pc))
            per_pc[pc] = tup
        return tup

    def _append(self, records) -> None:
        """Decode ``(inst, taken, mem_addr)`` triples onto the columns."""
        start = len(self.pcs)
        per_pc = self._per_pc
        info = self._pc_info
        out_insts = self.insts
        out_pcs = self.pcs
        out_flags = self.flags
        out_addrs = self.mem_addrs
        out_sids = self.static_ids
        for inst, taken, addr in records:
            pc = inst.pc
            tup = per_pc.get(pc)
            if tup is None:
                tup = info(pc)
            base = tup[1]
            out_insts.append(inst)
            out_pcs.append(pc)
            out_flags.append(base | TAKEN if taken else base)
            out_addrs.append(addr)
            out_sids.append(tup[2])
        if self._line_cache:
            new_pcs = out_pcs[start:]
            for line_bytes, ids in self._line_cache.items():
                ids.extend(pc // line_bytes for pc in new_pcs)

    # ------------------------------------------------------------------
    # Length / extension protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Records decoded into the columns so far."""
        return len(self.pcs)

    def fill(self, n: int) -> None:
        """Decode records from the source until at least *n* are held.

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
        emit = source.emit
        self._append(emit() for _ in range(n - start))

    def require(self, n: int) -> None:
        """Make at least *n* records available, or raise.

        A live set decodes ahead in chunks of :data:`EXTEND_CHUNK`
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
        """Every decoded record as a :class:`TraceRecord` list."""
        return [self.record(i) for i in range(len(self.pcs))]

    def __len__(self) -> int:
        return len(self.pcs)

    def __repr__(self) -> str:
        name = getattr(self.program, "name", "?")
        return f"<TraceColumns {name!r} n={len(self.pcs)}>"

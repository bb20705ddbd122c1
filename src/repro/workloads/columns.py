"""Structure-of-arrays form of a committed trace (the columnar core).

:class:`TraceColumns` holds one workload's committed path as parallel
arrays — static :class:`~repro.isa.Instruction` references, program
counters, packed per-record flags, memory addresses and dense static
(slice) ids — instead of a list of per-record tuples.  The pipeline's
fetch unit indexes these arrays directly: every simulation fetches from
columns, with no per-record iterator or method-call chain.

Columns are built once per shared trace and pinned alongside it:

* :meth:`TraceColumns.for_trace` wraps a live
  :class:`~repro.workloads.trace.SharedTrace` (or a record-backed frozen
  trace) and extends lazily as the underlying buffer grows;
* :meth:`TraceColumns.from_arrays` decodes an ``.rtrace`` document's
  ``pc``/``taken``/``addr`` columns straight into DynInst-ready arrays
  without materialising intermediate ``TraceRecord`` tuples — the
  ``import_trace(..., columnar=True)`` fast path.

The numpy kernel (bulk line-id computation for the I-cache line checks)
is optional: it engages only when numpy is importable, only for the
initial bulk build, and produces exactly the integers the pure-Python
fallback does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import ScenarioError

try:  # Optional bulk-build kernel; the container may lack numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - environment-dependent
    _np = None

#: Packed per-record flag bits (``TraceColumns.flags``).
TAKEN = 1
CONTROL = 2
CONDITIONAL = 4
MEMORY = 8


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
    at a time, where list indexing beats numpy scalar access.  numpy is
    used only for the bulk :meth:`line_ids` build.
    """

    __slots__ = (
        "program",
        "insts",
        "pcs",
        "flags",
        "mem_addrs",
        "static_ids",
        "_per_pc",
        "_pc_ids",
        "_line_cache",
        "_trace",
    )

    def __init__(self, program) -> None:
        self.program = program
        self.insts: List[object] = []
        self.pcs: List[int] = []
        self.flags: List[int] = []
        self.mem_addrs: List[int] = []
        self.static_ids: List[int] = []
        #: pc -> (instruction, base flags, static id) build cache.
        self._per_pc: Dict[int, tuple] = {}
        self._pc_ids: Dict[int, int] = {}
        #: line_bytes -> per-record I-cache line ids (extended in step
        #: with the record columns, so cached lists stay valid).
        self._line_cache: Dict[int, List[int]] = {}
        #: Backing trace for lazy extension (None = fixed length).
        self._trace = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_trace(cls, trace) -> "TraceColumns":
        """Columns over *trace*'s record buffer, extending on demand."""
        self = cls(trace.program)
        self._trace = trace
        self.sync()
        return self

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
        out_insts = self.insts
        out_pcs = self.pcs
        out_flags = self.flags
        out_addrs = self.mem_addrs
        out_sids = self.static_ids
        for pc, t, addr in zip(pcs, taken, addrs):
            inst, base, sid = info(pc)
            out_insts.append(inst)
            out_pcs.append(pc)
            out_flags.append(base | TAKEN if t else base)
            out_addrs.append(addr)
            out_sids.append(sid)
        return self

    def _pc_info(self, pc: int) -> tuple:
        """(instruction, base flags, static id) of *pc*, cached."""
        tup = self._per_pc.get(pc)
        if tup is None:
            inst = self.program.instruction_at(pc)
            sid = self._pc_ids.setdefault(pc, len(self._pc_ids))
            tup = (inst, _base_flags(inst), sid)
            self._per_pc[pc] = tup
        return tup

    # ------------------------------------------------------------------
    # Length / extension protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Records decoded into the columns so far."""
        return len(self.pcs)

    def sync(self) -> None:
        """Pull records the backing trace materialised since last sync."""
        trace = self._trace
        if trace is None:
            return
        records = trace._records
        if records is None:
            return
        start = len(self.pcs)
        if start >= len(records):
            return
        info = self._pc_info
        out_insts = self.insts
        out_pcs = self.pcs
        out_flags = self.flags
        out_addrs = self.mem_addrs
        out_sids = self.static_ids
        for record in records[start:]:
            inst = record.inst
            pc = inst.pc
            _, base, sid = info(pc)
            out_insts.append(inst)
            out_pcs.append(pc)
            out_flags.append(base | TAKEN if record.taken else base)
            out_addrs.append(record.mem_addr)
            out_sids.append(sid)
        if self._line_cache:
            new_pcs = out_pcs[start:]
            for line_bytes, ids in self._line_cache.items():
                ids.extend(pc // line_bytes for pc in new_pcs)

    def require(self, n: int) -> None:
        """Make at least *n* records available, or raise.

        A live shared trace extends its buffer (in the same chunks
        ``record`` uses); a frozen trace raises
        :class:`~repro.errors.ScenarioError` with the same message the
        record path produces.
        """
        if n <= len(self.pcs):
            return
        trace = self._trace
        if trace is None:
            raise ScenarioError(
                f"trace columns hold {len(self.pcs)} records but {n} "
                f"were requested"
            )
        trace.record(n - 1)  # extends (chunked) or raises ScenarioError
        self.sync()
        if n > len(self.pcs):  # pragma: no cover - defensive
            raise ScenarioError(
                f"trace columns could not extend to {n} records"
            )

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def line_ids(self, line_bytes: int) -> List[int]:
        """Per-record I-cache line ids (``pc // line_bytes``), cached.

        The cached list is extended in place by :meth:`sync`, so hot
        loops may hold a reference across extensions.  The initial bulk
        build vectorises through numpy when available.
        """
        ids = self._line_cache.get(line_bytes)
        if ids is None:
            if _np is not None and len(self.pcs) > 512:
                ids = (
                    _np.asarray(self.pcs, dtype=_np.int64) // line_bytes
                ).tolist()
            else:
                ids = [pc // line_bytes for pc in self.pcs]
            self._line_cache[line_bytes] = ids
        return ids

    # ------------------------------------------------------------------
    # Interop with the record form
    # ------------------------------------------------------------------
    def to_records(self) -> list:
        """Materialise the classic ``TraceRecord`` list."""
        from .trace import TraceRecord

        insts = self.insts
        flags = self.flags
        addrs = self.mem_addrs
        return [
            TraceRecord(insts[i], (flags[i] & TAKEN) != 0, addrs[i])
            for i in range(len(insts))
        ]

    def __len__(self) -> int:
        return len(self.pcs)

    def __repr__(self) -> str:
        name = getattr(self.program, "name", "?")
        return f"<TraceColumns {name!r} n={len(self.pcs)}>"

"""FIFO-collection issue queue (Palacharla, Jouppi & Smith [15]).

Section 3.9 of the paper compares its steering schemes against the
complexity-effective design where each cluster's window is a collection of
FIFOs (8 FIFOs, each 8 deep, per cluster) and only FIFO *heads* are
candidates for issue.  The steering invariant is that a FIFO holds a chain
of dependent instructions: an instruction is appended to a FIFO whose tail
produces one of its operands; otherwise it must start an empty FIFO.

The placement heuristic implemented here follows the original paper:

1. if some source operand's producer sits at the *tail* of a non-full
   FIFO, append there (the dependence chain continues);
2. otherwise pick an empty FIFO;
3. otherwise the instruction cannot be placed this cycle (dispatch
   stalls) — :meth:`placement_for` returns ``None``.

The processor's dispatch is more pessimistic than step 3: it reserves
window space *before* renaming, when the consumer's providers are not
yet known, so every instruction and copy it reserves for needs an empty
FIFO (:meth:`can_accept` counts them).  Dispatch therefore stalls
whenever the chosen cluster has no empty FIFO — even when the
instruction could have joined a chain at a tail.  See
:meth:`~repro.pipeline.processor.Processor._reserve_window`.

Head-only select needs no rule of its own.  An entry joins a FIFO only
behind a tail that produces one of its operands, and a window entry has
not issued, so every entry behind a head has an operand pending: the
entries with no pending operand are exactly the ready heads.  The ready
list therefore follows the conventional window's rule (an entry joins
it when its pending-operand counter reaches zero), keyed by
``iq_rank``, which a FIFO entry takes from its ``seq`` when placed:
candidate order among heads is sequence order, matching the age-ordered
select.

:meth:`placement_for` / :meth:`insert` (a linear scan), :meth:`remove`
and :meth:`entries_oldest_first` are the reference the oracle
(:class:`~repro.pipeline.reference.ScanProcessor`) and the unfused
dispatch helper use.  The event pipeline's stages read and
write the state directly, as they do an
:class:`~repro.cluster.iq.IssueQueue`'s: the fused dispatch loop places
through the ``seq -> FIFO`` index ``_where``, the issue stage pops
issued heads, and FIFO steering finds tails through ``_where``.  The
stages keep these fields consistent:

* ``_where`` maps exactly the queued seqs to their FIFO indexes, so its
  length is the occupancy;
* ``_n_empty`` counts the empty FIFOs;
* ``_ready`` is sorted by seq and holds exactly the entries with no
  pending operands.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import SimulationError
from ..isa import DynInst

_BY_SEQ = attrgetter("seq")


class FifoIssueQueue:
    """A cluster window organised as FIFOs of dependent instructions."""

    def __init__(self, n_fifos: int = 8, depth: int = 8, name: str = "fifo-iq") -> None:
        if n_fifos <= 0 or depth <= 0:
            raise SimulationError(f"{name}: FIFO geometry must be positive")
        self.n_fifos = n_fifos
        self.depth = depth
        self.name = name
        self.capacity = n_fifos * depth
        self._fifos: List[List[DynInst]] = [[] for _ in range(n_fifos)]
        #: seq -> index of the FIFO holding the entry (O(1) remove).
        self._where: Dict[int, int] = {}
        #: Ready heads as (seq, head), kept sorted by seq.
        self._ready: List[Tuple[int, DynInst]] = []
        #: Empty FIFOs: the fused dispatch reservation compares against it.
        self._n_empty = n_fifos

    def __len__(self) -> int:
        return len(self._where)

    def __iter__(self) -> Iterator[DynInst]:
        for fifo in self._fifos:
            yield from fifo

    def placement_for(self, dyn: DynInst) -> Optional[int]:
        """FIFO index the heuristic would place *dyn* in, or ``None``."""
        for index, fifo in enumerate(self._fifos):
            if fifo and len(fifo) < self.depth:
                tail = fifo[-1]
                if any(p is tail for p in dyn.providers):
                    return index
        for index, fifo in enumerate(self._fifos):
            if not fifo:
                return index
        return None

    def can_accept(self, n: int = 1) -> bool:
        """True when *n* instructions with no queued provider fit: each
        needs an empty FIFO (the dispatch reservation)."""
        return self._fifos.count([]) >= n

    def insert(self, dyn: DynInst) -> bool:
        """Place *dyn* by the heuristic; ``False`` when no FIFO can take it."""
        index = self.placement_for(dyn)
        if index is None:
            return False
        fifo = self._fifos[index]
        fifo.append(dyn)
        self._where[dyn.seq] = index
        dyn.iq_rank = dyn.seq
        if len(fifo) == 1:
            self._n_empty -= 1
            if not dyn.pending_ops:
                insort(self._ready, (dyn.seq, dyn))
        return True

    def remove(self, dyn: DynInst) -> None:
        """Remove an issued instruction; it must be a FIFO head."""
        index = self._where.get(dyn.seq)
        if index is None or self._fifos[index][0] is not dyn:
            raise SimulationError(
                f"{self.name}: removing instruction that is not a FIFO head"
            )
        fifo = self._fifos[index]
        del fifo[0]
        del self._where[dyn.seq]
        if not fifo:
            self._n_empty += 1
        if self._ready:
            try:
                self._ready.remove((dyn.seq, dyn))
            except ValueError:
                pass

    def entries_oldest_first(self) -> List[DynInst]:
        """Issue candidates: the FIFO heads, oldest first."""
        heads = [fifo[0] for fifo in self._fifos if fifo]
        heads.sort(key=_BY_SEQ)
        return heads

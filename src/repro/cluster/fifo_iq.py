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
   stalls) — reported by :meth:`can_accept`.

The processor's dispatch is more pessimistic than step 3: it reserves
window space *before* renaming, when the consumer's providers are not
yet known, so it stalls whenever the chosen cluster has no empty FIFO
(and the other cluster has fewer empty FIFOs than copies to create) —
even when the instruction could have joined a chain at a tail.  See
:meth:`~repro.pipeline.processor.Processor._reserve_window`.

Placement comes in two forms that make the same choice.
:meth:`placement_for` (and its multi-instruction dry run
:meth:`plan_insertions`) scans the FIFOs linearly; it is the reference
the scan oracle uses.  :meth:`place` looks each provider up in the
``seq -> FIFO`` index ``_where`` and falls back to the lowest empty
FIFO, whose count ``_n_empty`` is kept up to date so the dispatch
reservation is a single comparison.  :meth:`tails_producing` uses the
same index.

The event pipeline's stages read and write this state directly, as
they do an :class:`~repro.cluster.iq.IssueQueue`'s: the wakeup calendar
applies :meth:`mark_ready`'s rule, the issue stage enrols the deferred
heads and pops issued ones (:meth:`ready_view`, :meth:`issue_ready`),
the fused dispatch loop applies :meth:`place`, and FIFO steering reads
:meth:`tails_producing`'s and :meth:`occupancy`'s answers off
``_where``, ``_fifos`` and ``_size``.  Those methods are the documented
reference for what the stages inline; the unit and property tests
check them against the linear scans, and the stages against the scan
oracle.  The inlined code keeps these fields consistent:

* ``_where`` maps exactly the queued seqs to their FIFO indexes;
* ``_size`` is the total FIFO length and ``_n_empty`` the empty FIFOs;
* ``_ready`` is sorted by seq and holds only heads with no pending
  operands; ``_deferred`` holds only heads.

Like :class:`~repro.cluster.iq.IssueQueue`, the collection keeps an
explicit ready list for the event-driven issue stage — here restricted
to FIFO *heads* with no pending operands, since only heads are select
candidates.  Candidate order among heads is sequence order, matching the
age-ordered select, and the list is maintained incrementally (binary
insertion) rather than rebuilt per cycle.  A head exposed by an issuing
predecessor is *deferred* until the next cycle's view: the select logic
snapshots its candidates at the start of the cluster's turn, so a head
surfacing mid-selection must not compete until the following cycle.
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
        #: Heads exposed by an issue this cycle; enrolled at next view.
        self._deferred: List[DynInst] = []
        self._size = 0
        #: Empty FIFOs: the dispatch reservation compares against it.
        self._n_empty = n_fifos

    # ------------------------------------------------------------------
    # Capacity / placement
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[DynInst]:
        for fifo in self._fifos:
            yield from fifo

    @property
    def free_slots(self) -> int:
        """Total unoccupied FIFO slots (not all are usable — see
        :meth:`placement_for`)."""
        return self.capacity - self._size

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

    def place(self, dyn: DynInst) -> int:
        """Place *dyn* by the heuristic and return the FIFO index.

        The same choice as :meth:`placement_for`, found through the
        ``_where`` index instead of a scan: the lowest-index non-full
        FIFO whose tail is one of *dyn*'s providers, otherwise the lowest
        empty FIFO.  Callers reserve space first (see ``_n_empty``); a
        queue with no usable FIFO raises.  The fused dispatch loop
        inlines this rule (see the module docstring).
        """
        fifos = self._fifos
        where = self._where
        chosen = None
        for p in dyn.providers:
            index = where.get(p.seq)
            if index is not None and (chosen is None or index < chosen):
                fifo = fifos[index]
                if fifo[-1] is p and len(fifo) < self.depth:
                    chosen = index
        if chosen is None:
            if not self._n_empty:
                raise SimulationError(f"{self.name}: no FIFO can take {dyn!r}")
            # list.index compares lengths first, so this finds the lowest
            # empty FIFO without touching any entry.
            chosen = fifos.index([])
        self._place(dyn, chosen)
        return chosen

    def can_accept(self, dyn: DynInst) -> bool:
        """True when the heuristic can place *dyn* right now."""
        return self.placement_for(dyn) is not None

    def plan_insertions(self, dyns: List[DynInst]) -> Optional[List[int]]:
        """Dry-run placement of several instructions in order.

        Returns the FIFO index per instruction, or ``None`` when some
        instruction cannot be placed (the caller then stalls dispatch).
        Needed because dispatch may insert an instruction *and* its copy
        into queues in the same cycle and must know up front that both
        placements succeed.
        """
        lengths = [len(f) for f in self._fifos]
        tails = [f[-1] if f else None for f in self._fifos]
        placements: List[int] = []
        for dyn in dyns:
            chosen = None
            for index in range(self.n_fifos):
                if lengths[index] and lengths[index] < self.depth:
                    tail = tails[index]
                    if tail is not None and any(
                        p is tail for p in dyn.providers
                    ):
                        chosen = index
                        break
            if chosen is None:
                for index in range(self.n_fifos):
                    if lengths[index] == 0:
                        chosen = index
                        break
            if chosen is None:
                return None
            placements.append(chosen)
            lengths[chosen] += 1
            tails[chosen] = dyn
        return placements

    def _place(self, dyn: DynInst, index: int) -> None:
        fifo = self._fifos[index]
        fifo.append(dyn)
        self._where[dyn.seq] = index
        self._size += 1
        if len(fifo) == 1:
            self._n_empty -= 1
            if not dyn.pending_ops:
                insort(self._ready, (dyn.seq, dyn))

    def insert_at(self, dyn: DynInst, index: int) -> None:
        """Insert into a specific FIFO (from :meth:`plan_insertions`)."""
        if len(self._fifos[index]) >= self.depth:
            raise SimulationError(f"{self.name}: FIFO {index} overflow")
        self._place(dyn, index)

    def insert(self, dyn: DynInst) -> bool:
        """Place *dyn* by the heuristic; ``False`` when no FIFO can take it."""
        index = self.placement_for(dyn)
        if index is None:
            return False
        self._place(dyn, index)
        return True

    def remove(self, dyn: DynInst) -> None:
        """Remove an issued instruction; it must be a FIFO head."""
        index = self._where.get(dyn.seq)
        if index is None or self._fifos[index][0] is not dyn:
            raise SimulationError(
                f"{self.name}: removing instruction that is not a FIFO head"
            )
        self._pop_head(index, dyn)
        if self._ready:
            try:
                self._ready.remove((dyn.seq, dyn))
            except ValueError:
                pass
        if self._deferred:
            try:
                self._deferred.remove(dyn)
            except ValueError:
                pass

    def _pop_head(self, index: int, dyn: DynInst) -> None:
        """Drop the head of FIFO *index*, deferring the successor head."""
        fifo = self._fifos[index]
        fifo.pop(0)
        del self._where[dyn.seq]
        self._size -= 1
        if fifo:
            head = fifo[0]
            if not head.pending_ops:
                self._deferred.append(head)
        else:
            self._n_empty += 1

    # ------------------------------------------------------------------
    # Ready-list view (event-driven issue)
    # ------------------------------------------------------------------
    def mark_ready(self, dyn: DynInst) -> None:
        """Wakeup callback: ready only if *dyn* currently heads its FIFO.

        The wakeup calendar applies this rule inline (see
        :mod:`repro.pipeline.wakeup`).
        """
        index = self._where.get(dyn.seq)
        if index is not None and self._fifos[index][0] is dyn:
            insort(self._ready, (dyn.seq, dyn))

    def ready_view(self) -> List[Tuple[int, DynInst]]:
        """The live ``(seq, head)`` candidate list, oldest first.

        Heads deferred by earlier issues are enrolled here — i.e. at the
        start of the cluster's next selection turn.  Callers iterate the
        view by index and remove issued entries via :meth:`issue_ready`,
        and must otherwise treat it as read-only.  The event issue stage
        does both inline.
        """
        deferred = self._deferred
        if deferred:
            ready = self._ready
            for head in deferred:
                insort(ready, (head.seq, head))
            deferred.clear()
        return self._ready

    def issue_ready(self, index: int) -> None:
        """Remove ready candidate *index* (it issued) from its FIFO.

        The event issue stage inlines this, with :meth:`_pop_head`.
        """
        _, dyn = self._ready.pop(index)
        self._pop_head(self._where[dyn.seq], dyn)

    @property
    def ready_count(self) -> int:
        """FIFO heads whose operands are all complete (deferred included)."""
        return len(self._ready) + len(self._deferred)

    def ready_oldest_first(self) -> List[DynInst]:
        """Ready FIFO heads, oldest first — the issue candidates."""
        return [dyn for _, dyn in self.ready_view()]

    # ------------------------------------------------------------------
    # Issue-side view
    # ------------------------------------------------------------------
    def entries_oldest_first(self) -> List[DynInst]:
        """Issue candidates: the FIFO heads, oldest first."""
        heads = [fifo[0] for fifo in self._fifos if fifo]
        heads.sort(key=_BY_SEQ)
        return heads

    def tails_producing(self, provider: DynInst) -> bool:
        """True when *provider* is currently some FIFO's tail (the test
        the cross-cluster steering heuristic makes, inline, to prefer
        this cluster)."""
        index = self._where.get(provider.seq)
        return index is not None and self._fifos[index][-1] is provider

    def occupancy(self) -> int:
        """Total instructions queued (load-balance signal)."""
        return self._size

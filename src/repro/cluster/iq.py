"""Out-of-order issue queue (one per cluster).

Entries are kept in dispatch order; issue selection walks oldest-first,
which both matches age-based select logic and gives deterministic results.
Entries vacate the queue when they issue.

The queue keeps an explicit *ready list*, ``_ready``, for the event
pipeline: an entry joins it when its pending-operand counter reaches
zero and leaves when it issues.  Nothing here maintains it after
insertion — the wakeup calendar (:mod:`repro.pipeline.wakeup`)
binary-inserts woken entries and the issue stage pops issued ones,
with the same rule for :class:`~repro.cluster.fifo_iq.FifoIssueQueue`.
The list is kept in age order incrementally (binary insertion on
wakeup, not a per-cycle sort), so the issue stage walks only ready
instructions — and usually only the first ``issue_width`` of them —
instead of re-scanning the whole window every cycle.

Age order for selection is *insertion* order, not ``seq`` order: copy
instructions receive fresh (younger) sequence numbers at the consumer's
dispatch but can enter a window before older program instructions, and
the select logic must keep treating insertion order as age — entries
carry an ``iq_rank`` stamped at insertion for exactly this purpose.
Ready entries are held as ``(iq_rank, entry)`` pairs so the binary
insertion compares plain integers.

:meth:`IssueQueue.insert`, :meth:`~IssueQueue.remove` and
:meth:`~IssueQueue.entries_oldest_first` are what the reference oracle
(:class:`~repro.pipeline.reference.ScanProcessor`) and the unfused
dispatch helper use; the fused dispatch loop inlines
:meth:`~IssueQueue.insert`.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..errors import SimulationError
from ..isa import DynInst


class IssueQueue:
    """A bounded, age-ordered window of waiting instructions."""

    def __init__(self, capacity: int, name: str = "iq") -> None:
        if capacity <= 0:
            raise SimulationError(f"{name}: capacity must be positive")
        self.capacity = capacity
        self.name = name
        #: seq -> entry; dict preserves insertion (age) order.
        self._entries: Dict[int, DynInst] = {}
        #: Ready entries as (iq_rank, entry), kept sorted by rank.
        self._ready: List[Tuple[int, DynInst]] = []
        self._next_rank = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._entries.values())

    @property
    def free_slots(self) -> int:
        """Entries still available."""
        return self.capacity - len(self._entries)

    def can_accept(self, n: int = 1) -> bool:
        """True when *n* more instructions fit."""
        return self.free_slots >= n

    def insert(self, dyn: DynInst) -> bool:
        """Add *dyn* at the tail (youngest); ``False`` when full.

        This is the single guarded path: callers that pre-reserved via
        :meth:`can_accept` treat ``False`` as an invariant violation, and
        callers that did not simply observe the refusal.
        """
        if len(self._entries) >= self.capacity:
            return False
        rank = self._next_rank
        self._next_rank = rank + 1
        dyn.iq_rank = rank
        self._entries[dyn.seq] = dyn
        if not dyn.pending_ops:
            self._ready.append((rank, dyn))  # newest rank: sorted append
        return True

    def remove(self, dyn: DynInst) -> None:
        """Remove an instruction (issued, or evicted by a test)."""
        if self._entries.pop(dyn.seq, None) is None:
            raise SimulationError(
                f"{self.name}: removing instruction not in queue"
            )
        if self._ready:
            try:
                self._ready.remove((dyn.iq_rank, dyn))
            except ValueError:
                pass

    # ------------------------------------------------------------------
    def entries_oldest_first(self) -> List[DynInst]:
        """Snapshot of entries in age order (oldest first)."""
        return list(self._entries.values())

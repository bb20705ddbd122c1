"""Completion calendar: the event wheel behind event-driven wakeup.

The reference oracle's issue stage
(:class:`~repro.pipeline.reference.ScanProcessor`) re-scans every
window entry and re-polls every provider's ``complete_cycle`` each
cycle — O(window x operands) per cycle, the software analogue of the
broadcast wakeup the paper's clustered hardware is designed to avoid.
The production issue stage inverts the dependence: each window entry
carries a pending-operand counter
(:attr:`~repro.isa.DynInst.pending_ops`), the calendar keeps each
in-flight producer's consumer list (:attr:`WakeupCalendar.waiting`,
keyed by the producer's ``seq``) and maps completion cycles to the
producers completing then.  When the issue stage fires a cycle, every
producer bucketed there walks its waiters, decrements their counters,
and puts the newly ready ones straight into their queue's ready list —
total work proportional to the number of dependence edges, not to
window size x cycles.

The consumer lists live here rather than on the producers because a
consumer already points at its producers (``DynInst.providers``): a
list on the producer would close a reference cycle for every pending
operand, and the in-flight instructions of a finished processor would
then wait for the cyclic garbage collector.

Delivery needs no call per waiter and no test of the window kind: both
window organisations share one ready rule.  A waiter whose last operand
completes is binary-inserted into its window's ready list by its
``iq_rank`` — the insertion rank in an
:class:`~repro.cluster.iq.IssueQueue`, the ``seq`` in a
:class:`~repro.cluster.fifo_iq.FifoIssueQueue`.  It is still queued (an
entry cannot issue while an operand is pending) and, in a FIFO window,
it is a head: every entry behind a head waits on its predecessor in the
chain, so its counter reaches zero only after that predecessor has
issued and left.  The issue stage calls :meth:`WakeupCalendar.fire`
once per cycle and may append future-cycle completions to
:attr:`WakeupCalendar.events` itself; everything that can complete at
or before the current cycle goes through
:meth:`WakeupCalendar.complete`.

Exactness invariants (these make the event path cycle-for-cycle
identical to the oracle's scan):

* a producer's event is registered exactly once, when its
  ``complete_cycle`` is assigned; consumers registering *after* that
  see the assigned value and never enroll for a completion in the past
  (simulated time is monotonic, so a fired event is never re-awaited);
* a completion assigned at or before the current cycle (zero-latency
  bypasses, jumps completing at dispatch) wakes its waiters
  immediately — mirroring how the oracle's scan observes
  ``complete_cycle <= cycle`` the moment it is written;
* waiter lists may hold duplicates (an instruction reading the same
  register twice registers twice) so the counter decrements once per
  operand, exactly like the per-operand poll it replaces.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Sequence

from ..isa import DynInst


class WakeupCalendar:
    """Cycle-indexed event wheel keyed by ``complete_cycle``."""

    __slots__ = ("events", "waiting", "_windows")

    def __init__(self, windows: Sequence) -> None:
        #: cycle -> producers whose completion becomes visible then.
        #: The issue stage appends future completions here directly.
        self.events: Dict[int, List[DynInst]] = {}
        #: producer seq -> window entries awaiting its completion (the
        #: dispatch stage enrolls them; a producer's list is dropped
        #: when it is delivered).  Duplicates count once per operand.
        self.waiting: Dict[int, List[DynInst]] = {}
        #: The per-cluster issue windows, indexed by ``DynInst.cluster``.
        self._windows = windows

    def __len__(self) -> int:
        """Producers still scheduled to complete (diagnostics only)."""
        return sum(len(bucket) for bucket in self.events.values())

    # ------------------------------------------------------------------
    def complete(self, dyn: DynInst, complete_cycle: int, now: int) -> None:
        """Record that *dyn* completes at *complete_cycle* (assigned at
        cycle *now*).

        Future completions are bucketed for :meth:`fire`; completions at
        or before *now* (zero-latency paths) wake their waiters on the
        spot.
        """
        dyn.complete_cycle = complete_cycle
        if complete_cycle > now:
            self.events.setdefault(complete_cycle, []).append(dyn)
        else:
            self._deliver((dyn,))

    def fire(self, cycle: int) -> None:
        """Deliver every completion scheduled for *cycle*.

        The issue stage calls this once per cycle before selecting, so a
        bucket is only ever popped for the cycle being simulated — events
        are always registered strictly before their cycle fires.
        """
        producers = self.events.pop(cycle, None)
        if producers is not None:
            self._deliver(producers)

    def _deliver(self, producers) -> None:
        """Decrement every waiter of *producers*; put the newly ready ones
        into their windows' ready lists."""
        windows = self._windows
        pop = self.waiting.pop
        for producer in producers:
            waiters = pop(producer.seq, None)
            if waiters is None:
                continue
            for waiter in waiters:
                pending = waiter.pending_ops - 1
                waiter.pending_ops = pending
                if not pending:
                    insort(
                        windows[waiter.cluster]._ready,
                        (waiter.iq_rank, waiter),
                    )

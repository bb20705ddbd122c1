"""The reference oracle the production pipeline is proven against.

:class:`ScanProcessor` is the original, unoptimised model of the
machine: every cycle its issue stage re-walks every window entry and
re-polls every provider's ``complete_cycle``, its dispatch stage hands
each steered instruction to the unfused plan/feasible/reserve/rename
helper (:meth:`Processor._dispatch_one_slow`), and its disambiguation
queue (:class:`ScanDisambiguationQueue`) walks the whole program-ordered
queue, polling each memory instruction's ``ea_done_cycle``.  Fetch,
commit, the per-cycle statistics and the dispatch helper are inherited
from :class:`Processor`.

The production :class:`Processor` must be cycle-for-cycle identical to
it: ``tests/test_scheduler_equivalence.py`` compares whole
``SimResult``\\ s on a grid of schemes and machines, and
``perfbench/run.py`` checks its timed runs against it.  Nothing here is
tuned for speed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List

from ..errors import SimulationError, SteeringError
from ..isa import DynInst, InstrClass
from ..memory import DisambiguationQueue
from ..memory.disambiguation import _WORD_MASK
from .processor import Processor

_COMPLEX_INT = InstrClass.COMPLEX_INT
_FP = InstrClass.FP
_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE


class ScanDisambiguationQueue(DisambiguationQueue):
    """The disambiguation queue that polls instead of being told.

    Loads are not announced through :meth:`queue_address`; :meth:`step`
    walks the whole queue each cycle and reads ``ea_done_cycle``.
    """

    def queue_address(self, dyn: DynInst, ready_cycle: int) -> None:
        """No-op: :meth:`step` polls ``ea_done_cycle`` instead."""

    def step(self, cycle: int) -> None:
        """Schedule ready loads, walking the whole queue in program order."""
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= cycle:
            heappop(outstanding)
        store_addr_known = True
        pending_stores: List[DynInst] = []
        for dyn in self._queue:
            if dyn.cls is _STORE:
                if dyn.ea_done_cycle < 0 or dyn.ea_done_cycle > cycle:
                    store_addr_known = False
                pending_stores.append(dyn)
                continue
            # Load.
            if dyn.complete_cycle >= 0:
                continue  # already scheduled
            if dyn.ea_done_cycle < 0 or dyn.ea_done_cycle > cycle:
                continue  # address not computed yet
            if not store_addr_known:
                # An older store has an unknown address: each load checks
                # the flag valid at its own position.
                continue
            # Forward from the youngest older store writing the same word.
            target = dyn.mem_addr & _WORD_MASK
            if any(
                store.mem_addr & _WORD_MASK == target
                for store in pending_stores
            ):
                self._complete(dyn, cycle + self.forward_latency, cycle)
                dyn.mem_latency = self.forward_latency
                self.loads_forwarded += 1
                continue
            if len(outstanding) >= self.max_outstanding_misses:
                continue
            if not self.hierarchy.claim_dcache_port(cycle):
                continue
            latency = self.hierarchy.load_latency(dyn.mem_addr)
            self._complete(dyn, cycle + latency, cycle)
            dyn.mem_latency = latency
            self.loads_accessed += 1
            if latency > self.hierarchy.timing.l1_hit:
                heappush(outstanding, dyn.complete_cycle)


class ScanProcessor(Processor):
    """The machine with the scan issue stage and the unfused dispatch.

    It keeps no wakeup state: window entries have their pending-operand
    counter pinned to 1, so the windows' ready lists stay empty, and
    completions are plain assignments that nothing is woken by.
    """

    def __init__(self, workload, config, steering, scheduler=None) -> None:
        super().__init__(workload, config, steering, scheduler)
        # Replaces the production queue before any instruction enters
        # it.  The production dispatch loop's unpacked constants hold
        # the old queue's lists; this class overrides that loop, and
        # dropping them makes any inherited path that still reads them
        # fail instead of filling a queue nothing steps.
        self.lsq = ScanDisambiguationQueue(
            self.hierarchy,
            max_outstanding_misses=config.max_outstanding_misses,
        )
        del self._dispatch_env

    def _complete(self, dyn: DynInst, complete_cycle: int, cycle: int) -> None:
        dyn.complete_cycle = complete_cycle

    def _insert_window(self, dyn: DynInst, cluster: int, cycle: int) -> None:
        dyn.pending_ops = 1
        if not self.iqs[cluster].insert(dyn):
            raise SimulationError(
                f"{self.iqs[cluster].name}: insert into a full queue"
            )

    def _issue_stage(self, cycle: int) -> None:
        """Issue by re-walking every window entry, oldest first."""
        ready_counts = self.ready_counts
        ready_counts[0] = ready_counts[1] = 0
        bypass = self.bypass
        for cluster in (0, 1):
            iq = self.iqs[cluster]
            width = self.config.clusters[cluster].issue_width
            fu = self.fus[cluster]
            issued = 0
            for dyn in iq.entries_oldest_first():
                ready = True
                for p in dyn.providers:
                    cc = p.complete_cycle
                    if cc < 0 or cc > cycle:
                        ready = False
                        break
                if not ready:
                    continue
                ready_counts[cluster] += 1
                if issued >= width:
                    continue
                if dyn.is_copy:
                    if not bypass.claim(cycle, cluster):
                        continue
                    dyn.issue_cycle = cycle
                    dyn.complete_cycle = cycle + bypass.latency
                    self.stats.copies_issued += 1
                    iq.remove(dyn)
                    issued += 1
                    continue
                if not fu.can_issue(dyn, cycle):
                    continue
                fu.issue(dyn, cycle)
                dyn.issue_cycle = cycle
                cls = dyn.cls
                if cls is _LOAD:
                    dyn.ea_done_cycle = cycle + 1
                    # complete_cycle is set by the disambiguation queue
                elif cls is _STORE:
                    dyn.ea_done_cycle = cycle + 1
                    dyn.complete_cycle = cycle + 1
                else:
                    dyn.complete_cycle = cycle + dyn.inst.latency
                self._mark_critical_copies(dyn, cycle)
                iq.remove(dyn)
                issued += 1

    def _dispatch_stage(self, cycle: int) -> None:
        """Steer each decoded instruction and dispatch it through the
        unfused helper, in order, until the group ends or a stall."""
        buffer = self.decode_buffer
        budget = self.config.decode_width
        while budget and buffer:
            if self.rob.full:
                self.stats.stall_rob += 1
                return
            dyn = buffer[0]
            if dyn.cls is _COMPLEX_INT:
                cluster = 0
            elif dyn.cls is _FP:
                cluster = 1
            else:
                cluster = self._choose_fn(self._steer_ctx, dyn)
                if cluster not in (0, 1):
                    raise SteeringError(
                        f"scheme {getattr(self.steering, 'name', '?')!r} "
                        f"returned cluster {cluster!r}"
                    )
                if not self.fus[cluster].supports(dyn):
                    raise SteeringError(
                        f"{dyn!r} steered to cluster {cluster}, which "
                        f"cannot execute it"
                    )
            if not self._dispatch_one_slow(dyn, cluster, cycle):
                return
            buffer.popleft()
            budget -= 1

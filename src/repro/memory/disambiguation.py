"""Central memory disambiguation logic (the paper's unique LSQ).

Section 2 of the paper: memory instructions are split into an effective
address computation (steered like any simple integer instruction) and the
memory access, which is forwarded to *a unique disambiguation logic that
decides when the instruction can perform its memory access.  A load reads
from memory after being disambiguated with all previous stores, whereas
stores write to memory at commit.*

This module implements that structure.  Loads enter at dispatch; once
their effective address is computed (``ea_done_cycle``) and every older
store in the queue also has a known address, the load either forwards from
the youngest older same-word store or claims a D-cache port and performs a
timed access.  Stores stay queued until commit performs their write.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..isa import DynInst, InstrClass
from .hierarchy import MemoryHierarchy

#: Word granularity used for store-to-load forwarding checks.
_WORD_MASK = ~0x3

#: The barrier seq when every queued store's address is known: no load
#: is younger.
_NO_BARRIER = float("inf")


def _assign_complete(dyn: DynInst, complete_cycle: int, cycle: int) -> None:
    """Default completion: plain assignment (standalone/unit-test use)."""
    dyn.complete_cycle = complete_cycle


class DisambiguationQueue:
    """Program-ordered queue of in-flight memory operations."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        max_outstanding_misses: int = 8,
        forward_latency: int = 1,
        on_complete: Optional[Callable[[DynInst, int, int], None]] = None,
        event_driven: bool = False,
    ) -> None:
        self.hierarchy = hierarchy
        self.forward_latency = forward_latency
        self.max_outstanding_misses = max_outstanding_misses
        #: Completion sink called as ``(dyn, complete_cycle, cycle)``.
        #: The processor routes this into its wakeup calendar so a load's
        #: consumers are woken by event, not by polling.
        self._complete = on_complete or _assign_complete
        self.event_driven = event_driven
        self._queue: List[DynInst] = []
        #: Event-driven state.  ``_stores`` is the program-ordered view of
        #: queued stores; ``_waiting_loads`` holds only address-known,
        #: still-unscheduled loads as (seq, load); ``_ea_wheel`` parks a
        #: load from issue until the cycle its effective address is
        #: computed, so loads whose address is still in flight cost
        #: nothing per cycle (with deep reorder windows the full queue is
        #: dominated by instructions merely waiting to commit or for
        #: their address operands).
        self._stores: List[DynInst] = []
        self._waiting_loads: List[Tuple[int, DynInst]] = []
        self._ea_wheel: Dict[int, List[DynInst]] = {}
        #: Leading entries of ``_stores`` whose address is known (a lower
        #: bound between calls to :meth:`step`, which advances it).
        self._known_stores = 0
        #: Completion cycles of outstanding misses, a min-heap.
        self._outstanding: List[int] = []
        self.loads_forwarded = 0
        self.loads_accessed = 0
        self.stores_written = 0

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, dyn: DynInst) -> None:
        """Enqueue a memory instruction at dispatch (program order)."""
        self._queue.append(dyn)
        if dyn.cls is InstrClass.STORE:
            self._stores.append(dyn)

    def queue_address(self, dyn: DynInst, ready_cycle: int) -> None:
        """Park issued load *dyn* until its address is known.

        The processor calls this when the load's effective-address
        computation issues; at *ready_cycle* the wheel promotes the load
        into the waiting list, in program order.  (No-op for the scan
        scheduler, which polls ``ea_done_cycle`` instead.)
        """
        if self.event_driven:
            bucket = self._ea_wheel.get(ready_cycle)
            if bucket is None:
                self._ea_wheel[ready_cycle] = [dyn]
            else:
                bucket.append(dyn)

    # ------------------------------------------------------------------
    # Per-cycle load scheduling (event-driven)
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Schedule ready loads for this cycle.

        Walks the address-known unscheduled loads oldest-first; a load is
        ready when every older store's address is also known (the oldest
        unknown-address store forms a *barrier* younger loads cannot pass
        — the paper's disambiguation rule).  Ready loads either forward
        from an older matching store or access the D-cache (subject to
        port and outstanding-miss limits).

        The barrier is found from ``_known_stores``, the number of
        leading queued stores whose address is known: an address, once
        known, stays known, so the count only advances here and drops
        only when :meth:`commit_store` removes a counted store.  Each
        store is passed once, however long a load waits behind it.

        The event-driven walk requires loads to be announced through
        :meth:`queue_address`; a standalone queue (``event_driven=False``,
        the constructor default) instead polls ``ea_done_cycle`` over the
        whole program-ordered queue, exactly like the original model.
        """
        if not self.event_driven:
            self._step_scan(cycle)
            return
        bucket = self._ea_wheel.pop(cycle, None)
        if bucket is not None:
            waiting = self._waiting_loads
            for dyn in bucket:
                insort(waiting, (dyn.seq, dyn))
        waiting = self._waiting_loads
        if not waiting:
            return
        # Retired only when a load may be scheduled: nothing else reads
        # the heap, and a later retirement drops a superset of the
        # completions this cycle's would have.
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= cycle:
            heappop(outstanding)
        stores = self._stores
        n_stores = len(stores)
        known = self._known_stores
        while known < n_stores:
            ea = stores[known].ea_done_cycle
            if ea < 0 or ea > cycle:
                break
            known += 1
        self._known_stores = known
        barrier = stores[known].seq if known < n_stores else _NO_BARRIER
        hierarchy = self.hierarchy
        complete = self._complete
        scheduled: List[int] = []
        for index, (seq, dyn) in enumerate(waiting):
            if seq > barrier:
                # An older store has an unknown address: the paper's rule
                # forbids executing this load — and, the list being in
                # program order, every load after this one too.
                break
            # Forward from a queued store older than the load that
            # writes the same word, if there is one.
            target = dyn.mem_addr & _WORD_MASK
            forwarded = False
            for store in reversed(stores):
                if store.seq < seq and store.mem_addr & _WORD_MASK == target:
                    forwarded = True
                    break
            if forwarded:
                complete(dyn, cycle + self.forward_latency, cycle)
                dyn.mem_latency = self.forward_latency
                self.loads_forwarded += 1
                scheduled.append(index)
                continue
            if len(outstanding) >= self.max_outstanding_misses:
                continue
            if not hierarchy.claim_dcache_port(cycle):
                continue
            latency = hierarchy.load_latency(dyn.mem_addr)
            complete(dyn, cycle + latency, cycle)
            dyn.mem_latency = latency
            self.loads_accessed += 1
            scheduled.append(index)
            if latency > hierarchy.timing.l1_hit:
                heappush(outstanding, dyn.complete_cycle)
        for index in reversed(scheduled):
            del waiting[index]

    # ------------------------------------------------------------------
    # Per-cycle load scheduling (reference scan, kept for exactness)
    # ------------------------------------------------------------------
    def _step_scan(self, cycle: int) -> None:
        """Reference implementation: walk the whole queue every cycle."""
        outstanding = self._outstanding
        while outstanding and outstanding[0] <= cycle:
            heappop(outstanding)
        store_addr_known = True
        pending_stores: List[DynInst] = []
        for dyn in self._queue:
            if dyn.cls is InstrClass.STORE:
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
            forwarder = self._scan_forwarder(dyn, pending_stores)
            if forwarder is not None:
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

    @staticmethod
    def _scan_forwarder(
        load: DynInst, pending_stores: List[DynInst]
    ) -> Optional[DynInst]:
        """Youngest older store writing the same word, if any."""
        target = load.mem_addr & _WORD_MASK
        for store in reversed(pending_stores):
            if store.mem_addr & _WORD_MASK == target:
                return store
        return None

    # ------------------------------------------------------------------
    # Commit-side hooks
    # ------------------------------------------------------------------
    def commit_store(self, dyn: DynInst, cycle: int) -> bool:
        """Perform the cache write of a committing store.

        Returns ``False`` when no D-cache port is available this cycle, in
        which case commit must retry next cycle.
        """
        if not self.hierarchy.claim_dcache_port(cycle):
            return False
        self.hierarchy.store_access(dyn.mem_addr)
        self.stores_written += 1
        # Committing in order: both removals find *dyn* at the front.
        try:
            self._queue.remove(dyn)
        except ValueError:
            pass
        try:
            index = self._stores.index(dyn)
        except ValueError:
            return True
        del self._stores[index]
        if index < self._known_stores:
            self._known_stores -= 1
        return True

    def retire_load(self, dyn: DynInst) -> None:
        """Drop a committed load from the queue.

        A load commits only once it has completed, and it completes only
        when :meth:`step` schedules it, which takes it out of
        ``_waiting_loads``: only the program-ordered queue holds it.
        """
        try:
            self._queue.remove(dyn)  # committing in order: found at front
        except ValueError:
            pass

    def stats(self) -> Dict[str, int]:
        """Counters for reporting and tests."""
        return {
            "loads_forwarded": self.loads_forwarded,
            "loads_accessed": self.loads_accessed,
            "stores_written": self.stores_written,
        }

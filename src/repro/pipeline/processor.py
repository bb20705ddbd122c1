"""The cycle-level processor model.

One :class:`Processor` simulates the machine of Figure 1: a centralized
fetch/decode/rename front end, a steering stage choosing a cluster per
instruction, two clusters with private windows, functional units and
register files, inter-cluster bypasses driven by copy instructions, a
central disambiguation queue, and in-order commit from a shared ROB.

Stage evaluation order within :meth:`step` is reverse pipeline order
(commit, memory, issue, dispatch, fetch), the standard trick that lets a
cycle-driven simulator model same-cycle hand-offs without double-advancing
an instruction in one cycle.

There is one pipeline.  Fetch indexes the trace's columns, commit
retires from the ROB, and the fused dispatch loop steers and renames in
one pass.  The fetch stage attribute ``_fetch`` is the fetch unit's
bound :meth:`FetchUnit.fetch`, which appends each group straight into
the decode buffer.  Two issue schedulers implement identical timing
semantics:

* ``event`` (default, production) — event-driven wakeup/select.  Window
  entries carry pending-operand counters, and a completion calendar
  (:mod:`repro.pipeline.wakeup`) keeps each producer's consumer list
  and wakes consumers on the cycle their last operand completes,
  putting them straight into their queue's ready list; the issue stage
  walks only the ready lists and removes the issued entry from its
  window in place.  Work per cycle is proportional to completions and
  ready instructions, not window size x operands.  Both window
  organisations, :class:`IssueQueue` and the FIFO collections of §3.9,
  follow one ready rule: an entry is ready once its pending-operand
  counter is zero, and the ready list is ordered by ``iq_rank`` (the
  insertion rank, or the ``seq`` of a FIFO entry).  A FIFO window needs
  no head test, because every entry behind a head waits on its
  predecessor (see :mod:`repro.cluster.fifo_iq`).
* ``scan`` — the reference oracle: re-scan every window entry and
  re-poll every provider's ``complete_cycle`` each cycle, behind the
  unfused single-instruction dispatch helper
  (:meth:`Processor._dispatch_one_slow`).  Retained so the equivalence
  suite can assert the event path is cycle-for-cycle identical;
  ``Processor(..., scheduler="scan")`` selects it.

The fused dispatch loop serves both window organisations: it inlines
:meth:`IssueQueue.insert`, and FIFO placement over the window's
``seq -> FIFO`` index.  The scan oracle hands every steered instruction
to the unfused helper instead.

The stages call the small structure helpers (free-list release, window
insertion and removal, cache set lookup, imbalance properties) only
where the helper does something the inline code does not; the helpers
remain the API that the unit tests and the scan oracle use.  A FIFO
machine therefore pays about as many calls per instruction as a
conventional one.
"""

from __future__ import annotations

import weakref
from bisect import insort
from collections import deque
from types import MethodType
from typing import Deque, List, Optional

from ..cluster import BypassNetwork, FifoIssueQueue, FUPool, IssueQueue
from ..core.steering import SteeringContext, SteeringScheme
from ..errors import SimulationError, SteeringError
from ..frontend import CombinedPredictor, FetchUnit
from ..isa import DynInst, InstrClass, make_copy_inst
from ..isa.registers import FP_BASE, N_FP_REGS, N_INT_REGS
from ..memory import (
    DisambiguationQueue,
    MemoryHierarchy,
    MemoryTiming,
    SetAssocCache,
)
from ..rename import MapTable, Renamer, make_free_lists
from ..workloads import Workload
from .config import ProcessorConfig
from .rob import ReorderBuffer
from .stats import SimStats
from .wakeup import WakeupCalendar

#: Cycles without a commit after which the model declares itself wedged.
_DEADLOCK_LIMIT = 20000

#: Issue-scheduler implementations (see module docstring).
SCHEDULERS = ("event", "scan")

#: Enum-name cache: ``InstrClass.X.name`` resolves through a descriptor
#: on every access; the commit loop pays that per instruction otherwise.
_CLS_NAMES = {c: c.name for c in InstrClass}

#: The instruction classes the stage loops test, loaded once: reading
#: ``InstrClass.X`` costs an attribute lookup on the enum class, and the
#: commit, issue and dispatch prologues would pay a dozen per cycle.
_SIMPLE_INT = InstrClass.SIMPLE_INT
_COMPLEX_INT = InstrClass.COMPLEX_INT
_FP = InstrClass.FP
_BRANCH = InstrClass.BRANCH
_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE


class Processor:
    """Timing model of the two-cluster machine.

    :meth:`step` calls each stage through an instance attribute
    (``_commit_stage``, ``lsq.step``, ``_issue_stage``,
    ``_dispatch_stage``, ``_fetch``) once per cycle; ``_fetch`` is the
    fetch unit's bound :meth:`~repro.frontend.FetchUnit.fetch`.
    """

    def __init__(
        self,
        workload: Workload,
        config: ProcessorConfig,
        steering,
        scheduler: Optional[str] = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.steering = steering
        self.program = workload.program
        if scheduler is None:
            scheduler = "event"
        if scheduler not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}"
            )
        self.scheduler = scheduler
        self._event_driven = scheduler == "event"

        timing = MemoryTiming(
            l1_hit=1,
            l1_miss_penalty=config.l1_miss_penalty,
            memory_first_chunk=config.memory_first_chunk,
            memory_interchunk=config.memory_interchunk,
            bus_bytes=config.bus_bytes,
        )
        self.hierarchy = MemoryHierarchy(
            l1i=SetAssocCache(
                config.l1i.size_kb * 1024,
                config.l1i.assoc,
                config.l1i.line_bytes,
                name="L1I",
            ),
            l1d=SetAssocCache(
                config.l1d.size_kb * 1024,
                config.l1d.assoc,
                config.l1d.line_bytes,
                name="L1D",
            ),
            l2=SetAssocCache(
                config.l2.size_kb * 1024,
                config.l2.assoc,
                config.l2.line_bytes,
                name="L2",
            ),
            timing=timing,
            dcache_ports=config.dcache_ports,
        )
        self.predictor = CombinedPredictor()
        self.decode_buffer: Deque[DynInst] = deque()
        self.fetch_unit = FetchUnit(
            workload.shared_trace().columns(),
            self.hierarchy,
            self.predictor,
            fetch_width=config.fetch_width,
            redirect_penalty=config.redirect_penalty,
            decode_buffer=self.decode_buffer,
            decode_buffer_size=config.decode_buffer,
        )
        # The fetch stage is the fetch unit's one loop: it appends each
        # group straight into the decode buffer.
        self._fetch = self.fetch_unit.fetch
        self.map_table = MapTable()
        self.free_lists = make_free_lists(
            [c.phys_regs for c in config.clusters],
            [N_INT_REGS, N_FP_REGS],
        )
        self.renamer = Renamer(
            self.map_table, self.free_lists, allow_copies=config.allow_copies
        )
        if config.fifo_issue:
            self.iqs = [
                FifoIssueQueue(
                    config.n_fifos, config.fifo_depth, name=f"fifo-iq{i}"
                )
                for i in range(2)
            ]
        else:
            self.iqs = [
                IssueQueue(config.clusters[i].iq_size, name=f"iq{i}")
                for i in range(2)
            ]
        self._calendar = WakeupCalendar(self.iqs)
        # The dicts whose sizes are the windows' occupancies, read by the
        # per-cycle bookkeeping in step() (an IssueQueue holds its entries
        # by seq, a FIFO collection indexes every entry's FIFO by seq).
        self._window_maps = tuple(
            iq._where if config.fifo_issue else iq._entries for iq in self.iqs
        )
        self.fus = [
            FUPool(
                c.n_simple_alu,
                c.has_complex_int,
                c.n_fp_alu,
                c.has_fp_complex,
                name=f"cluster{i}",
            )
            for i, c in enumerate(config.clusters)
        ]
        self.bypass = BypassNetwork(
            ports_per_direction=config.bypass_ports,
            latency=config.bypass_latency,
        )
        # Loads always write a register and complete in a future cycle,
        # so on the event scheduler their completions go straight into
        # the calendar.
        self.lsq = DisambiguationQueue(
            self.hierarchy,
            max_outstanding_misses=config.max_outstanding_misses,
            on_complete=(
                self._calendar.complete
                if self._event_driven
                else _set_complete_cycle
            ),
            event_driven=self._event_driven,
        )
        self.rob = ReorderBuffer(config.max_in_flight)
        self.stats = SimStats()
        self.cycle = 0
        # Updated in place by the issue stage; the steering context
        # holds the same list.
        self.ready_counts: List[int] = [0, 0]
        self._last_commit_cycle = 0
        if not self._event_driven:
            # The class binds _issue_stage to _issue_event.  The oracle's
            # stage is bound to a weak proxy, so the instance does not
            # reference itself and is freed by reference counting.
            self._issue_stage = MethodType(
                Processor._issue_scan, weakref.proxy(self)
            )
        # The scan oracle dispatches every instruction through the
        # unfused reference helper (see module docstring).
        self._unfused_dispatch = not self._event_driven
        steering.reset(self)
        self._steer_ctx = SteeringContext(self)
        self._steer_ctx.batch = self.decode_buffer
        self._choose_fn = steering.choose_cluster
        # Schemes that keep the base no-op hooks are skipped entirely
        # (the dispatch, commit and cycle loops would otherwise pay a
        # bound-method call per instruction or cycle for nothing).
        scheme_cls = type(steering)
        self._on_dispatch_fn = (
            steering.on_dispatch
            if scheme_cls.on_dispatch is not SteeringScheme.on_dispatch
            else None
        )
        self._on_commit_hook = (
            steering.on_commit
            if scheme_cls.on_commit is not SteeringScheme.on_commit
            else None
        )
        self._on_cycle_hook = (
            steering.on_cycle
            if scheme_cls.on_cycle is not SteeringScheme.on_cycle
            else None
        )
        # Every steerable instruction class reduces to "has a simple ALU"
        # in FUPool.supports; when both clusters have one, the per-
        # instruction capability check in the fused loop is a no-op.
        self._skip_supports = all(fu.n_simple > 0 for fu in self.fus)
        # Per-cycle hot-loop constants (attribute-chain hoists).
        self._issue_widths = tuple(c.issue_width for c in config.clusters)
        self._retire_width = config.retire_width
        self._rob_entries = self.rob._entries
        self._rob_capacity = self.rob.capacity
        # The dispatch stage's structures and constants, unpacked once
        # per cycle: none of them is rebound after construction.  What
        # is (the stats object, per run) or may be patched on the
        # instance (the steering and slow-path hooks) is read per call.
        self._dispatch_env = (
            config.decode_width,
            self._steer_ctx,
            self.map_table,
            self.map_table.masks,
            self.map_table.entries,
            self.free_lists,
            self.iqs,
            self.lsq._queue,
            self.lsq._stores,
            config.fifo_issue,
            config.fifo_depth,
            self._skip_supports,
            (self.fus[0].supports, self.fus[1].supports),
            config.allow_copies,
            self.fetch_unit.next_seq,
            self.renamer,
            self._calendar.waiting,
        )

    # ------------------------------------------------------------------
    # Steering-visible helpers
    # ------------------------------------------------------------------
    def presence_mask(self, reg: int) -> int:
        """Bit mask of clusters where logical register *reg* resides."""
        return self.map_table.presence_mask(reg)

    def iq_occupancy(self, cluster: int) -> int:
        """Instructions currently waiting in *cluster*'s window."""
        return len(self.iqs[cluster])

    # ------------------------------------------------------------------
    # Public driver
    # ------------------------------------------------------------------
    def run(self, n_instructions: int, warmup: int = 0):
        """Simulate; return a :class:`SimResult` for the measured window.

        *warmup* instructions are committed first (training caches, the
        branch predictor and the steering tables) without being counted.
        """
        if warmup > 0:
            self._run_until(warmup)
        self.stats = self._steer_ctx.stats = SimStats()
        self.stats.snapshot_environment(self)
        self._run_until(n_instructions)
        self._flush_steering_metrics()
        return self.stats.finalize(
            self, self.workload.name, getattr(self.steering, "name", "?")
        )

    def _flush_steering_metrics(self) -> None:
        """Publish the steering-memo counters to the metrics registry."""
        ctx = self._steer_ctx
        if ctx.memo_hits or ctx.memo_misses:
            from ..telemetry import metrics

            metrics.counter("steering.memo.hits").inc(ctx.memo_hits)
            metrics.counter("steering.memo.misses").inc(ctx.memo_misses)
            ctx.memo_hits = 0
            ctx.memo_misses = 0

    def _run_until(self, n_committed: int) -> None:
        stats = self.stats
        while stats.committed < n_committed:
            self.step()
            if self.cycle - self._last_commit_cycle > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles at cycle "
                    f"{self.cycle} (scheme "
                    f"{getattr(self.steering, 'name', '?')!r}); "
                    f"{self._pipeline_state()}"
                )

    def _pipeline_state(self) -> str:
        """What a wedged pipeline holds, for the deadlock error."""
        rob = self.rob._entries
        if rob:
            head = rob[0]
            parts = [
                f"ROB head seq {head.seq} {head.cls.name} on cluster "
                f"{head.cluster} (dispatch {head.dispatch_cycle}, issue "
                f"{head.issue_cycle}, complete {head.complete_cycle})"
            ]
        else:
            parts = ["ROB empty"]
        if self.decode_buffer:
            waiting = self.decode_buffer[0]
            parts.append(
                f"decode head seq {waiting.seq} {waiting.cls.name} with "
                f"{len(waiting.inst.srcs)} source(s)"
            )
        windows = ", ".join(
            f"{iq.name} {len(iq)}/{iq.capacity}" for iq in self.iqs
        )
        free = ", ".join(
            f"cluster{i} {fl.free}/{fl.total}"
            for i, fl in enumerate(self.free_lists)
        )
        stats = self.stats
        parts += [
            f"ROB {len(rob)}/{self.rob.capacity}",
            f"windows {windows}",
            f"free registers {free}",
            f"stalls rob {stats.stall_rob}, regs {stats.stall_regs}, "
            f"iq {stats.stall_iq}",
        ]
        return "; ".join(parts)

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the machine by one cycle."""
        cycle = self.cycle
        self._commit_stage(cycle)
        self.lsq.step(cycle)
        self._issue_stage(cycle)
        self._dispatch_stage(cycle)
        self._fetch(cycle)
        if self._on_cycle_hook is not None:
            self._on_cycle_hook(self)
        windows = self._window_maps
        self.stats.on_cycle(
            self.map_table._replicated_ints,
            self.ready_counts,
            len(self.rob._entries),
            (len(windows[0]), len(windows[1])),
        )
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    def _commit_stage(self, cycle: int) -> None:
        """Retire up to ``retire_width`` completed instructions in order.

        The free-list release and the statistics update are inlined so
        the loop touches each instruction once instead of crossing three
        helper boundaries per retire; :meth:`FreeList.release` is called
        only to raise its overflow error.
        """
        rob_entries = self._rob_entries
        if not rob_entries:
            return
        cc = rob_entries[0].complete_cycle
        if cc < 0 or cc > cycle:
            return  # the head has not completed: nothing retires
        budget = self._retire_width
        stats = self.stats
        lsq = self.lsq
        free0, free1 = self.free_lists
        total0 = free0.total
        total1 = free1.total
        on_commit_hook = self._on_commit_hook
        store = _STORE
        load = _LOAD
        by_class = stats.committed_by_class
        committed = 0
        while budget and rob_entries:
            head = rob_entries[0]
            cc = head.complete_cycle
            if cc < 0 or cc > cycle:
                break
            cls = head.cls
            if cls is store:
                if not lsq.commit_store(head, cycle):
                    break  # no D-cache port this cycle
            elif cls is load:
                lsq.retire_load(head)
            f0, f1 = head.frees
            if f0:
                n = free0._free + f0
                if n > total0:
                    free0.release(f0)  # raises the overflow error
                free0._free = n
            if f1:
                n = free1._free + f1
                if n > total1:
                    free1.release(f1)  # raises the overflow error
                free1._free = n
            head.commit_cycle = cycle
            key = _CLS_NAMES[cls]
            by_class[key] = by_class.get(key, 0) + 1
            if head.in_ldst_slice:
                stats.committed_ldst_slice += 1
            if head.in_br_slice:
                stats.committed_br_slice += 1
            if on_commit_hook is not None:
                on_commit_hook(head)
            rob_entries.popleft()
            committed += 1
            budget -= 1
        if committed:
            stats.committed += committed
            self._last_commit_cycle = cycle

    # ------------------------------------------------------------------
    # Issue: event-driven wakeup/select (default)
    # ------------------------------------------------------------------
    def _complete(self, dyn: DynInst, complete_cycle: int, cycle: int) -> None:
        """Record *dyn*'s completion, waking its consumers by event.

        Only potential providers (register writers and copies) go through
        the calendar; branches and stores can never acquire waiters, so
        their completion is a plain assignment.  The scan scheduler polls
        instead of waking and bypasses the calendar entirely.  On the
        event scheduler the issue stage and the disambiguation queue
        complete their instructions without this hop (see
        :meth:`_issue_event` and the ``on_complete`` wiring above).
        """
        if self._event_driven and (dyn.is_copy or dyn.inst.dst is not None):
            self._calendar.complete(dyn, complete_cycle, cycle)
        else:
            dyn.complete_cycle = complete_cycle

    def _issue_event(self, cycle: int) -> None:
        """Issue from the per-queue ready lists (no window scan).

        The calendar fires first and delivers every instruction whose
        last operand completes at *cycle* straight into its queue's ready
        list, so candidates are walked per cluster in age order, exactly
        the readiness the reference scan would observe.  Both window
        organisations issue in place: the selected entry is popped from
        the ready list and leaves the window here.  In a FIFO window the
        entry behind it becomes the head, but it waits on the issued
        entry, so it is not ready.  Completions that land in a future
        cycle are bucketed into the calendar inline; a zero-latency
        bypass goes through :meth:`WakeupCalendar.complete`, which
        wakes its waiters at once.  The simple-ALU accounting and
        completion routing are inlined for the classes that dominate the
        mix (simple int, branch, load, store, copy); complex-integer and
        FP instructions sync the local ALU mirror and take the reference
        :class:`~repro.cluster.FUPool` calls.
        """
        calendar = self._calendar
        calendar.fire(cycle)
        events = calendar.events
        ready_counts = self.ready_counts
        bypass = self.bypass
        bypass_latency = bypass.latency
        stats = self.stats
        ea_wheel = self.lsq._ea_wheel
        widths = self._issue_widths
        fifo = self.config.fifo_issue
        simple_int = _SIMPLE_INT
        branch = _BRANCH
        load = _LOAD
        store = _STORE
        for cluster in (0, 1):
            iq = self.iqs[cluster]
            # The live ready list, oldest first.  Within this cluster's
            # turn it only shrinks (by the issues below): a FIFO head
            # exposed by an issue waits on the issued entry, and
            # same-cycle wakeups (zero-latency bypasses) always target
            # the *other* cluster — so an index walk is safe and touches
            # only the entries the select logic actually considers.
            ready = iq._ready
            if fifo:
                where = iq._where
                fifos = iq._fifos
            else:
                window = iq._entries
            n_ready = len(ready)
            ready_counts[cluster] = n_ready
            if not n_ready:
                continue
            width = widths[cluster]
            fu = self.fus[cluster]
            if cycle != fu._cycle:  # inline FUPool._roll
                fu._cycle = cycle
                fu._simple_used = 0
                fu._complex_used = 0
                fu._fp_used = 0
                fu._fp_complex_used = 0
            simple_used = fu._simple_used
            n_simple = fu.n_simple
            issued = 0
            index = 0
            while index < len(ready) and issued < width:
                dyn = ready[index][1]
                if dyn.is_copy:
                    if not bypass.claim(cycle, cluster):
                        index += 1
                        continue
                    dyn.issue_cycle = cycle
                    if bypass_latency:
                        cc = cycle + bypass_latency
                        dyn.complete_cycle = cc
                        bucket = events.get(cc)
                        if bucket is None:
                            events[cc] = [dyn]
                        else:
                            bucket.append(dyn)
                    else:
                        # A zero-latency bypass completes *this* cycle:
                        # the calendar wakes the remote consumer at once,
                        # in time for the other cluster's selection
                        # below — the same visibility the in-order scan
                        # provides.
                        calendar.complete(dyn, cycle, cycle)
                    stats.copies_issued += 1
                else:
                    cls = dyn.cls
                    if (
                        cls is simple_int
                        or cls is branch
                        or cls is load
                        or cls is store
                    ):
                        if simple_used >= n_simple:
                            index += 1
                            continue
                        simple_used += 1
                    else:
                        # Complex int / FP: rare — sync the ALU mirror and
                        # use the reference availability/accounting calls.
                        fu._simple_used = simple_used
                        if not fu.can_issue(dyn, cycle):
                            index += 1
                            continue
                        fu.issue(dyn, cycle)
                        simple_used = fu._simple_used
                    dyn.issue_cycle = cycle
                    if cls is load:
                        # complete_cycle is set by the disambiguation queue;
                        # park the load on its address wheel until the
                        # address is ready (inline queue_address).
                        cc = cycle + 1
                        dyn.ea_done_cycle = cc
                        bucket = ea_wheel.get(cc)
                        if bucket is None:
                            ea_wheel[cc] = [dyn]
                        else:
                            bucket.append(dyn)
                    else:
                        if cls is store:
                            dyn.ea_done_cycle = cycle + 1
                            cc = cycle + 1
                        else:
                            cc = cycle + dyn.inst.latency
                        dyn.complete_cycle = cc
                        # Every latency is at least one cycle, so a register
                        # writer's completion lands in a future bucket.
                        if dyn.inst.dst is not None:
                            bucket = events.get(cc)
                            if bucket is None:
                                events[cc] = [dyn]
                            else:
                                bucket.append(dyn)
                    if dyn.copy_srcs:
                        self._mark_critical_copies(dyn, cycle)
                del ready[index]
                if fifo:
                    chain = fifos[where.pop(dyn.seq)]
                    del chain[0]
                    if not chain:
                        iq._n_empty += 1
                else:
                    del window[dyn.seq]
                issued += 1
            fu._simple_used = simple_used

    # ------------------------------------------------------------------
    # Issue: reference full-scan scheduler (kept for exactness testing)
    # ------------------------------------------------------------------
    def _issue_scan(self, cycle: int) -> None:
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

    _issue_stage = _issue_event

    def _mark_critical_copies(self, dyn: DynInst, cycle: int) -> None:
        """Flag copies that delayed this consumer (paper §3.4).

        A communication is critical when the consumer issued exactly when
        the copied value arrived and no non-copy operand arrived as late:
        removing the communication would have let the instruction issue
        earlier.
        """
        if not dyn.copy_srcs:
            return  # no copy providers: nothing this check could flag
        providers = dyn.providers
        if not providers:
            return
        max_cc = -1
        for p in providers:
            if p.complete_cycle > max_cc:
                max_cc = p.complete_cycle
        if max_cc != cycle:
            return  # the consumer was not waiting on its operands
        for p in providers:
            if not p.is_copy and p.complete_cycle == max_cc:
                return  # a non-copy operand arrived just as late
        for p in providers:
            if p.is_copy and p.complete_cycle == max_cc and not p.critical:
                p.critical = True
                self.stats.critical_copies += 1

    # ------------------------------------------------------------------
    def _dispatch_stage(self, cycle: int) -> None:
        """Fused batch dispatch over the flat presence masks.

        One pass per dispatch group: steering, rename planning, register
        and window feasibility, rename, and window insertion are
        collapsed into a single loop whose fast path — copies needed
        only for integer sources with a remote provider, enough
        registers and window slots — reads the map table's flat
        ``masks`` list and writes the rename/window structures directly,
        allocating no :class:`~repro.rename.renamer.RenamePlan` and
        crossing no helper boundaries.  Everything else (FP copies, a
        register-file hazard needing a replan, and every instruction
        under the scan oracle) is handed to the unfused reference helper
        once steered, so the paths are cycle-for-cycle identical.

        FIFO windows take the same loop.  Their reservation is the
        helper's (:meth:`_reserve_window`), read off the empty-FIFO
        counter ``_n_empty``: an empty FIFO in the chosen cluster if the
        instruction executes, and one per copy in the other cluster.
        Placement is :meth:`FifoIssueQueue.placement_for`'s rule found
        through the window's ``seq -> FIFO`` index, copies first, then
        the consumer; a placed entry's ``iq_rank`` is its ``seq``.
        """
        buffer = self.decode_buffer
        if not buffer:
            return
        rob_entries = self._rob_entries
        rob_capacity = self._rob_capacity
        if len(rob_entries) >= rob_capacity:
            self.stats.stall_rob += 1
            return
        (
            width,
            ctx,
            map_table,
            masks,
            entries,
            free_lists,
            iqs,
            lsq_queue,
            lsq_stores,
            fifo,
            fifo_depth,
            skip_supports,
            supports,
            allow_copies,
            next_seq,
            renamer,
            waiting,
        ) = self._dispatch_env
        stats = self.stats
        choose = self._choose_fn
        on_dispatch = self._on_dispatch_fn
        unfused = self._unfused_dispatch
        dispatch_one_slow = self._dispatch_one_slow
        popleft = buffer.popleft
        complex_int = _COMPLEX_INT
        fp = _FP
        load = _LOAD
        store = _STORE
        budget = width
        # The fused path's dispatches, and how many went to cluster 1,
        # added to ``stats.steered`` once per group (the helper counts
        # its own).
        helper_dispatched = 0
        to_cluster1 = 0
        while budget and buffer:
            dyn = buffer[0]
            if len(rob_entries) >= rob_capacity:
                stats.stall_rob += 1
                break
            cls = dyn.cls
            if cls is complex_int:
                cluster = 0
            elif cls is fp:
                cluster = 1
            else:
                cluster = choose(ctx, dyn)
                if cluster not in (0, 1):
                    raise SteeringError(
                        f"scheme {getattr(self.steering, 'name', '?')!r} "
                        f"returned cluster {cluster!r}"
                    )
                if not skip_supports and not supports[cluster](dyn):
                    raise SteeringError(
                        f"{dyn!r} steered to cluster {cluster}, which "
                        f"cannot execute it"
                    )
            if unfused:
                if not dispatch_one_slow(dyn, cluster, cycle):
                    break
                popleft()
                budget -= 1
                helper_dispatched += 1
                continue
            inst = dyn.inst
            srcs = inst.issue_srcs
            # Single pass over the sources: the providers and the flat
            # masks are maintained in lock-step, so an absent provider
            # *is* the missing-mask-bit condition, and the in-flight
            # providers are gathered along the way (re-gathered below in
            # the rare case copies get inserted).
            providers = []
            copy_srcs = False
            missing = None
            for reg in srcs:
                p = entries[reg].providers[cluster]
                if p is None:
                    if missing is None:
                        missing = [reg]
                    elif reg not in missing:
                        missing.append(reg)
                elif not (p.completed and p.complete_cycle <= 0):
                    providers.append(p)
                    if p.is_copy:
                        copy_srcs = True
            dst = inst.dst
            dst_cluster = (1 if dst >= FP_BASE else cluster) if (
                dst is not None
            ) else cluster
            executes = inst.executes
            slow = False
            if missing is not None:
                # Fused copy insertion.  Only the clear-cut case stays
                # inline — integer sources with a remote provider and
                # enough registers in the chosen cluster; anything
                # marginal (FP sources, a vanished remote provider, a
                # register-file hazard needing a replan, copies disabled)
                # funnels to the reference helper for its exact
                # stall/error behaviour.
                fused = allow_copies
                other = 1 - cluster
                if fused:
                    for reg in missing:
                        if reg >= FP_BASE or not (masks[reg] >> other) & 1:
                            fused = False
                            break
                if fused:
                    n_copies = len(missing)
                    need0 = n_copies if cluster == 0 else 0
                    need1 = n_copies - need0
                    if dst is not None:
                        if dst_cluster == 0:
                            need0 += 1
                        else:
                            need1 += 1
                    if (
                        free_lists[0]._free < need0
                        or free_lists[1]._free < need1
                    ):
                        fused = False
                if not fused:
                    slow = True
                else:
                    # Window feasibility first (the reference reserves
                    # before renaming): copies join the *source*
                    # cluster's queue, the consumer its own.
                    iq_other = iqs[other]
                    if fifo:
                        if iq_other._n_empty < n_copies:
                            stats.stall_iq += 1
                            break
                        if executes:
                            iq = iqs[cluster]
                            if not iq._n_empty:
                                stats.stall_iq += 1
                                break
                    else:
                        if (
                            len(iq_other._entries) + n_copies
                            > iq_other.capacity
                        ):
                            stats.stall_iq += 1
                            break
                        if executes:
                            iq = iqs[cluster]
                            if len(iq._entries) >= iq.capacity:
                                stats.stall_iq += 1
                                break
                    for reg in missing:
                        entry = entries[reg]
                        provider = entry.providers[other]
                        copy = make_copy_inst(next_seq(), reg, dyn.seq)
                        copy.cluster = other
                        copy.dispatch_cycle = cycle
                        copy.providers = [provider]
                        free_lists[cluster]._free -= 1
                        entry.providers[cluster] = copy
                        masks[reg] |= 1 << cluster
                        # Integer register now mapped in both clusters
                        # (the remote presence was just checked).
                        map_table._replicated_ints += 1
                        renamer.copies_created += 1
                        # Inline window insert for the copy.
                        cc = provider.complete_cycle
                        if cc < 0 or cc > cycle:
                            waiters = waiting.get(provider.seq)
                            if waiters is None:
                                waiting[provider.seq] = [copy]
                            else:
                                waiters.append(copy)
                            copy.pending_ops = 1
                            pending = 1
                        else:
                            pending = 0
                        if fifo:
                            # Inline FIFO placement: continue the
                            # provider's chain if it is a non-full FIFO's
                            # tail, else take the lowest empty FIFO
                            # (reserved above).
                            chains = iq_other._fifos
                            index = iq_other._where.get(provider.seq)
                            if index is not None:
                                chain = chains[index]
                                if (
                                    chain[-1] is not provider
                                    or len(chain) >= fifo_depth
                                ):
                                    index = None
                            if index is None:
                                index = chains.index([])
                            chain = chains[index]
                            chain.append(copy)
                            iq_other._where[copy.seq] = index
                            copy.iq_rank = copy.seq
                            if len(chain) == 1:
                                iq_other._n_empty -= 1
                                if not pending:
                                    insort(
                                        iq_other._ready, (copy.seq, copy)
                                    )
                        else:
                            rank = iq_other._next_rank
                            iq_other._next_rank = rank + 1
                            copy.iq_rank = rank
                            iq_other._entries[copy.seq] = copy
                            if not pending:
                                iq_other._ready.append((rank, copy))
                        stats.copies_created += 1
                    # Re-gather the sources with the copies installed.
                    providers = []
                    copy_srcs = False
                    for reg in srcs:
                        p = entries[reg].providers[cluster]
                        if not (p.completed and p.complete_cycle <= 0):
                            providers.append(p)
                            if p.is_copy:
                                copy_srcs = True
            elif dst is not None and free_lists[dst_cluster]._free < 1:
                # Register-file hazard: the slow path replans into the
                # other cluster before declaring a stall.
                slow = True
            elif executes:
                iq = iqs[cluster]
                if fifo:
                    full = not iq._n_empty
                else:
                    full = len(iq._entries) >= iq.capacity
                if full:
                    stats.stall_iq += 1
                    break
            if slow:
                if not dispatch_one_slow(dyn, cluster, cycle):
                    break
                popleft()
                budget -= 1
                helper_dispatched += 1
                continue
            # Inline rename: the sources resolved locally above, the
            # destination remaps in place.
            dyn.providers = providers
            dyn.copy_srcs = copy_srcs
            if dst is not None:
                free_lists[dst_cluster]._free -= 1
                entry = entries[dst]
                old = entry.providers
                f0 = 1 if old[0] is not None else 0
                f1 = 1 if old[1] is not None else 0
                if dst < FP_BASE and f0 and f1:
                    map_table._replicated_ints -= 1
                new = [None, None]
                new[dst_cluster] = dyn
                entry.providers = new
                masks[dst] = 1 << dst_cluster
                dyn.frees = (f0, f1)
            dyn.cluster = cluster
            dyn.dispatch_cycle = cycle
            if executes:
                # Inline window insert (capacity reserved above).
                pending = 0
                for p in providers:
                    cc = p.complete_cycle
                    if cc < 0 or cc > cycle:
                        waiters = waiting.get(p.seq)
                        if waiters is None:
                            waiting[p.seq] = [dyn]
                        else:
                            waiters.append(dyn)
                        pending += 1
                dyn.pending_ops = pending
                if fifo:
                    # Inline FIFO placement: the lowest non-full FIFO
                    # whose tail is a provider, else the lowest empty
                    # FIFO (reserved above).  list.index compares
                    # lengths first, so it touches no entry.
                    where = iq._where
                    chains = iq._fifos
                    chosen = None
                    for p in providers:
                        index = where.get(p.seq)
                        if index is not None and (
                            chosen is None or index < chosen
                        ):
                            chain = chains[index]
                            if chain[-1] is p and len(chain) < fifo_depth:
                                chosen = index
                    if chosen is None:
                        chosen = chains.index([])
                    chain = chains[chosen]
                    chain.append(dyn)
                    where[dyn.seq] = chosen
                    dyn.iq_rank = dyn.seq
                    if len(chain) == 1:
                        iq._n_empty -= 1
                        if not pending:
                            insort(iq._ready, (dyn.seq, dyn))
                else:
                    rank = iq._next_rank
                    iq._next_rank = rank + 1
                    dyn.iq_rank = rank
                    iq._entries[dyn.seq] = dyn
                    if not pending:
                        iq._ready.append((rank, dyn))
            else:
                # Jumps/nops need no execution; they complete at dispatch.
                self._complete(dyn, cycle, cycle)
            # Inline DisambiguationQueue.add, in program order.
            if cls is load:
                lsq_queue.append(dyn)
            elif cls is store:
                lsq_queue.append(dyn)
                lsq_stores.append(dyn)
            # Inline ROB push: capacity checked at the loop top; seq
            # monotonicity holds by in-order dispatch (copies never
            # enter the ROB).
            rob_entries.append(dyn)
            to_cluster1 += cluster
            if on_dispatch is not None:
                on_dispatch(ctx, dyn, cluster)
            popleft()
            budget -= 1
        fused = width - budget - helper_dispatched
        if fused:
            steered = stats.steered
            steered[0] += fused - to_cluster1
            steered[1] += to_cluster1

    def _dispatch_one_slow(
        self, dyn: DynInst, cluster: int, cycle: int
    ) -> bool:
        """Reference dispatch of one steered instruction.

        The full plan/feasible/reserve/rename sequence, with FIFO window
        placement.  Returns ``True`` once *dyn* is dispatched; on a
        stall it counts the stall and returns ``False``, and the caller
        ends the dispatch group.
        """
        config = self.config
        plan = self.renamer.plan(dyn, cluster)
        if plan.copies and not config.allow_copies:
            raise SteeringError(
                f"scheme {getattr(self.steering, 'name', '?')!r} chose "
                f"cluster {cluster} for {dyn!r} but the machine has no "
                f"inter-cluster bypasses"
            )
        if not self.renamer.feasible(plan):
            # Structural hazard: no physical registers for this
            # choice.  Like real dispatch logic, try the other
            # cluster before stalling — without this, a small
            # register file can wedge in-order dispatch for ever
            # (the stalled head itself is the only instruction that
            # could free the registers it waits for).
            plan = self._replan_other_cluster(dyn, cluster, plan)
            if plan is None:
                self.stats.stall_regs += 1
                return False
            cluster = plan.cluster
        executes = dyn.inst.executes
        if not self._reserve_window(dyn, cluster, plan, executes):
            self.stats.stall_iq += 1
            return False
        copies = self.renamer.rename(
            dyn, plan, cycle, self.fetch_unit.next_seq
        )
        for copy in copies:
            self._insert_window(copy, copy.cluster, cycle)
            self.stats.copies_created += 1
        dyn.dispatch_cycle = cycle
        if executes:
            self._insert_window(dyn, cluster, cycle)
        else:
            # Jumps/nops need no execution; they complete at dispatch.
            self._complete(dyn, cycle, cycle)
        if dyn.inst.is_memory:
            self.lsq.add(dyn)
        self.rob.push(dyn)
        self.stats.steered[cluster] += 1
        if self._on_dispatch_fn is not None:
            self._on_dispatch_fn(self._steer_ctx, dyn, cluster)
        return True

    def _replan_other_cluster(self, dyn: DynInst, cluster: int, plan):
        """Fallback plan in the other cluster, or ``None``.

        Only legal when the machine has bypasses (otherwise the other
        cluster cannot see the operands) and when the other cluster can
        execute the instruction at all.
        """
        if not self.config.allow_copies:
            return None
        other = 1 - cluster
        if not self.fus[other].supports(dyn):
            return None
        alt = self.renamer.plan(dyn, other)
        if alt.copies and not self.config.allow_copies:
            return None
        if not self.renamer.feasible(alt):
            return None
        return alt

    def _reserve_window(
        self, dyn: DynInst, cluster: int, plan, executes: bool
    ) -> bool:
        """Check that the windows can take the instruction and its copies.

        Copies join their source cluster's window, the instruction (if it
        executes) its own.  A conventional window needs one free entry
        per instruction.  A FIFO window needs one *empty FIFO* per
        instruction: the reservation runs before rename, when the
        consumer has no providers yet and its copies do not exist, so it
        counts none of them as joining a chain at a tail.  Dispatch
        therefore stalls whenever the chosen cluster has no empty FIFO,
        even when the instruction could join a chain — more pessimistic
        than step 3 of the §3.9 heuristic in
        :mod:`repro.cluster.fifo_iq`.  The fused dispatch loop compares
        the same counts against ``_n_empty``; changing the rule is a
        timing change that moves the golden digests.
        """
        needed = [plan.copies_from(0), plan.copies_from(1)]
        if executes:
            needed[cluster] += 1
        return all(
            self.iqs[c].can_accept(needed[c]) for c in (0, 1) if needed[c]
        )

    def _insert_window(self, dyn: DynInst, cluster: int, cycle: int) -> None:
        """Place *dyn* in *cluster*'s window, enrolling it for wakeup.

        Each provider that has not completed by *cycle* gets *dyn*
        appended to its consumer list and bumps the pending-operand
        counter; a provider completing at or before *cycle* is already
        visible to next cycle's select, exactly as the reference scan
        would observe it.  Under the scan scheduler the counter is pinned
        non-zero so the (unused) ready sets stay empty.
        """
        if self._event_driven:
            waiting = self._calendar.waiting
            pending = 0
            for p in dyn.providers:
                cc = p.complete_cycle
                if cc < 0 or cc > cycle:
                    waiters = waiting.get(p.seq)
                    if waiters is None:
                        waiting[p.seq] = [dyn]
                    else:
                        waiters.append(dyn)
                    pending += 1
            dyn.pending_ops = pending
        else:
            dyn.pending_ops = 1
        if not self.iqs[cluster].insert(dyn):
            # _reserve_window accepted this instruction one call earlier;
            # a refused insert means the reservation logic is broken.
            raise SimulationError(
                f"{self.iqs[cluster].name}: insert into a full queue"
            )


def _set_complete_cycle(dyn: DynInst, complete_cycle: int, cycle: int) -> None:
    """The scan oracle's completion hook: it polls, so nothing is woken."""
    dyn.complete_cycle = complete_cycle

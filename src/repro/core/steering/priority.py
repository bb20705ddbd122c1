"""Priority slice balance steering (paper §3.7).

Only *critical* slices — those whose defining load misses the cache, or
whose defining branch mispredicts, often enough — are kept together on
one cluster; all other instructions are steered individually like in the
non-slice balance scheme, which gives the balancer more freedom and
avoids re-mapping communications inside critical slices.

The criticality threshold self-adjusts: every 8192 cycles the scheme
compares how many dispatched instructions belonged to critical slices
against half of all dispatched instructions, raising the threshold when
critical slices cover too much of the program and lowering it otherwise
(targeting ~50% coverage, the paper's operating point).
"""

from __future__ import annotations

from ...isa import DynInst, InstrClass
from .slice_balance import SliceBalanceSteering

#: Threshold-adjustment period (2**13 cycles, a 13-bit hardware counter).
ADJUST_PERIOD = 8192


class PrioritySliceBalanceSteering(SliceBalanceSteering):
    """Slice balance applied to critical slices only."""

    def __init__(self, kind: str, target_fraction: float = 0.5) -> None:
        super().__init__(kind)
        self.name = f"{kind}-priority"
        if not 0.0 < target_fraction < 1.0:
            raise ValueError("target_fraction must be in (0, 1)")
        self.target_fraction = target_fraction

    def reset(self, machine) -> None:
        super().reset(machine)
        self._hit_latency = machine.hierarchy.timing.l1_hit
        self.threshold = 1
        self._critical_dispatched = 0
        self._total_dispatched = 0
        self._cycles = 0

    # ------------------------------------------------------------------
    def choose_cluster(self, ctx, dyn: DynInst) -> int:
        sid = self.slice_ids.slice_of(dyn.inst.pc)
        if sid is not None and self.clusters.is_critical(sid, self.threshold):
            return self._steer_slice(sid, ctx)
        return self._steer_nonslice(dyn, ctx)

    def on_dispatch(self, ctx, dyn: DynInst, cluster: int) -> None:
        if dyn.is_copy:
            return
        super().on_dispatch(ctx, dyn, cluster)
        self._total_dispatched += 1
        sid = self.slice_ids.slice_of(dyn.inst.pc)
        if sid is not None and self.clusters.is_critical(sid, self.threshold):
            self._critical_dispatched += 1

    def on_cycle(self, machine) -> None:
        super().on_cycle(machine)
        self._cycles += 1
        if self._cycles >= ADJUST_PERIOD:
            self._cycles = 0
            target = self._total_dispatched * self.target_fraction
            if self._critical_dispatched > target:
                self.threshold += 1
            elif self.threshold > 1:
                self.threshold -= 1
            self._critical_dispatched = 0
            self._total_dispatched = 0

    # ------------------------------------------------------------------
    def on_commit(self, dyn: DynInst) -> None:
        """Criticality feedback: misses and mispredictions of defining
        instructions raise their slice's event count."""
        cls = dyn.cls
        if cls is InstrClass.LOAD:
            if dyn.mem_latency > self._hit_latency:
                self.clusters.record_event(dyn.inst.pc)
        elif cls is InstrClass.BRANCH and dyn.mispredicted:
            self.clusters.record_event(dyn.inst.pc)

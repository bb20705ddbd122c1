"""General balance steering (paper §3.8) — the headline scheme.

The limit case of the priority scheme where no slice is ever critical:
every instruction is steered individually.  Instructions go to the
least-loaded cluster when there is a strong workload imbalance or when
their operands split evenly between the clusters; otherwise they go where
most of their operands reside.  No slice-detection hardware is needed at
all, and the paper reports the best performance of all schemes: +36% on
average over the base machine, 8% below the 16-way upper bound.
"""

from __future__ import annotations

from ...isa import DynInst
from ..balance import ImbalanceEstimator
from .base import SteeringScheme, affinity_cluster, least_loaded


class GeneralBalanceSteering(SteeringScheme):
    """Operand affinity with an imbalance override, no slices."""

    name = "general-balance"

    def reset(self, machine) -> None:
        super().reset(machine)
        config = machine.config
        self.imbalance = ImbalanceEstimator(
            window=config.imbalance_window,
            threshold=config.imbalance_threshold,
            issue_widths=[c.issue_width for c in config.clusters],
        )

    def choose_cluster(self, ctx, dyn: DynInst) -> int:
        # The estimator's strongly_imbalanced / preferred_cluster rules,
        # read off the counter without the property calls.
        imbalance = self.imbalance
        counter = imbalance.counter
        threshold = imbalance.threshold
        if counter > threshold or -counter > threshold:
            return 1 if counter > 0 else 0
        masks = ctx.masks
        if masks is not None:
            # Inline operand affinity over the flat presence masks — the
            # hottest steering path on the headline scheme.
            c0 = c1 = 0
            for reg in dyn.inst.srcs:
                mask = masks[reg]
                if mask & 1:
                    c0 += 1
                if mask & 2:
                    c1 += 1
            if c0 != c1:
                return 0 if c0 > c1 else 1
            return ctx.least_loaded()
        cluster, tie = affinity_cluster(dyn, ctx)
        if tie:
            return least_loaded(ctx)
        return cluster

    def on_dispatch(self, ctx, dyn: DynInst, cluster: int) -> None:
        if not dyn.is_copy:
            # ImbalanceEstimator.on_steer, inline (I1 update).
            self.imbalance.counter += 1 if cluster == 0 else -1

    def on_cycle(self, machine) -> None:
        self.imbalance.on_cycle(machine.ready_counts)

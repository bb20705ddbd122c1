#!/usr/bin/env python3
"""Extending the library: write and evaluate your own steering scheme.

The steering interface (:class:`repro.SteeringScheme`) is the paper's
hardware block of Figure 1; anything implementing
``choose_cluster(self, ctx, dyn)`` (and optionally
``on_dispatch(self, ctx, dyn, cluster)``) over the documented
:class:`~repro.core.steering.context.SteeringContext` read-view can be
simulated.  This example builds a
"sticky affinity" scheme — follow the operands, but flip to the other
cluster only after K consecutive imbalanced cycles — registers it, and
races it against the paper's general balance steering.

Run:  python examples/custom_scheme.py [benchmark]
"""

import sys

from repro import (
    SteeringScheme,
    register_scheme,
    simulate,
    simulate_baseline,
)
from repro.core.balance import ImbalanceEstimator
from repro.core.steering import affinity_cluster, least_loaded


class StickyAffinitySteering(SteeringScheme):
    """Operand affinity with hysteresis on the balance override.

    The paper's general balance steering reacts to its counter instantly;
    this variant requires the imbalance to persist ``patience`` cycles
    before overriding affinity, trading balance reactivity for fewer
    communications.
    """

    name = "sticky-affinity"

    def __init__(self, patience: int = 4) -> None:
        self.patience = patience

    def reset(self, machine) -> None:
        super().reset(machine)
        config = machine.config
        self.imbalance = ImbalanceEstimator(
            window=config.imbalance_window,
            threshold=config.imbalance_threshold,
            issue_widths=[c.issue_width for c in config.clusters],
        )
        self._streak = 0

    def choose_cluster(self, ctx, dyn) -> int:
        if self._streak >= self.patience:
            return self.imbalance.preferred_cluster
        cluster, tie = affinity_cluster(dyn, ctx)
        if tie:
            return least_loaded(ctx)
        return cluster

    def on_dispatch(self, ctx, dyn, cluster) -> None:
        if not dyn.is_copy:
            self.imbalance.on_steer(cluster)

    def on_cycle(self, machine) -> None:
        self.imbalance.on_cycle(machine.ready_counts)
        if self.imbalance.strongly_imbalanced:
            self._streak += 1
        else:
            self._streak = 0


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "vortex"
    register_scheme("sticky-affinity", StickyAffinitySteering)

    base = simulate_baseline(bench, n_instructions=10000, warmup=4000)
    print(f"{bench}: base IPC {base.ipc:.3f}")
    for scheme in ("general-balance", "sticky-affinity"):
        result = simulate(
            bench, steering=scheme, n_instructions=10000, warmup=4000
        )
        print(
            f"  {scheme:<18s} speed-up {result.speedup_over(base):+6.1%}  "
            f"comms/instr {result.comms_per_instr:.3f}"
        )


if __name__ == "__main__":
    main()

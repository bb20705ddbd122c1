"""Steering scheme interface.

A steering scheme is the hardware block of Figure 1 deciding, at decode,
which cluster each instruction is dispatched to.  The processor:

* calls :meth:`SteeringScheme.reset` once, handing the scheme the machine
  (the :class:`~repro.pipeline.processor.Processor` itself) to read its
  configuration from;
* calls :meth:`choose_cluster` with a
  :class:`~repro.core.steering.context.SteeringContext` for every
  *steerable* instruction (complex integer and FP instructions are
  forced to their clusters before the scheme is consulted);
* calls :meth:`on_dispatch` with the same context for **every**
  dispatched instruction — including forced ones — so I1-style counters
  see the full stream;
* calls :meth:`on_cycle` once per cycle after issue (ready counts are
  fresh), and :meth:`on_commit` for every committed instruction (the
  criticality feedback used by the priority scheme).

A scheme that keeps the base class's no-op :meth:`on_dispatch`,
:meth:`on_cycle` or :meth:`on_commit` is not called for that hook.

The context is the documented read surface (presence masks, IQ
occupancy, ready counts, the dispatch batch, the steering-decision
memo); see :mod:`repro.core.steering.context`.

Helper functions shared by several schemes (operand affinity, least
loaded cluster) live here too.
"""

from __future__ import annotations

from typing import Tuple

from ...isa import DynInst

#: Cluster index of the integer cluster (complex-int units).
INT_CLUSTER = 0
#: Cluster index of the FP cluster (FP units, simple-int capable).
FP_CLUSTER = 1


class SteeringScheme:
    """Base class of all cluster-assignment mechanisms."""

    #: Registry name; subclasses override.
    name = "abstract"
    #: True when the scheme models the FIFO-window machine of §3.9 and
    #: therefore needs ``config.fifo_issue``.
    requires_fifo_issue = False

    def reset(self, machine) -> None:
        """Prepare for a run on *machine* (called once, at construction).

        Read what the scheme needs from *machine* here, but keep no
        reference to it: the processor holds the scheme, so a reference
        back would make every finished processor a reference cycle that
        only the cyclic garbage collector frees.
        """

    # ------------------------------------------------------------------
    # The context API (implement these)
    # ------------------------------------------------------------------
    def choose_cluster(self, ctx, dyn: DynInst) -> int:
        """Pick the cluster (0 or 1) for a steerable instruction.

        *ctx* is the :class:`SteeringContext` read-view.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement choose_cluster"
        )

    def on_dispatch(self, ctx, dyn: DynInst, cluster: int) -> None:
        """Observe a dispatched instruction (forced ones included)."""

    def on_cycle(self, machine) -> None:
        """Observe the end of a cycle (ready counts are up to date)."""

    def on_commit(self, dyn: DynInst) -> None:
        """Observe a committed instruction (miss/mispredict feedback)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def operand_presence(dyn: DynInst, machine) -> Tuple[int, int]:
    """Count of *dyn*'s source operands present in each cluster.

    Registers present in both clusters count toward both — the scheme's
    affinity decision is about avoiding copies, and a replicated operand
    needs none either way.  *machine* is a :class:`SteeringContext` or
    a test fake (both expose ``presence_mask``).
    """
    counts = [0, 0]
    for reg in dyn.inst.srcs:
        mask = machine.presence_mask(reg)
        if mask & 1:
            counts[0] += 1
        if mask & 2:
            counts[1] += 1
    return counts[0], counts[1]


def least_loaded(machine) -> int:
    """Cluster with the lighter instantaneous load.

    Ready-instruction counts are the primary signal (the paper's workload
    measure); window occupancy breaks ties.  Accepts a
    :class:`SteeringContext` or a test fake.
    """
    r0, r1 = machine.ready_counts
    if r0 != r1:
        return 0 if r0 < r1 else 1
    o0 = machine.iq_occupancy(0)
    o1 = machine.iq_occupancy(1)
    if o0 != o1:
        return 0 if o0 < o1 else 1
    return FP_CLUSTER  # spare capacity usually sits in the FP cluster


def affinity_cluster(dyn: DynInst, machine) -> Tuple[int, bool]:
    """Operand-affinity choice: ``(cluster, tie)``.

    *tie* is True when both clusters hold the same number of operands
    (including the no-operand case), in which case balance policies take
    over.  Accepts a machine or a :class:`SteeringContext`.
    """
    c0, c1 = operand_presence(dyn, machine)
    if c0 == c1:
        return least_loaded(machine), True
    return (0 if c0 > c1 else 1), False

"""FIFO-based steering (Palacharla, Jouppi & Smith; paper §3.9).

The comparison scheme of Figure 16: each cluster's window is a collection
of FIFOs holding chains of dependent instructions (see
:class:`~repro.cluster.fifo_iq.FifoIssueQueue`).  Cluster choice follows
the dependence-chain heuristic: steer to the cluster where a source
operand's producer currently sits at a FIFO tail (the chain continues in
place); otherwise start a new chain in the cluster with the lighter
window.

The scheme requires the machine to be configured with FIFO windows
(``ProcessorConfig.with_fifo_issue()``); the registry takes care of that
pairing.
"""

from __future__ import annotations

from ...errors import SteeringError
from ...isa import DynInst
from .base import SteeringScheme


class FifoSteering(SteeringScheme):
    """Dependence-chain steering over FIFO windows."""

    name = "fifo"
    requires_fifo_issue = True

    def reset(self, machine) -> None:
        super().reset(machine)
        if not machine.config.fifo_issue:
            raise SteeringError(
                "fifo steering needs ProcessorConfig.with_fifo_issue()"
            )

    def choose_cluster(self, ctx, dyn: DynInst) -> int:
        # Reads the map table's entries and the windows' ``seq -> FIFO``
        # index directly, as general balance reads ``ctx.masks``: the
        # same rule as ``MapTable.provider``, a tail test through
        # ``_where``, and the occupancy as ``len(_where)``, without a
        # call per operand and cluster.
        iqs = ctx.iqs
        srcs = dyn.inst.issue_srcs
        if srcs:
            # Follow the chain of the *first* operand, as the original
            # heuristic does; later operands produced elsewhere become
            # inter-cluster communications (the paper measures 0.162 of
            # them per instruction for this scheme).  Only *in-flight*
            # producers continue a chain — a committed value does not pin
            # new chains to its cluster.  A producer that has issued left
            # its FIFO, so it is no tail either.
            providers = ctx.map_table.entries[srcs[0]].providers
            for cluster in (0, 1):
                provider = providers[cluster]
                if provider is None or provider.issue_cycle >= 0:
                    continue
                iq = iqs[cluster]
                index = iq._where.get(provider.seq)
                if index is not None and iq._fifos[index][-1] is provider:
                    return cluster
                # The producer is in flight but already has a consumer
                # queued behind it (it is not a FIFO tail): the chain
                # cannot be extended, so this instruction starts a new
                # chain — possibly in the other cluster, which is where
                # this scheme's communications come from.
        # New chain: the original heuristic starts it wherever a FIFO is
        # free, without consulting operand locations — spreading chains
        # blindly is what drives this scheme's communication rate (the
        # paper measures 0.162 copies per instruction against 0.042 for
        # general balance steering).
        o0 = len(iqs[0]._where)
        o1 = len(iqs[1]._where)
        if abs(o0 - o1) > ctx.config.fifo_depth:
            return 0 if o0 < o1 else 1
        return dyn.seq & 1

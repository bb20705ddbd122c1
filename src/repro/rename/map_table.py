"""The single register map table with per-cluster mappings (paper §2).

Because simple integer instructions may execute in either cluster, each
integer logical register can be *present* (have an allocated physical
register) in one cluster, in both, or transiently in neither cluster's
committed state while a producer is in flight.  The map table therefore
stores, per logical register and per cluster, the :class:`DynInst` whose
completion makes the value readable there — either the producing
instruction or a copy instruction moving it across.

A consumer steered to cluster *c* resolves its source to ``entry[c]``;
when the value is absent there, the dispatch logic inserts a copy (see
:mod:`repro.rename.renamer`) and records it in the entry so later
consumers in *c* reuse the same copy — the register replication the paper
measures in Figure 15.
"""

from __future__ import annotations

from typing import List, Optional

from ..isa import DynInst, Instruction, Opcode
from ..isa.registers import FP_BASE, N_REGS


def _architectural_value() -> DynInst:
    """A pseudo-producer representing committed architectural state."""
    inst = Instruction(pc=0, opcode=Opcode.NOP)
    dyn = DynInst(-1, inst)
    dyn.complete_cycle = 0
    dyn.completed = True
    return dyn


class MapEntry:
    """Presence of one logical register in each cluster."""

    __slots__ = ("providers",)

    def __init__(self) -> None:
        self.providers: List[Optional[DynInst]] = [None, None]

    @property
    def replicated(self) -> bool:
        """True when the value occupies registers in both clusters."""
        return self.providers[0] is not None and self.providers[1] is not None


class MapTable:
    """Map from logical register to per-cluster providers."""

    def __init__(self, n_clusters: int = 2) -> None:
        if n_clusters != 2:
            raise ValueError("the paper's machine has exactly two clusters")
        self.entries: List[MapEntry] = [MapEntry() for _ in range(N_REGS)]
        # Flat per-register presence masks (bit c = present in cluster
        # c), maintained by define/add_copy in lock-step with the
        # entries.  The steering/dispatch hot paths index this list
        # directly; its identity is stable for the table's lifetime so
        # a SteeringContext can hold a reference across resets.
        self.masks: List[int] = [0] * N_REGS
        self.reset()

    def reset(self) -> None:
        """Pin architectural state: int regs in cluster 0, FP in cluster 1."""
        anchor = _architectural_value()
        masks = self.masks
        for reg, entry in enumerate(self.entries):
            entry.providers = [None, None]
            entry.providers[0 if reg < FP_BASE else 1] = anchor
            masks[reg] = 1 if reg < FP_BASE else 2
        # Maintained incrementally by define/add_copy so the per-cycle
        # replication statistic is O(1) instead of a 64-entry scan.
        self._replicated_ints = 0

    # ------------------------------------------------------------------
    def provider(self, reg: int, cluster: int) -> Optional[DynInst]:
        """Provider of *reg* in *cluster* (None when absent)."""
        return self.entries[reg].providers[cluster]

    def presence_mask(self, reg: int) -> int:
        """Bit mask of clusters where *reg* is present (bit c = cluster c)."""
        return self.masks[reg]

    def define(self, reg: int, cluster: int, producer: DynInst) -> tuple:
        """Install *producer* as the new value of *reg* in *cluster*.

        Returns ``(freed0, freed1)``: how many physical registers the old
        mapping held in each cluster.  Those registers are released when
        *producer* commits (the old value may still have in-flight
        readers until then).
        """
        entry = self.entries[reg]
        freed = (
            int(entry.providers[0] is not None),
            int(entry.providers[1] is not None),
        )
        if reg < FP_BASE and freed[0] and freed[1]:
            self._replicated_ints -= 1
        entry.providers = [None, None]
        entry.providers[cluster] = producer
        self.masks[reg] = 1 << cluster
        return freed

    def add_copy(self, reg: int, cluster: int, copy: DynInst) -> None:
        """Record that *copy* will materialise *reg* in *cluster*."""
        entry = self.entries[reg]
        if entry.providers[cluster] is not None:
            raise ValueError(
                f"register {reg} already present in cluster {cluster}"
            )
        entry.providers[cluster] = copy
        self.masks[reg] |= 1 << cluster
        if reg < FP_BASE and entry.providers[1 - cluster] is not None:
            self._replicated_ints += 1

    def count_replicated(self, upto: int = FP_BASE) -> int:
        """Number of logical registers currently mapped in both clusters.

        By default only integer registers are counted — FP values never
        replicate in this microarchitecture.  The default is served from
        the incrementally maintained counter; other ranges fall back to a
        scan.
        """
        if upto == FP_BASE:
            return self._replicated_ints
        return sum(1 for e in self.entries[:upto] if e.replicated)

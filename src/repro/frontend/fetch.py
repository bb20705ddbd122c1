"""Fetch unit: trace-driven front end with I-cache and branch prediction.

Per cycle the unit delivers up to ``fetch_width`` instructions from the
committed path, subject to:

* **I-cache misses** — fetch stalls until the line arrives;
* **taken branches** — a (correctly) predicted-taken branch ends the fetch
  group for the cycle;
* **branch mispredictions** — trace-driven simulation does not execute the
  wrong path; instead, fetch stops at a mispredicted branch and resumes a
  configurable number of cycles after the branch resolves, which models the
  squash-and-refill penalty;
* **back-pressure** — the caller bounds the number of instructions it can
  accept (decode buffer space).
"""

from __future__ import annotations

from typing import List, Optional

from ..isa import DynInst
from ..memory import MemoryHierarchy
from ..workloads.columns import CONDITIONAL, CONTROL, TAKEN, TraceColumns
from .predictors import CombinedPredictor


class FetchUnit:
    """Produces DynInst groups from the trace oracle's columns.

    The committed path arrives as a
    :class:`~repro.workloads.columns.TraceColumns` set; the unit indexes
    its parallel arrays directly, so array indexing and packed-flag tests
    replace per-record iterator calls and attribute chains.
    """

    def __init__(
        self,
        columns: TraceColumns,
        hierarchy: MemoryHierarchy,
        predictor: CombinedPredictor,
        fetch_width: int = 8,
        redirect_penalty: int = 1,
    ) -> None:
        self.columns = columns
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.fetch_width = fetch_width
        self.redirect_penalty = redirect_penalty
        self._col_pos = 0
        self._seq = 0
        self._icache_stall_until = -1
        self._stalling_branch: Optional[DynInst] = None
        self._last_line = -1
        self.fetched = 0
        self.icache_stall_cycles = 0
        self.mispredict_stall_cycles = 0

    def next_seq(self) -> int:
        """Allocate a global sequence number (also used for copies)."""
        seq = self._seq
        self._seq += 1
        return seq

    # ------------------------------------------------------------------
    def fetch(self, cycle: int, budget: int) -> List[DynInst]:
        """Fetch up to ``min(budget, fetch_width)`` instructions.

        Returns the fetched group (possibly empty while stalled).  Running
        past the end of a frozen trace raises
        :class:`~repro.errors.ScenarioError` when the next record is
        needed, before its I-cache line is checked.
        """
        if self._stalling_branch is not None:
            branch = self._stalling_branch
            if branch.complete_cycle < 0 or cycle <= (
                branch.complete_cycle + self.redirect_penalty
            ):
                self.mispredict_stall_cycles += 1
                return []
            self._stalling_branch = None
            self._last_line = -1  # redirect refetches the target line
        if cycle < self._icache_stall_until:
            self.icache_stall_cycles += 1
            return []

        cols = self.columns
        hierarchy = self.hierarchy
        line_bytes = hierarchy.l1i.line_bytes
        insts = cols.insts
        flags = cols.flags
        addrs = cols.mem_addrs
        lines = cols.line_ids(line_bytes)
        limit = min(budget, self.fetch_width)
        idx = self._col_pos
        seq = self._seq
        last_line = self._last_line
        predictor_update = self.predictor.predict_and_update
        n = len(insts)
        group: List[DynInst] = []
        fetched = 0
        while fetched < limit:
            if idx >= n:
                cols.require(idx + 1)  # extend, or ScenarioError (frozen)
                insts = cols.insts
                flags = cols.flags
                addrs = cols.mem_addrs
                lines = cols.line_ids(line_bytes)
                n = len(insts)
            line = lines[idx]
            inst = insts[idx]
            if line != last_line:
                latency = hierarchy.ifetch_latency(inst.pc)
                last_line = line
                if latency > hierarchy.timing.l1_hit:
                    # Line is being filled; deliver what we have and stall.
                    self._icache_stall_until = cycle + latency
                    break
            f = flags[idx]
            taken = (f & TAKEN) != 0
            dyn = DynInst(seq, inst, taken, addrs[idx])
            seq += 1
            idx += 1
            dyn.fetch_cycle = cycle
            group.append(dyn)
            fetched += 1
            if f & CONTROL:
                if f & CONDITIONAL:
                    prediction = predictor_update(inst.pc, taken)
                    dyn.pred_taken = prediction
                    if prediction != taken:
                        dyn.mispredicted = True
                        self._stalling_branch = dyn
                        break
                else:
                    # Unconditional jumps: BTB assumed to hit.
                    dyn.pred_taken = True
                if taken:
                    break  # a taken branch ends the fetch group
        self._col_pos = idx
        self._seq = seq
        self._last_line = last_line
        self.fetched += fetched
        return group

    @property
    def stalled(self) -> bool:
        """True while waiting on a mispredicted branch or an I-miss."""
        return self._stalling_branch is not None

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
* **back-pressure** — the unit fills the decode buffer it was given and
  stops when the buffer is full.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..isa import DynInst
from ..memory import MemoryHierarchy
from ..workloads.columns import CONDITIONAL, CONTROL, TAKEN, TraceColumns
from .predictors import CombinedPredictor


class FetchUnit:
    """Fetches DynInst groups from the trace oracle's columns into the
    decode buffer.

    The committed path arrives as a
    :class:`~repro.workloads.columns.TraceColumns` set; the unit indexes
    its parallel arrays directly, so array indexing and packed-flag tests
    replace per-record iterator calls and attribute chains.

    *decode_buffer* is the deque :meth:`fetch` appends to, holding at
    most *decode_buffer_size* instructions; a
    :class:`~repro.pipeline.processor.Processor` passes its own, and its
    fetch stage attribute ``_fetch`` is this unit's bound :meth:`fetch`.
    """

    def __init__(
        self,
        columns: TraceColumns,
        hierarchy: MemoryHierarchy,
        predictor: CombinedPredictor,
        fetch_width: int = 8,
        redirect_penalty: int = 1,
        decode_buffer: Optional[Deque[DynInst]] = None,
        decode_buffer_size: int = 16,
    ) -> None:
        self.columns = columns
        self.decode_buffer: Deque[DynInst] = (
            deque() if decode_buffer is None else decode_buffer
        )
        self.decode_buffer_size = decode_buffer_size
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.fetch_width = fetch_width
        self.redirect_penalty = redirect_penalty
        # The columns grow in place (``TraceColumns.fill`` extends every
        # list, the cached line ids included), so the loop holds them.
        self._arrays = (
            columns.insts,
            columns.flags,
            columns.mem_addrs,
            columns.line_ids(hierarchy.l1i.line_bytes),
        )
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
    def fetch(self, cycle: int) -> None:
        """Append this cycle's fetch group to the decode buffer.

        The group holds up to ``fetch_width`` instructions and no more
        than the buffer has room for; it is empty while fetch stalls.  A
        full buffer ends the cycle before any stall is counted.  Running
        past the end of a fixed-length trace raises
        :class:`~repro.errors.ScenarioError` when the next record is
        needed, before its I-cache line is checked.
        """
        buffer = self.decode_buffer
        space = self.decode_buffer_size - len(buffer)
        if space <= 0:
            return
        if self._stalling_branch is not None:
            branch = self._stalling_branch
            if branch.complete_cycle < 0 or cycle <= (
                branch.complete_cycle + self.redirect_penalty
            ):
                self.mispredict_stall_cycles += 1
                return
            self._stalling_branch = None
            self._last_line = -1  # redirect refetches the target line
        if cycle < self._icache_stall_until:
            self.icache_stall_cycles += 1
            return

        hierarchy = self.hierarchy
        insts, flags, addrs, lines = self._arrays
        limit = min(space, self.fetch_width)
        idx = self._col_pos
        seq = self._seq
        last_line = self._last_line
        predictor_update = self.predictor.predict_and_update
        n = len(insts)
        append = buffer.append
        fetched = 0
        while fetched < limit:
            if idx >= n:
                # Extend in place, or ScenarioError (fixed length).
                self.columns.require(idx + 1)
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
            append(dyn)
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

    @property
    def stalled(self) -> bool:
        """True while waiting on a mispredicted branch or an I-miss."""
        return self._stalling_branch is not None

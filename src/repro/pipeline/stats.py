"""Simulation statistics and results.

:class:`SimStats` accumulates raw counters during the measurement window;
:meth:`SimStats.finalize` turns them into an immutable :class:`SimResult`
with the derived metrics the paper reports: IPC (and speed-up over a base
result), communications per dynamic instruction split into critical and
non-critical (Figures 5/8), the workload-balance distribution (Figures
6/9/12), and register replication (Figure 15).
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence, Tuple


#: Workload-balance histogram range: differences are clamped to ±10, as in
#: the paper's Figures 6, 9 and 12.
BALANCE_RANGE = 10
BALANCE_BINS = 2 * BALANCE_RANGE + 1


class SimStats:
    """Mutable counters filled by the processor during simulation."""

    def __init__(self) -> None:
        self.cycles = 0
        self.committed = 0
        self.committed_by_class: Dict[str, int] = {}
        self.copies_created = 0
        self.copies_issued = 0
        self.critical_copies = 0
        self.steered = [0, 0]
        self.balance_hist = [0] * BALANCE_BINS
        self.replication_sum = 0
        self.rob_occupancy_sum = 0
        self.iq_occupancy_sum = [0, 0]
        self.stall_rob = 0
        self.stall_regs = 0
        self.stall_iq = 0
        self.slice_remaps = 0
        self.committed_ldst_slice = 0
        self.committed_br_slice = 0
        # Environment snapshots (predictor / caches) for delta computation.
        self._env_start: Dict[str, int] = {}
        self._env_end: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Per-event hooks
    # ------------------------------------------------------------------
    def on_cycle(
        self,
        replicated_regs: int,
        ready_counts: Sequence[int],
        rob_occupancy: int = 0,
        iq_occupancy: Optional[Sequence[int]] = None,
    ) -> None:
        """Record one simulated cycle's balance/replication/occupancy.

        ``ready_counts`` is the per-cluster number of issue candidates
        whose operands were all complete this cycle — maintained by the
        production issue stage's ready lists (or counted by the oracle's
        window scan, :class:`~repro.pipeline.reference.ScanProcessor`),
        never recomputed here.
        """
        self.cycles += 1
        self.replication_sum += replicated_regs
        self.rob_occupancy_sum += rob_occupancy
        if iq_occupancy is not None:
            self.iq_occupancy_sum[0] += iq_occupancy[0]
            self.iq_occupancy_sum[1] += iq_occupancy[1]
        diff = ready_counts[1] - ready_counts[0]
        if diff > BALANCE_RANGE:
            diff = BALANCE_RANGE
        elif diff < -BALANCE_RANGE:
            diff = -BALANCE_RANGE
        self.balance_hist[diff + BALANCE_RANGE] += 1

    def snapshot_environment(self, processor) -> None:
        """Capture predictor/cache counters at measurement start."""
        self._env_start = self._environment(processor)

    @staticmethod
    def _environment(processor) -> Dict[str, int]:
        h = processor.hierarchy
        p = processor.predictor
        return {
            "predictions": p.predictions,
            "mispredictions": p.mispredictions,
            "l1d_hits": h.l1d.hits,
            "l1d_misses": h.l1d.misses,
            "l1i_hits": h.l1i.hits,
            "l1i_misses": h.l1i.misses,
            "l2_hits": h.l2.hits,
            "l2_misses": h.l2.misses,
        }

    # ------------------------------------------------------------------
    def finalize(
        self,
        processor,
        benchmark: str,
        scheme: str,
    ) -> "SimResult":
        """Produce the immutable result for the measurement window."""
        self._env_end = self._environment(processor)
        start = self._env_start or {k: 0 for k in self._env_end}
        delta = {k: self._env_end[k] - start.get(k, 0) for k in self._env_end}

        def rate(misses: str, hits: str) -> float:
            total = delta[misses] + delta[hits]
            return delta[misses] / total if total else 0.0

        predictions = delta["predictions"]
        accuracy = (
            1.0 - delta["mispredictions"] / predictions if predictions else 1.0
        )
        cycles = max(1, self.cycles)
        committed = self.committed
        hist_total = sum(self.balance_hist) or 1
        return SimResult(
            benchmark=benchmark,
            scheme=scheme,
            config_name=processor.config.name,
            cycles=self.cycles,
            instructions=committed,
            ipc=committed / cycles,
            copies_created=self.copies_created,
            copies_issued=self.copies_issued,
            critical_copies=self.critical_copies,
            comms_per_instr=(
                self.copies_issued / committed if committed else 0.0
            ),
            critical_comms_per_instr=(
                self.critical_copies / committed if committed else 0.0
            ),
            balance_distribution=tuple(
                count / hist_total for count in self.balance_hist
            ),
            avg_replication=self.replication_sum / cycles,
            avg_rob_occupancy=self.rob_occupancy_sum / cycles,
            avg_iq_occupancy=(
                self.iq_occupancy_sum[0] / cycles,
                self.iq_occupancy_sum[1] / cycles,
            ),
            branch_accuracy=accuracy,
            l1d_miss_rate=rate("l1d_misses", "l1d_hits"),
            l1i_miss_rate=rate("l1i_misses", "l1i_hits"),
            l2_miss_rate=rate("l2_misses", "l2_hits"),
            steered=tuple(self.steered),
            committed_by_class=dict(self.committed_by_class),
            stalls={
                "rob": self.stall_rob,
                "regs": self.stall_regs,
                "iq": self.stall_iq,
            },
            slice_remaps=self.slice_remaps,
            slice_fraction_ldst=(
                self.committed_ldst_slice / committed if committed else 0.0
            ),
            slice_fraction_br=(
                self.committed_br_slice / committed if committed else 0.0
            ),
        )


@dataclass(frozen=True)
class SimResult:
    """Immutable metrics of one simulation run."""

    benchmark: str
    scheme: str
    config_name: str
    cycles: int
    instructions: int
    ipc: float
    copies_created: int
    copies_issued: int
    critical_copies: int
    comms_per_instr: float
    critical_comms_per_instr: float
    balance_distribution: Tuple[float, ...]
    avg_replication: float
    avg_rob_occupancy: float
    avg_iq_occupancy: Tuple[float, float]
    branch_accuracy: float
    l1d_miss_rate: float
    l1i_miss_rate: float
    l2_miss_rate: float
    steered: Tuple[int, int]
    committed_by_class: Dict[str, int]
    stalls: Dict[str, int]
    slice_remaps: int = 0
    slice_fraction_ldst: float = 0.0
    slice_fraction_br: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form: a result store's ``result`` record and a
        worker reply's ``result`` item.

        A shallow copy in field order: the tuples are immutable and
        shared, the two dicts are fresh copies.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["committed_by_class"] = dict(self.committed_by_class)
        data["stalls"] = dict(self.stalls)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimResult":
        """Inverse of :meth:`to_dict`, coercing each field to its declared
        type.

        JSON turns tuples into lists, a CSV cell is text (a container as
        JSON text), and ``==`` would hide an int read back as ``5.0``;
        every field comes back as the type the simulator wrote.  Omitted
        fields with a default take it.
        """
        coerce = _coercers()
        return cls(**{
            name: coerce[name](value) if name in coerce else value
            for name, value in data.items()
        })

    def speedup_over(self, base: "SimResult") -> float:
        """Fractional IPC improvement over *base* (0.36 == +36%)."""
        if base.ipc <= 0:
            raise ValueError("base result has non-positive IPC")
        return self.ipc / base.ipc - 1.0

    @property
    def noncritical_comms_per_instr(self) -> float:
        """Communications per instruction that delayed no consumer."""
        return self.comms_per_instr - self.critical_comms_per_instr

    def balance_at(self, diff: int) -> float:
        """Fraction of cycles with ``ready_fp - ready_int == diff``.

        *diff* is clamped to ±10 like the figure's x-axis.
        """
        if diff > BALANCE_RANGE:
            diff = BALANCE_RANGE
        elif diff < -BALANCE_RANGE:
            diff = -BALANCE_RANGE
        return self.balance_distribution[diff + BALANCE_RANGE]

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.benchmark:>9s} {self.scheme:<22s} ipc={self.ipc:5.2f} "
            f"comm/instr={self.comms_per_instr:6.3f} "
            f"(crit {self.critical_comms_per_instr:6.3f}) "
            f"repl={self.avg_replication:4.1f}"
        )


#: :class:`SimResult`'s field names, in declaration order.
_FIELD_NAMES = tuple(f.name for f in fields(SimResult))


def _coercer(hint):
    """A function turning decoded JSON/CSV data into a *hint* value."""
    origin = typing.get_origin(hint)
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return lambda value: tuple(item(v) for v in _container(value))
    if origin is dict:
        key, item = typing.get_args(hint)
        return lambda value: {
            key(k): item(v) for k, v in _container(value).items()
        }
    return hint


def _container(value):
    """A container field's value; CSV cells hold it as JSON text."""
    return json.loads(value) if isinstance(value, str) else value


@functools.lru_cache(maxsize=None)
def _coercers():
    """Field name -> coercion to its declared type, built on first use:
    resolving the annotations costs every importing process 0.5 ms."""
    return {
        name: _coercer(hint)
        for name, hint in typing.get_type_hints(SimResult).items()
    }

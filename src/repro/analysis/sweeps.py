"""Generic parameter sweeps over the simulator.

A :class:`Sweep` varies one machine parameter — any dotted override
path (``clusters.0.iq_size``, ``l1d.size_kb``) or flat parameter name —
across a list of values and reports the speed-up of a steering scheme
over the base machine at each point.  This is the machinery behind the
ablation benches and the ``repro-sim sweep`` command; it is exposed in
the public API so studies beyond the paper's figures are one-liners:

>>> from repro.analysis.sweeps import Sweep
>>> sweep = Sweep("bypass_ports", [1, 2, 3], bench="gcc",
...               n_instructions=2000, warmup=500)
>>> points = sweep.run()
>>> sorted(points) == [1, 2, 3]
True

Sweeps execute through the campaign engine: all points of a sweep
target one benchmark and seed, so they form a single shared-trace
group — the workload trace is generated once and replayed at every
sweep point, and execution is always serial (parallelism only pays
across distinct (bench, seed) traces; use :class:`Campaign` directly
for multi-benchmark grids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..pipeline import simulate_baseline
from .campaign import Campaign, expand_grid


@dataclass
class Sweep:
    """One-dimensional machine-parameter sweep.

    Parameters
    ----------
    param:
        A dotted override path (``clusters.0.iq_size``, ``l1d.size_kb``,
        ``bypass_latency``), a :class:`ProcessorConfig` field name, or
        one of the symmetric per-cluster fields (``iq_size``,
        ``issue_width``, ``n_simple_alu``, ``phys_regs``).
    values:
        The points to evaluate.
    bench / scheme / machine:
        What to simulate at each point; *machine* is any registered
        machine name (see :mod:`repro.spec.machines`).
    """

    param: str
    values: Sequence
    bench: str = "gcc"
    scheme: str = "general-balance"
    machine: str = "clustered"
    n_instructions: int = 8000
    warmup: int = 3000
    seed: int = 0
    _base_ipc: Optional[float] = field(default=None, repr=False)

    def base_ipc(self) -> float:
        """IPC of the conventional machine (shared across points)."""
        if self._base_ipc is None:
            self._base_ipc = simulate_baseline(
                self.bench,
                n_instructions=self.n_instructions,
                warmup=self.warmup,
                seed=self.seed,
            ).ipc
        return self._base_ipc

    def campaign_points(self) -> list:
        """The sweep expressed as campaign points, one per value.

        :func:`expand_grid` validates every value against the machine,
        so an unknown parameter raises ConfigError here, not from inside
        a worker process.
        """
        return expand_grid(
            [self.bench],
            [self.scheme],
            machines=(self.machine,),
            overrides=[((self.param, value),) for value in self.values],
            seeds=(self.seed,),
            n_instructions=self.n_instructions,
            warmup=self.warmup,
        )

    def run(self) -> Dict[object, float]:
        """Speed-up over the base machine at every sweep point."""
        base = self.base_ipc()
        results = Campaign(self.campaign_points()).run()
        return {
            value: run.result.ipc / base - 1.0
            for value, run in zip(self.values, results)
        }

    def format(self, points: Optional[Dict[object, float]] = None) -> str:
        """ASCII rendering of the sweep."""
        points = points if points is not None else self.run()
        lines = [
            f"sweep of {self.param} ({self.bench}, {self.scheme})",
            "-" * 48,
        ]
        peak = max(abs(s) for s in points.values()) or 1.0
        for value, speedup in points.items():
            bar = "#" * int(round(abs(speedup) / peak * 30))
            lines.append(f"{value!s:>8s}  {speedup:+7.1%}  {bar}")
        return "\n".join(lines)


def sweep(param: str, values: Sequence, **kwargs) -> Dict[object, float]:
    """Functional shorthand: ``sweep("bypass_ports", [1, 2, 3])``."""
    return Sweep(param, values, **kwargs).run()

"""Experiment harness: one function per table/figure of the paper.

:class:`ExperimentRunner` owns the run parameters (window length, warm-up,
seed) and memoises simulation results, so regenerating all figures costs
one simulation per distinct ``(benchmark, scheme, machine)`` triple — the
figures share their baselines and scheme runs exactly as the paper does.
Simulations execute through the campaign engine (and therefore the
:func:`repro.run` facade), which shares one generated trace per
benchmark across every scheme; set ``workers > 1`` (or
``REPRO_BENCH_JOBS`` for the benchmark harness) to fan benchmark sweeps
out over worker processes.  ``machine`` arguments resolve through the
:mod:`repro.spec.machines` registry, so parametric variants
(``bypass-latency-2``...) plot exactly like the three Table 2 machines.

Every ``figure*`` function returns a plain data structure (dicts keyed by
benchmark) that the report printers and the benchmark harness render; the
aggregate entries use the same mean the paper's figure uses (G-mean for
Figure 3, H-mean elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pipeline import ProcessorConfig, SimResult
from ..workloads import FIGURE3_ORDER, FIGURE_ORDER
from ..spec.facade import execute
from ..spec.specs import RunSpec
from .campaign import Campaign
from .metrics import (
    average_distributions,
    gmean_speedup,
    hmean_speedup,
    mean,
    speedup_map,
)


@dataclass
class ExperimentRunner:
    """Runs and memoises the simulations behind the paper's figures."""

    n_instructions: int = 20000
    warmup: int = 5000
    seed: int = 0
    benchmarks: Tuple[str, ...] = FIGURE_ORDER
    workers: int = 1
    _cache: Dict[Tuple[str, str, str], SimResult] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    def _point(self, bench: str, scheme: str, machine: str) -> RunSpec:
        return RunSpec(
            bench=bench,
            scheme=scheme,
            machine=machine,
            seed=self.seed,
            n_instructions=self.n_instructions,
            warmup=self.warmup,
        )

    def run(
        self, bench: str, scheme: str, machine: str = "clustered"
    ) -> SimResult:
        """Simulate (or fetch from cache) one configuration.

        *machine* is any name the machine registry resolves.
        """
        key = (bench, scheme, machine)
        result = self._cache.get(key)
        if result is None:
            result = execute(self._point(bench, scheme, machine))
            self._cache[key] = result
        return result

    def base(self, bench: str) -> SimResult:
        """The conventional-machine run speed-ups are measured against."""
        return self.run(bench, "naive", "baseline")

    def sweep(
        self,
        scheme: str,
        machine: str = "clustered",
        benchmarks: Optional[Tuple[str, ...]] = None,
    ) -> Dict[str, SimResult]:
        """Run one scheme over a benchmark list (one campaign batch).

        Uncached benchmarks are executed together through the campaign
        engine, so with ``workers > 1`` a figure's benchmark sweep runs
        in parallel while still sharing one trace per benchmark.
        """
        benches = benchmarks or self.benchmarks
        missing = [b for b in benches if (b, scheme, machine) not in self._cache]
        if missing:
            points = [self._point(b, scheme, machine) for b in missing]
            for run in Campaign(points, workers=self.workers).run():
                self._cache[(run.point.bench, scheme, machine)] = run.result
        return {b: self._cache[(b, scheme, machine)] for b in benches}

    def base_sweep(
        self, benchmarks: Optional[Tuple[str, ...]] = None
    ) -> Dict[str, SimResult]:
        """Baseline runs for a benchmark list."""
        benches = benchmarks or self.benchmarks
        return {b: self.base(b) for b in benches}

    def speedups(
        self,
        scheme: str,
        machine: str = "clustered",
        benchmarks: Optional[Tuple[str, ...]] = None,
    ) -> Dict[str, float]:
        """Per-benchmark speed-ups of *scheme* over the base machine."""
        benches = benchmarks or self.benchmarks
        return speedup_map(
            self.sweep(scheme, machine, benches), self.base_sweep(benches)
        )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_workloads() -> List[Dict[str, str]]:
    """Table 1: the benchmark catalogue (names and reference inputs)."""
    from ..workloads import SPECINT95

    return [
        {
            "benchmark": name,
            "input": SPECINT95[name].input_name,
            "description": SPECINT95[name].description,
        }
        for name in FIGURE_ORDER
    ]


def table2_parameters() -> Dict[str, str]:
    """Table 2: the machine parameters actually configured."""
    config = ProcessorConfig.default()
    c0, c1 = config.clusters
    return {
        "fetch width": f"{config.fetch_width} instructions",
        "decode/rename width": f"{config.decode_width} instructions",
        "retire width": f"{config.retire_width} instructions",
        "max in-flight": str(config.max_in_flight),
        "instruction queues": f"{c0.iq_size} + {c1.iq_size}",
        "issue width": f"{c0.issue_width} + {c1.issue_width}",
        "cluster 0 FUs": f"{c0.n_simple_alu} intALU + 1 int mul/div",
        "cluster 1 FUs": (
            f"{c1.n_simple_alu} intALU + {c1.n_fp_alu} fpALU + 1 fp mul/div"
        ),
        "physical registers": f"{c0.phys_regs} + {c1.phys_regs}",
        "communications": (
            f"{config.bypass_ports}/cycle each way, "
            f"{config.bypass_latency}-cycle latency"
        ),
        "L1 I-cache": (
            f"{config.l1i.size_kb}KB {config.l1i.assoc}-way "
            f"{config.l1i.line_bytes}B lines"
        ),
        "L1 D-cache": (
            f"{config.l1d.size_kb}KB {config.l1d.assoc}-way "
            f"{config.l1d.line_bytes}B lines, {config.dcache_ports} ports"
        ),
        "L2 cache": (
            f"{config.l2.size_kb}KB {config.l2.assoc}-way "
            f"{config.l2.line_bytes}B lines"
        ),
    }


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def figure3_static_vs_dynamic(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 3: static partitioning vs dynamic LdSt slice steering."""
    benches = FIGURE3_ORDER
    static = runner.speedups("static-ldst", benchmarks=benches)
    dynamic = runner.speedups("ldst-slice", benchmarks=benches)
    return {
        "benchmarks": list(benches),
        "static": static,
        "dynamic": dynamic,
        "static_gmean": gmean_speedup(list(static.values())),
        "dynamic_gmean": gmean_speedup(list(dynamic.values())),
    }


def figure4_slice_steering(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 4: LdSt slice vs Br slice steering speed-ups."""
    ldst = runner.speedups("ldst-slice")
    br = runner.speedups("br-slice")
    return {
        "benchmarks": list(runner.benchmarks),
        "ldst": ldst,
        "br": br,
        "ldst_hmean": hmean_speedup(list(ldst.values())),
        "br_hmean": hmean_speedup(list(br.values())),
    }


def figure5_slice_comms(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 5: communications per instruction, critical split."""
    out: Dict[str, object] = {"benchmarks": list(runner.benchmarks)}
    for scheme, key in (("ldst-slice", "ldst"), ("br-slice", "br")):
        results = runner.sweep(scheme)
        out[key] = {
            b: {
                "critical": r.critical_comms_per_instr,
                "noncritical": r.noncritical_comms_per_instr,
                "total": r.comms_per_instr,
            }
            for b, r in results.items()
        }
        out[f"{key}_mean_total"] = mean(
            [r.comms_per_instr for r in results.values()]
        )
        out[f"{key}_mean_critical"] = mean(
            [r.critical_comms_per_instr for r in results.values()]
        )
    return out


def _average_balance(results: Dict[str, SimResult]) -> tuple:
    return average_distributions(
        [r.balance_distribution for r in results.values()]
    )


def figure6_slice_balance_hist(runner: ExperimentRunner) -> Dict[str, tuple]:
    """Figure 6: ready-count-difference distribution for slice steering."""
    return {
        "ldst": _average_balance(runner.sweep("ldst-slice")),
        "br": _average_balance(runner.sweep("br-slice")),
    }


def figure7_nonslice_balance(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 7: non-slice balance steering vs plain slice steering."""
    data = {
        "benchmarks": list(runner.benchmarks),
        "ldst-slice": runner.speedups("ldst-slice"),
        "br-slice": runner.speedups("br-slice"),
        "ldst-nonslice": runner.speedups("ldst-nonslice-balance"),
        "br-nonslice": runner.speedups("br-nonslice-balance"),
    }
    for key in (
        "ldst-slice",
        "br-slice",
        "ldst-nonslice",
        "br-nonslice",
    ):
        data[f"{key}_hmean"] = hmean_speedup(list(data[key].values()))
    return data


def figure8_nonslice_comms(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 8: average communications for the four slice schemes."""
    out: Dict[str, object] = {}
    for scheme, key in (
        ("ldst-slice", "ldst-slice"),
        ("br-slice", "br-slice"),
        ("ldst-nonslice-balance", "ldst-nonslice"),
        ("br-nonslice-balance", "br-nonslice"),
    ):
        results = runner.sweep(scheme)
        out[key] = {
            "critical": mean(
                [r.critical_comms_per_instr for r in results.values()]
            ),
            "noncritical": mean(
                [r.noncritical_comms_per_instr for r in results.values()]
            ),
            "total": mean([r.comms_per_instr for r in results.values()]),
        }
    return out


def figure9_nonslice_hist(runner: ExperimentRunner) -> Dict[str, tuple]:
    """Figure 9: balance distribution for non-slice balance steering."""
    return {
        "ldst": _average_balance(runner.sweep("ldst-nonslice-balance")),
        "br": _average_balance(runner.sweep("br-nonslice-balance")),
    }


def figure11_slice_balance(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 11: slice balance steering speed-ups."""
    ldst = runner.speedups("ldst-slice-balance")
    br = runner.speedups("br-slice-balance")
    return {
        "benchmarks": list(runner.benchmarks),
        "ldst": ldst,
        "br": br,
        "ldst_hmean": hmean_speedup(list(ldst.values())),
        "br_hmean": hmean_speedup(list(br.values())),
        "ldst_mean_comms": mean(
            [r.comms_per_instr for r in runner.sweep("ldst-slice-balance").values()]
        ),
        "br_mean_comms": mean(
            [r.comms_per_instr for r in runner.sweep("br-slice-balance").values()]
        ),
    }


def figure12_balance_hist(runner: ExperimentRunner) -> Dict[str, tuple]:
    """Figure 12: modulo vs slice balance steering distributions."""
    return {
        "modulo": _average_balance(runner.sweep("modulo")),
        "ldst": _average_balance(runner.sweep("ldst-slice-balance")),
        "br": _average_balance(runner.sweep("br-slice-balance")),
    }


def figure13_priority(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 13: priority slice balance steering speed-ups."""
    ldst = runner.speedups("ldst-priority")
    br = runner.speedups("br-priority")
    ldst_res = runner.sweep("ldst-priority")
    br_res = runner.sweep("br-priority")
    plain_ldst = runner.sweep("ldst-slice-balance")
    plain_br = runner.sweep("br-slice-balance")
    return {
        "benchmarks": list(runner.benchmarks),
        "ldst": ldst,
        "br": br,
        "ldst_hmean": hmean_speedup(list(ldst.values())),
        "br_hmean": hmean_speedup(list(br.values())),
        # §3.7 claims the gain comes from fewer *critical* communications.
        "ldst_critical": mean(
            [r.critical_comms_per_instr for r in ldst_res.values()]
        ),
        "br_critical": mean(
            [r.critical_comms_per_instr for r in br_res.values()]
        ),
        "ldst_critical_plain": mean(
            [r.critical_comms_per_instr for r in plain_ldst.values()]
        ),
        "br_critical_plain": mean(
            [r.critical_comms_per_instr for r in plain_br.values()]
        ),
    }


def figure14_general_balance(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 14: modulo vs general balance vs the 16-way upper bound."""
    modulo = runner.speedups("modulo")
    general = runner.speedups("general-balance")
    upper = runner.speedups("naive", machine="upper-bound")
    return {
        "benchmarks": list(runner.benchmarks),
        "modulo": modulo,
        "general": general,
        "upper_bound": upper,
        "modulo_hmean": hmean_speedup(list(modulo.values())),
        "general_hmean": hmean_speedup(list(general.values())),
        "upper_bound_hmean": hmean_speedup(list(upper.values())),
    }


def figure15_replication(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 15: logical registers replicated in both clusters."""
    results = runner.sweep("general-balance")
    replication = {b: r.avg_replication for b, r in results.items()}
    return {
        "benchmarks": list(runner.benchmarks),
        "replication": replication,
        "hmean": mean(list(replication.values())),
    }


def figure16_fifo(runner: ExperimentRunner) -> Dict[str, object]:
    """Figure 16: FIFO-based steering vs general balance steering."""
    fifo = runner.speedups("fifo")
    general = runner.speedups("general-balance")
    fifo_res = runner.sweep("fifo")
    gen_res = runner.sweep("general-balance")
    return {
        "benchmarks": list(runner.benchmarks),
        "fifo": fifo,
        "general": general,
        "fifo_hmean": hmean_speedup(list(fifo.values())),
        "general_hmean": hmean_speedup(list(general.values())),
        # §3.9: 0.162 vs 0.042 communications per instruction.
        "fifo_comms": mean([r.comms_per_instr for r in fifo_res.values()]),
        "general_comms": mean(
            [r.comms_per_instr for r in gen_res.values()]
        ),
    }


#: All figure functions, keyed the way the CLI exposes them.
FIGURES = {
    "fig3": figure3_static_vs_dynamic,
    "fig4": figure4_slice_steering,
    "fig5": figure5_slice_comms,
    "fig6": figure6_slice_balance_hist,
    "fig7": figure7_nonslice_balance,
    "fig8": figure8_nonslice_comms,
    "fig9": figure9_nonslice_hist,
    "fig11": figure11_slice_balance,
    "fig12": figure12_balance_hist,
    "fig13": figure13_priority,
    "fig14": figure14_general_balance,
    "fig15": figure15_replication,
    "fig16": figure16_fifo,
}

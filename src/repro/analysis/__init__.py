"""Analysis harness: metrics, experiments, campaigns, report printers.

A campaign point is a :class:`~repro.spec.RunSpec`: :func:`expand_grid`,
:class:`Sweep` and :class:`ExperimentRunner` build run specs, and
:class:`CampaignResults` pairs each with its
:class:`~repro.pipeline.SimResult`.
"""

from .campaign import (
    AggregateResult,
    Campaign,
    CampaignError,
    CampaignResults,
    CampaignRun,
    IncrementalRun,
    apply_override,
    expand_grid,
    run_campaign,
)
from .experiments import (
    FIGURES,
    ExperimentRunner,
    table1_workloads,
    table2_parameters,
)
from .metrics import (
    average_distributions,
    geometric_mean,
    gmean_speedup,
    harmonic_mean,
    hmean_speedup,
    mean,
    percent,
    speedup_map,
)
from .sweeps import Sweep, sweep
from .report import (
    format_balance_histogram,
    format_comm_table,
    format_kv_table,
    format_speedup_table,
    format_value_table,
    render_figure,
)

__all__ = [
    "AggregateResult",
    "Campaign",
    "CampaignError",
    "CampaignResults",
    "CampaignRun",
    "IncrementalRun",
    "apply_override",
    "expand_grid",
    "run_campaign",
    "Sweep",
    "sweep",
    "FIGURES",
    "ExperimentRunner",
    "table1_workloads",
    "table2_parameters",
    "average_distributions",
    "geometric_mean",
    "gmean_speedup",
    "harmonic_mean",
    "hmean_speedup",
    "mean",
    "percent",
    "speedup_map",
    "format_balance_histogram",
    "format_comm_table",
    "format_kv_table",
    "format_speedup_table",
    "format_value_table",
    "render_figure",
]

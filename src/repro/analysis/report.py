"""Plain-text rendering of the experiment results.

The printers reproduce the *rows/series* of the paper's figures as ASCII
tables and bar charts, suitable for terminal output from the CLI, the
examples, and the benchmark harness.  :func:`render_figure` renders any
paper figure from its figure function's data; the ``figure`` command and
the figure benchmarks print through it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from ..pipeline.stats import BALANCE_RANGE


def format_speedup_table(
    title: str,
    benchmarks: Sequence[str],
    series: Mapping[str, Mapping[str, float]],
    means: Mapping[str, float],
    mean_label: str = "H-mean",
) -> str:
    """Render per-benchmark speed-up columns plus the aggregate row.

    *series* maps a column label to ``{benchmark: fractional speedup}``;
    *means* maps the same labels to their aggregate.
    """
    labels = list(series)
    width = max(12, *(len(label) for label in labels)) + 2
    lines = [title, "-" * len(title)]
    header = f"{'benchmark':>10s}" + "".join(
        f"{label:>{width}s}" for label in labels
    )
    lines.append(header)
    for bench in benchmarks:
        row = f"{bench:>10s}"
        for label in labels:
            row += f"{series[label][bench]:>+{width}.1%}"
        lines.append(row)
    row = f"{mean_label:>10s}"
    for label in labels:
        row += f"{means[label]:>+{width}.1%}"
    lines.append(row)
    return "\n".join(lines)


def format_comm_table(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
) -> str:
    """Render communications-per-instruction rows (critical split)."""
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'scheme':>22s}{'critical':>12s}{'non-crit':>12s}{'total':>12s}"
    )
    for label, row in rows.items():
        lines.append(
            f"{label:>22s}{row['critical']:>12.3f}"
            f"{row['noncritical']:>12.3f}{row['total']:>12.3f}"
        )
    return "\n".join(lines)


def format_balance_histogram(
    title: str,
    distributions: Mapping[str, Tuple[float, ...]],
    max_width: int = 40,
) -> str:
    """Render the ready-count-difference distributions as ASCII bars.

    The x-axis is ``#ready FP - #ready INT`` clamped to ±10 like the
    paper's Figures 6/9/12; each series gets its own column of bars.
    """
    labels = list(distributions)
    lines = [title, "-" * len(title)]
    peak = max(
        max(dist) for dist in distributions.values()
    ) or 1.0
    header = f"{'diff':>5s}" + "".join(f"  {label:<{max_width}s}" for label in labels)
    lines.append(header.rstrip())
    for i in range(2 * BALANCE_RANGE + 1):
        diff = i - BALANCE_RANGE
        row = f"{diff:>+5d}"
        for label in labels:
            frac = distributions[label][i]
            bar = "#" * int(round(frac / peak * max_width))
            row += f"  {bar:<{max_width}s}"
        lines.append(row.rstrip())
    return "\n".join(lines)


def format_value_table(
    title: str,
    benchmarks: Sequence[str],
    values: Mapping[str, float],
    unit: str,
    mean_value: float,
    mean_label: str = "mean",
) -> str:
    """Render one scalar per benchmark (e.g. Figure 15's replication)."""
    lines = [title, "-" * len(title)]
    for bench in benchmarks:
        lines.append(f"{bench:>10s}  {values[bench]:6.2f} {unit}")
    lines.append(f"{mean_label:>10s}  {mean_value:6.2f} {unit}")
    return "\n".join(lines)


def format_kv_table(title: str, mapping: Mapping[str, str]) -> str:
    """Render a two-column parameter table (Table 2)."""
    lines = [title, "-" * len(title)]
    width = max(len(k) for k in mapping)
    for key, value in mapping.items():
        lines.append(f"{key:<{width}s}  {value}")
    return "\n".join(lines)


# Speed-up figures: title and {column label: data key}; each key has a
# ``<key>_hmean`` aggregate (``_gmean`` for Figure 3, as in the paper).
_SPEEDUP_FIGURES = {
    "fig3": ("Figure 3: static vs dynamic partitioning",
             {"static (Sastry)": "static", "LdSt slice": "dynamic"}),
    "fig4": ("Figure 4: LdSt slice vs Br slice steering",
             {"LdSt slice": "ldst", "Br slice": "br"}),
    "fig7": ("Figure 7: non-slice balance vs slice steering",
             {"LdSt slice": "ldst-slice", "Br slice": "br-slice",
              "LdSt non-slice": "ldst-nonslice",
              "Br non-slice": "br-nonslice"}),
    "fig11": ("Figure 11: slice balance steering",
              {"LdSt slice bal": "ldst", "Br slice bal": "br"}),
    "fig13": ("Figure 13: priority slice balance steering",
              {"LdSt p.slice": "ldst", "Br p.slice": "br"}),
    "fig14": ("Figure 14: general balance steering",
              {"Modulo": "modulo", "General bal": "general",
               "UB arch": "upper_bound"}),
    "fig16": ("Figure 16: general balance vs FIFO-based steering",
              {"FIFO-based": "fifo", "General bal": "general"}),
}

# Balance histograms: title, {series label: data key}, bar width.
_HISTOGRAM_FIGURES = {
    "fig6": ("Figure 6: #ready FP - #ready INT (SpecInt95 average)",
             {"LdSt slice": "ldst", "Br slice": "br"}, 30),
    "fig9": ("Figure 9: #ready FP - #ready INT, non-slice balance",
             {"LdSt non-slice": "ldst", "Br non-slice": "br"}, 30),
    "fig12": ("Figure 12: #ready FP - #ready INT",
              {"Modulo": "modulo", "LdSt slice bal": "ldst",
               "Br slice bal": "br"}, 24),
}

# One summary line under the table.
_FOOTERS = {
    "fig11": lambda d: (
        f"mean comms/instr: LdSt {d['ldst_mean_comms']:.3f}, "
        f"Br {d['br_mean_comms']:.3f}"
    ),
    "fig13": lambda d: (
        "critical comms/instr (plain -> priority): "
        f"LdSt {d['ldst_critical_plain']:.3f} -> {d['ldst_critical']:.3f}, "
        f"Br {d['br_critical_plain']:.3f} -> {d['br_critical']:.3f}"
    ),
    "fig16": lambda d: (
        f"comms/instr: FIFO {d['fifo_comms']:.3f} vs "
        f"general {d['general_comms']:.3f}"
    ),
}


def _format_fig5(data: Mapping) -> str:
    title = "Figure 5: communications per dynamic instruction"
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'benchmark':>10s}{'LdSt crit':>11s}{'LdSt tot':>10s}"
        f"{'Br crit':>10s}{'Br tot':>9s}"
    )
    for bench in data["benchmarks"]:
        ldst, br = data["ldst"][bench], data["br"][bench]
        lines.append(
            f"{bench:>10s}{ldst['critical']:>11.3f}{ldst['total']:>10.3f}"
            f"{br['critical']:>10.3f}{br['total']:>9.3f}"
        )
    lines.append(
        f"{'mean':>10s}{data['ldst_mean_critical']:>11.3f}"
        f"{data['ldst_mean_total']:>10.3f}"
        f"{data['br_mean_critical']:>10.3f}{data['br_mean_total']:>9.3f}"
    )
    return "\n".join(lines)


def render_figure(name: str, data: Mapping) -> str:
    """Render figure *name* (a key of :data:`~repro.analysis.FIGURES`)
    from the data its figure function returned."""
    if name in _SPEEDUP_FIGURES:
        title, columns = _SPEEDUP_FIGURES[name]
        mean = "gmean" if name == "fig3" else "hmean"
        text = format_speedup_table(
            title,
            data["benchmarks"],
            {label: data[key] for label, key in columns.items()},
            {label: data[f"{key}_{mean}"] for label, key in columns.items()},
            mean_label="G-mean" if name == "fig3" else "H-mean",
        )
    elif name in _HISTOGRAM_FIGURES:
        title, series, width = _HISTOGRAM_FIGURES[name]
        text = format_balance_histogram(
            title,
            {label: data[key] for label, key in series.items()},
            max_width=width,
        )
    elif name == "fig5":
        text = _format_fig5(data)
    elif name == "fig8":
        text = format_comm_table(
            "Figure 8: comms per instruction (SpecInt95 average)", data
        )
    elif name == "fig15":
        text = format_value_table(
            "Figure 15: registers replicated in both clusters",
            data["benchmarks"],
            data["replication"],
            "regs/cycle",
            data["hmean"],
        )
    else:
        raise ValueError(f"unknown figure {name!r}")
    footer = _FOOTERS.get(name)
    return text if footer is None else f"{text}\n{footer(data)}"

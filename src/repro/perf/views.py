"""Text renderings of profile comparisons and ledger history.

One renderer serves both CLI surfaces: ``perf diff`` (any two recorded
profiles side by side with per-label verdicts) and ``perf check`` (the
same view of a paired A/B's two profile files, whose gate summary CI
tails into its log and uploads as an artifact).  ``perf log --label`` adds
per-label sparklines over the ledger's history, so a throughput
trajectory across commits is readable at a glance.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import PerfError
from .detect import MIN_EFFECT, Comparison, LabelDelta, VERDICTS
from .ledger import Ledger

#: Eight-level bar glyphs for sparklines, lowest to highest.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Placeholder for ledger entries that never recorded the label.
SPARK_GAP = "·"


def _value(mean, n) -> str:
    if mean is None:
        return "-"
    if abs(mean) >= 1000:
        text = f"{mean:,.0f}"
    else:
        text = f"{mean:.3f}"
    return f"{text} (n={n})"


def _evidence(delta: LabelDelta) -> str:
    parts = []
    if delta.method not in ("none",):
        parts.append(delta.method)
    if delta.p_value is not None:
        parts.append(f"p={delta.p_value:.3f}")
    parts.append(delta.gate)
    return " ".join(parts)


def _verdict(delta: LabelDelta) -> str:
    text = delta.verdict
    if delta.fails:
        text = text.upper() + " *"
    return text


def render_comparison(comparison: Comparison, title: str = "") -> str:
    """The side-by-side per-label table plus a verdict summary."""
    lines: List[str] = []
    base, cand = comparison.baseline, comparison.candidate
    header = title or (
        f"{base.suite}: {base.provenance.describe()} -> "
        f"{cand.provenance.describe()}"
    )
    lines.append(header)
    width = max(
        [len(delta.label) for delta in comparison.deltas] + [5]
    )
    lines.append(
        f"  {'label':<{width}}  {'baseline':>18}  {'candidate':>18}  "
        f"{'delta':>8}  verdict"
    )
    for delta in comparison.deltas:
        effect = (
            f"{delta.effect:+.1%}" if delta.effect is not None else "-"
        )
        lines.append(
            f"  {delta.label:<{width}}  "
            f"{_value(delta.base_mean, delta.base_n):>18}  "
            f"{_value(delta.cand_mean, delta.cand_n):>18}  "
            f"{effect:>8}  {_verdict(delta)}  [{_evidence(delta)}]"
        )
        if delta.note:
            lines.append(f"  {'':<{width}}  note: {delta.note}")
    counts = comparison.counts()
    summary = ", ".join(
        f"{counts[verdict]} {verdict}" for verdict in VERDICTS
        if counts[verdict]
    ) or "no labels"
    lines.append(f"summary: {summary}")
    if any(delta.gate == "absolute" for delta in comparison.deltas):
        lines.append(f"absolute labels {comparison.absolute_policy}")
    rule = f"alpha={comparison.alpha:g}, min-effect={MIN_EFFECT:.0%}"
    failures = comparison.failures
    if failures:
        lines.append(f"GATE: {len(failures)} label(s) fail ({rule}):")
        for delta in failures:
            lines.append(f"  {delta.label}: {delta.verdict}")
    else:
        lines.append(f"GATE: ok ({rule})")
    return "\n".join(lines)


def sparkline(values: List[Optional[float]]) -> str:
    """Map *values* onto eight-level bars; ``None`` renders as a gap.

    The scale is min..max over the present values, so the line shows the
    *shape* of the trajectory — absolute magnitudes belong in the
    accompanying table.  A flat series renders mid-scale.
    """
    present = [v for v in values if v is not None]
    if not present:
        return SPARK_GAP * len(values)
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for value in values:
        if value is None:
            chars.append(SPARK_GAP)
        elif span <= 0:
            chars.append(SPARK_LEVELS[len(SPARK_LEVELS) // 2])
        else:
            index = int((value - lo) / span * (len(SPARK_LEVELS) - 1))
            chars.append(SPARK_LEVELS[index])
    return "".join(chars)


def render_label_history(
    ledger: Ledger, suite: str, label: str, limit: int = 0
) -> str:
    """Sparkline trajectories of every recorded label matching *label*.

    *label* selects by exact match first, falling back to a
    case-insensitive substring so ``--label dispatch`` covers the whole
    dispatch family.  Entries run oldest -> newest, one sparkline per
    matched label, each annotated with its first/last means and the
    net relative change across the recorded window.
    """
    entries = ledger.entries(suite)
    if limit:
        entries = entries[:limit]
    if not entries:
        return f"{suite}: no recorded profiles in {ledger.root}"
    entries = list(reversed(entries))  # chronological, oldest first

    labels: List[str] = []
    for profile in entries:
        for metric in profile.metrics:
            if metric.label not in labels:
                labels.append(metric.label)
    matched = [name for name in labels if name == label]
    if not matched:
        needle = label.lower()
        matched = [name for name in labels if needle in name.lower()]
    if not matched:
        raise PerfError(
            f"no recorded label matches {label!r} in suite {suite!r} "
            f"(recorded: {', '.join(labels) or 'none'})"
        )

    first, last = entries[0].provenance, entries[-1].provenance
    lines = [
        f"{suite}: {len(entries)} profile(s), "
        f"{first.key} -> {last.key}"
    ]
    width = max(len(name) for name in matched)
    for name in matched:
        means: List[Optional[float]] = []
        unit = ""
        for profile in entries:
            metric = profile.by_label().get(name)
            means.append(metric.mean if metric else None)
            if metric and metric.unit:
                unit = metric.unit
        present = [m for m in means if m is not None]
        start, end = present[0], present[-1]
        if start:
            net = f"{(end - start) / abs(start):+.1%}"
        else:
            net = "-"
        suffix = f" {unit}" if unit else ""
        lines.append(
            f"  {name:<{width}}  {sparkline(means)}  "
            f"{start:.3g} -> {end:.3g}{suffix}  ({net})"
        )
    return "\n".join(lines)


def render_log(ledger: Ledger, suite: str, limit: int = 0) -> str:
    """The ledger's history of *suite*, newest first."""
    entries = ledger.entries(suite)
    if limit:
        entries = entries[:limit]
    if not entries:
        return f"{suite}: no recorded profiles in {ledger.root}"
    lines = [f"{suite}: {len(entries)} recorded profile(s) in {ledger.root}"]
    for profile in entries:
        prov = profile.provenance
        branch = f" {prov.branch}" if prov.branch not in ("", "unknown") else ""
        lines.append(
            f"  {prov.key:<20}  {prov.recorded_at or 'undated':<27} "
            f"{len(profile.metrics):>3} metric(s){branch}"
            f"  py{prov.python or '?'}"
        )
    return "\n".join(lines)

"""Statistical degradation detection between two perf profiles.

A single-ratio gate has two failure modes that raw samples fix: a
noisy benchmark (std up to 15% of mean) can both hide a real regression
inside a 30% allowance and trip the gate on pure noise.
:func:`compare_profiles` instead classifies every label by running a
**two-sample statistical test on the raw per-run samples**, which every
metric carries at least :data:`~repro.perf.model.MIN_SAMPLES` of:

* Mann-Whitney U when both sides carry at least :data:`MIN_MW_SAMPLES`
  — distribution-free, robust to the long right tail wall-clock timings
  have;
* Welch's t-test for fewer.

A label is **degraded** only when the shift is statistically
significant (``p < alpha``) *and* at least :data:`MIN_EFFECT` in
relative size — the minimum-effect floor keeps a 0.5% slowdown measured
with tiny variance from failing CI.  ``perf check`` tests at
:data:`CHECK_ALPHA`; ``perf diff`` reports at :data:`DIFF_ALPHA`, so a
layer measured by 3 traced runs a side, whose Welch's t has about 2
degrees of freedom, can still be named.  Shifts in the good direction
are **improved** and never fail.  Labels only the candidate has are
**new** (reported, never gated); labels only the baseline has are
**vanished** and fail like a degradation — a silently dropped benchmark
point must not read as a pass.

``absolute`` labels (raw host-speed numbers such as instructions per
second) gate only in a *paired* comparison — the caller vouches that
both profiles come from one A/B session of alternating runs — and only
when both profiles name the same host in their provenance.  Such an A/B
cancels the hardware and the host's drift; two ledger entries recorded
at different times on one host do not (between two consecutive
committed entries of the retired ``core`` suite from host ``vm``, one
instr/s label fell 36% while another rose 39%).  Otherwise they are
reported and the report says why.  ``report`` labels never gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import PerfError
from .model import Metric, Profile
from .stats import mann_whitney_u, welch_t

VERDICTS = ("improved", "stable", "degraded", "new", "vanished")

#: The smallest relative shift that can be a verdict other than stable.
MIN_EFFECT = 0.05
#: Samples a side from which Mann-Whitney U replaces Welch's t.
MIN_MW_SAMPLES = 6
#: The significance level of the ``perf check`` gate.
CHECK_ALPHA = 0.05
#: The significance level of the ``perf diff`` report.
DIFF_ALPHA = 0.1


@dataclass
class LabelDelta:
    """One label's verdict comparing candidate against baseline."""

    label: str
    verdict: str
    gate: str
    unit: str = ""
    method: str = "none"
    p_value: Optional[float] = None
    #: Signed relative shift in the *good* direction (+3% = 3% better).
    effect: Optional[float] = None
    base_mean: Optional[float] = None
    cand_mean: Optional[float] = None
    base_n: int = 0
    cand_n: int = 0
    #: Whether this delta fails the gate (filled by compare_profiles).
    fails: bool = False
    note: str = ""


@dataclass
class Comparison:
    """The full candidate-vs-baseline report."""

    baseline: Profile
    candidate: Profile
    deltas: List[LabelDelta] = field(default_factory=list)
    alpha: float = CHECK_ALPHA
    #: Why ``absolute`` labels are (or are not) gated in this comparison.
    absolute_policy: str = ""

    @property
    def failures(self) -> List[LabelDelta]:
        return [d for d in self.deltas if d.fails]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for delta in self.deltas:
            counts[delta.verdict] += 1
        return counts


def compare_metric(base: Metric, cand: Metric, alpha: float) -> LabelDelta:
    """Classify one label present in both profiles."""
    delta = LabelDelta(
        label=cand.label,
        verdict="stable",
        gate=cand.gate,
        unit=cand.unit or base.unit,
        base_mean=base.mean,
        cand_mean=cand.mean,
        base_n=base.n,
        cand_n=cand.n,
    )
    if base.mean <= 0:
        delta.note = "baseline mean is not positive; not comparable"
        return delta
    shift = (cand.mean - base.mean) / base.mean
    goodness = shift if cand.direction == "higher" else -shift
    delta.effect = goodness
    if min(base.n, cand.n) >= MIN_MW_SAMPLES:
        delta.method = "mannwhitney"
        _, p_value = mann_whitney_u(base.samples, cand.samples)
    else:
        delta.method = "welch"
        _, p_value = welch_t(base.samples, cand.samples)
    delta.p_value = p_value
    if p_value < alpha and abs(goodness) >= MIN_EFFECT:
        delta.verdict = "degraded" if goodness < 0 else "improved"
    return delta


def _absolute_policy(baseline: Profile, candidate: Profile, paired: bool):
    """``(gated, reason)`` for the ``absolute`` labels of a comparison."""
    if not paired:
        return False, "not gated: the profiles are not one paired A/B run"
    base_host = baseline.provenance.host
    cand_host = candidate.provenance.host
    if not base_host or not cand_host:
        return False, "not gated: a profile does not name its host"
    if base_host != cand_host:
        return False, (
            f"not gated: recorded on different hosts "
            f"({base_host!r} vs {cand_host!r})"
        )
    return True, (
        f"gated: a paired A/B, both profiles recorded on host {base_host!r}"
    )


def _gate(deltas: List[LabelDelta], policy) -> None:
    """Resolve per-delta ``fails`` flags."""
    gate_absolute, reason = policy
    for delta in deltas:
        if delta.verdict not in ("degraded", "vanished"):
            continue
        if delta.gate == "report":
            continue
        if not gate_absolute:
            delta.note = (delta.note + f" absolute label {reason}").strip()
            continue
        delta.fails = True


def compare_profiles(
    baseline: Profile,
    candidate: Profile,
    alpha: float = CHECK_ALPHA,
    paired: bool = False,
) -> Comparison:
    """Classify every label across two profiles and resolve the gate.

    *paired* says both profiles come from one A/B session, so their
    ``absolute`` labels may gate (see the module docstring).  Profiles
    of two suites are refused.
    """
    if baseline.suite != candidate.suite:
        raise PerfError(
            f"cannot compare across suites: {baseline.suite!r} vs "
            f"{candidate.suite!r}"
        )
    base_metrics = baseline.by_label()
    cand_metrics = candidate.by_label()
    deltas: List[LabelDelta] = []
    for metric in baseline.metrics:
        cand = cand_metrics.get(metric.label)
        if cand is None:
            deltas.append(LabelDelta(
                label=metric.label,
                verdict="vanished",
                gate=metric.gate,
                unit=metric.unit,
                base_mean=metric.mean,
                base_n=metric.n,
                note="label recorded in the baseline is missing from "
                     "the candidate",
            ))
            continue
        deltas.append(compare_metric(metric, cand, alpha))
    for metric in candidate.metrics:
        if metric.label in base_metrics:
            continue
        deltas.append(LabelDelta(
            label=metric.label,
            verdict="new",
            gate=metric.gate,
            unit=metric.unit,
            cand_mean=metric.mean,
            cand_n=metric.n,
            note="no recorded baseline; reported, never gated",
        ))
    policy = _absolute_policy(baseline, candidate, paired)
    _gate(deltas, policy)
    return Comparison(
        baseline=baseline, candidate=candidate, deltas=deltas, alpha=alpha,
        absolute_policy=policy[1],
    )

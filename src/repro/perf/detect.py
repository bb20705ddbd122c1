"""Statistical degradation detection between two perf profiles.

A single-ratio gate has two failure modes that raw samples fix: a
noisy benchmark (std up to 15% of mean) can both hide a real regression
inside a 30% allowance and trip the gate on pure noise.
:func:`compare_profiles` instead classifies every label by running a
**two-sample statistical test on the raw per-run samples**:

* Mann-Whitney U when both sides carry enough repeats for the rank
  approximation (>= ``min_mw_samples`` each) — distribution-free, robust
  to the long right tail wall-clock timings have;
* Welch's t-test for small-but-multiple repeats (>= ``min_stat_samples``);
* a plain ratio check as the fallback when a label has too few samples
  for either (the ledger's early single-value entries land here).

A label is **degraded** only when the shift is statistically
significant (``p < alpha``) *and* at least ``min_effect`` in relative
size — the minimum-effect floor keeps a 0.5% slowdown measured with
tiny variance from failing CI.  Shifts in the good direction are
**improved** and never fail.  Labels only the candidate has are **new**
(reported, never gated); labels only the baseline has are **vanished**
and *fail* gated metrics — a silently dropped benchmark point must not
read as a pass.

``absolute`` labels (raw host-speed numbers such as instructions per
second) gate only in a *paired* comparison — the caller vouches that
both profiles come from one A/B session of alternating runs — and only
when both profiles name the same host in their provenance.  Such an A/B
cancels the hardware and the host's drift; two ledger entries recorded
at different times on one host do not (between two consecutive
committed ``core`` entries from host ``vm``, one instr/s label fell 36%
while another rose 39%).  Otherwise they are reported and the report
says why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigError
from .model import Metric, Profile
from .stats import mann_whitney_u, welch_t

VERDICTS = ("improved", "stable", "degraded", "new", "vanished")


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs for the degradation detector (all validated eagerly)."""

    alpha: float = 0.05
    min_effect: float = 0.05
    max_regression: float = 0.30
    min_stat_samples: int = 3
    min_mw_samples: int = 6
    method: str = "auto"  # auto | mannwhitney | welch | ratio
    ignore_vanished: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(
                f"alpha must be in (0, 1), got {self.alpha!r}"
            )
        if not 0.0 <= self.min_effect < 1.0:
            raise ConfigError(
                f"min_effect must be in [0, 1), got {self.min_effect!r}"
            )
        if not 0.0 < self.max_regression < 1.0:
            raise ConfigError(
                f"max_regression must be in (0, 1), "
                f"got {self.max_regression!r}"
            )
        if self.method not in ("auto", "mannwhitney", "welch", "ratio"):
            raise ConfigError(
                f"method must be auto, mannwhitney, welch or ratio, "
                f"got {self.method!r}"
            )


@dataclass
class LabelDelta:
    """One label's verdict comparing candidate against baseline."""

    label: str
    verdict: str
    unit: str = ""
    gate: str = "gated"
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
    config: DetectorConfig = field(default_factory=DetectorConfig)
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


def _pick_method(config: DetectorConfig, n_base: int, n_cand: int) -> str:
    if config.method != "auto":
        if config.method == "ratio":
            return "ratio"
        if min(n_base, n_cand) < 2:
            return "ratio"  # forced tests still need 2+ samples per side
        return config.method
    smaller = min(n_base, n_cand)
    if smaller >= config.min_mw_samples:
        return "mannwhitney"
    if smaller >= config.min_stat_samples:
        return "welch"
    return "ratio"


def compare_metric(
    base: Metric, cand: Metric, config: DetectorConfig
) -> LabelDelta:
    """Classify one label present in both profiles."""
    delta = LabelDelta(
        label=cand.label,
        verdict="stable",
        unit=cand.unit or base.unit,
        gate=cand.gate,
        base_mean=base.mean,
        cand_mean=cand.mean,
        base_n=base.n,
        cand_n=cand.n,
    )
    if base.mean <= 0:
        delta.method = "none"
        delta.note = "baseline mean is not positive; not comparable"
        return delta
    shift = (cand.mean - base.mean) / base.mean
    goodness = shift if cand.direction == "higher" else -shift
    delta.effect = goodness
    method = _pick_method(config, base.n, cand.n)
    delta.method = method
    if method == "ratio":
        if goodness <= -config.max_regression:
            delta.verdict = "degraded"
        elif goodness >= config.max_regression:
            delta.verdict = "improved"
        return delta
    if method == "mannwhitney":
        _, p_value = mann_whitney_u(base.samples, cand.samples)
    else:
        _, p_value = welch_t(base.samples, cand.samples)
    delta.p_value = p_value
    significant = (
        p_value < config.alpha and abs(goodness) >= config.min_effect
    )
    if significant:
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


def _gate(deltas: List[LabelDelta], config: DetectorConfig, policy) -> None:
    """Resolve per-delta ``fails`` flags."""
    gate_absolute, reason = policy
    for delta in deltas:
        if delta.verdict not in ("degraded", "vanished"):
            continue
        if delta.gate == "report":
            continue
        if delta.gate == "absolute" and not gate_absolute:
            delta.note = (delta.note + f" absolute label {reason}").strip()
            continue
        if delta.verdict == "vanished" and config.ignore_vanished:
            delta.note = (delta.note + " ignored (--ignore-vanished)").strip()
            continue
        delta.fails = True


def compare_profiles(
    baseline: Profile,
    candidate: Profile,
    config: Optional[DetectorConfig] = None,
    paired: bool = False,
) -> Comparison:
    """Classify every label across two profiles and resolve the gate.

    *paired* says both profiles come from one A/B session, so their
    ``absolute`` labels may gate (see the module docstring).
    """
    config = config or DetectorConfig()
    base_metrics = baseline.by_label()
    cand_metrics = candidate.by_label()
    deltas: List[LabelDelta] = []
    for metric in baseline.metrics:
        cand = cand_metrics.get(metric.label)
        if cand is None:
            deltas.append(LabelDelta(
                label=metric.label,
                verdict="vanished",
                unit=metric.unit,
                gate=metric.gate,
                base_mean=metric.mean,
                base_n=metric.n,
                note="label recorded in the baseline is missing from "
                     "the candidate",
            ))
            continue
        deltas.append(compare_metric(metric, cand, config))
    for metric in candidate.metrics:
        if metric.label in base_metrics:
            continue
        deltas.append(LabelDelta(
            label=metric.label,
            verdict="new",
            unit=metric.unit,
            gate=metric.gate,
            cand_mean=metric.mean,
            cand_n=metric.n,
            note="no recorded baseline; reported, never gated",
        ))
    policy = _absolute_policy(baseline, candidate, paired)
    _gate(deltas, config, policy)
    return Comparison(
        baseline=baseline, candidate=candidate, deltas=deltas, config=config,
        absolute_policy=policy[1],
    )

"""The perf-profile model: versioned documents of raw measurement samples.

A :class:`Profile` is one recorded benchmark run of one *suite* (the
``core`` scheduler benchmark or the ``campaign`` backend benchmark): an
ordered set of labelled :class:`Metric` series, each carrying the **raw
per-repeat samples** (not just mean/std — the degradation detector runs
statistical tests on these), its unit, its goodness direction, and how
the CI gate should treat it.  Every profile is stamped with
:class:`~repro.perf.provenance.Provenance` so the ledger can answer
"which commit produced these numbers".

The on-disk format is versioned (``repro-perf-profile/1``).  The
pre-ledger ``BENCH_core.json`` / ``BENCH_campaign.json`` documents are
readable as **legacy v0 profiles** via :func:`profile_from_document`,
which recognises their ``benchmark`` field and converts each measured
point into metrics — using the raw ``seconds`` sample vectors when the
benchmark recorded them, and falling back to the single summary value
for documents written before raw samples were kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..errors import ConfigError, PerfError
from .provenance import Provenance

PROFILE_FORMAT = "repro-perf-profile/1"

#: How the CI gate treats a metric:
#: ``gated``    — a degradation fails the gate (subject to compound
#:               groups, see :mod:`repro.perf.detect`);
#: ``absolute`` — raw-throughput numbers, not comparable across runner
#:               hardware: reported always, gated only under
#:               ``gate_absolute`` (but they still participate in their
#:               compound group's verdict);
#: ``report``   — context only, never gated.
GATES = ("gated", "absolute", "report")

DIRECTIONS = ("higher", "lower")

#: Known suites and the legacy documents they grew out of.
LEGACY_KINDS = {
    "core-scheduler": "core",
    "campaign-backends": "campaign",
}


@dataclass(frozen=True)
class Metric:
    """One labelled measurement series inside a profile."""

    label: str
    samples: Tuple[float, ...]
    unit: str = ""
    direction: str = "higher"
    gate: str = "gated"
    group: Optional[str] = None

    def __post_init__(self):
        if not self.label or not isinstance(self.label, str):
            raise ConfigError(
                f"metric.label must be a non-empty string, got {self.label!r}"
            )
        if self.direction not in DIRECTIONS:
            raise ConfigError(
                f"metric {self.label!r}: direction must be one of "
                f"{DIRECTIONS}, got {self.direction!r}"
            )
        if self.gate not in GATES:
            raise ConfigError(
                f"metric {self.label!r}: gate must be one of {GATES}, "
                f"got {self.gate!r}"
            )
        if not self.samples:
            raise ConfigError(
                f"metric {self.label!r}: samples must be a non-empty "
                f"sequence of numbers"
            )
        cleaned = []
        for sample in self.samples:
            if isinstance(sample, bool) or not isinstance(
                sample, (int, float)
            ):
                raise ConfigError(
                    f"metric {self.label!r}: samples must be numbers, "
                    f"got {sample!r}"
                )
            cleaned.append(float(sample))
        object.__setattr__(self, "samples", tuple(cleaned))

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def n(self) -> int:
        return len(self.samples)

    def to_document(self) -> dict:
        doc = {
            "label": self.label,
            "unit": self.unit,
            "direction": self.direction,
            "gate": self.gate,
            "samples": list(self.samples),
        }
        if self.group is not None:
            doc["group"] = self.group
        return doc

    @classmethod
    def from_document(cls, document) -> "Metric":
        if not isinstance(document, dict):
            raise ConfigError(
                f"metric must be a mapping, got {type(document).__name__}"
            )
        samples = document.get("samples")
        if not isinstance(samples, (list, tuple)):
            raise ConfigError(
                f"metric {document.get('label')!r}: samples must be a "
                f"list, got {samples!r}"
            )
        return cls(
            label=document.get("label", ""),
            samples=tuple(samples),
            unit=document.get("unit", ""),
            direction=document.get("direction", "higher"),
            gate=document.get("gate", "gated"),
            group=document.get("group"),
        )


@dataclass(frozen=True)
class Profile:
    """One recorded benchmark run: labelled sample series + provenance."""

    suite: str
    metrics: Tuple[Metric, ...]
    provenance: Provenance = field(default_factory=Provenance)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.suite or not isinstance(self.suite, str):
            raise ConfigError(
                f"profile.suite must be a non-empty string, got {self.suite!r}"
            )
        seen = set()
        for metric in self.metrics:
            if metric.label in seen:
                raise ConfigError(
                    f"profile.metrics: duplicate label {metric.label!r}"
                )
            seen.add(metric.label)

    def by_label(self) -> Dict[str, Metric]:
        return {m.label: m for m in self.metrics}

    def with_provenance(self, provenance: Provenance) -> "Profile":
        return replace(self, provenance=provenance)

    def describe(self) -> str:
        return (
            f"{self.suite}: {len(self.metrics)} metric(s), "
            f"{self.provenance.describe()}"
        )

    def to_document(self) -> dict:
        return {
            "format": PROFILE_FORMAT,
            "suite": self.suite,
            "provenance": self.provenance.to_document(),
            "meta": dict(self.meta),
            "metrics": [m.to_document() for m in self.metrics],
        }

    @classmethod
    def from_document(cls, document) -> "Profile":
        if not isinstance(document, dict):
            raise PerfError(
                f"profile must be a mapping, got {type(document).__name__}"
            )
        fmt = document.get("format")
        if fmt != PROFILE_FORMAT:
            raise PerfError(
                f"unsupported profile format {fmt!r} "
                f"(this build reads {PROFILE_FORMAT!r})"
            )
        metrics = document.get("metrics")
        if not isinstance(metrics, list):
            raise ConfigError(
                f"profile.metrics must be a list, got {metrics!r}"
            )
        meta = document.get("meta", {})
        if not isinstance(meta, dict):
            raise ConfigError(f"profile.meta must be a mapping, got {meta!r}")
        return cls(
            suite=document.get("suite", ""),
            metrics=tuple(Metric.from_document(m) for m in metrics),
            provenance=Provenance.from_document(
                document.get("provenance", {})
            ),
            meta=meta,
        )


def _seconds_samples(row: dict) -> Optional[Tuple[float, ...]]:
    """The raw per-repeat ``seconds`` vector, when the bench recorded it."""
    seconds = row.get("seconds")
    if (
        isinstance(seconds, (list, tuple))
        and seconds
        and all(isinstance(s, (int, float)) and s > 0 for s in seconds)
    ):
        return tuple(float(s) for s in seconds)
    return None


def _ratio_and_throughput(point, n_instructions):
    """Paired ratio samples + absolute instr/s for one event/scan point.

    Per-repeat ratio samples pair the two schedulers' i-th timed runs
    (both run on the same host, so each pair cancels hardware); the
    event scheduler's absolute instr/sec rides along for same-host
    charts.
    """
    fast, slow = point["event"], point["scan"]
    fast_secs = _seconds_samples(fast)
    slow_secs = _seconds_samples(slow)
    if fast_secs and slow_secs and len(fast_secs) == len(slow_secs):
        ratio_samples = tuple(
            s / f for f, s in zip(fast_secs, slow_secs)
        )
    else:
        ratio_samples = (float(point["speedup_vs_scan"]),)
    if fast_secs and n_instructions:
        ips_samples = tuple(n_instructions / s for s in fast_secs)
    else:
        ips_samples = (float(fast["instr_per_sec"]),)
    return ratio_samples, ips_samples


def _core_profile(document: dict) -> Profile:
    """Convert a ``BENCH_core.json`` document (legacy v0) to a profile.

    Per point (``event``/``scan`` rows, ``speedup_vs_scan``), the A/B
    ratio is the machine-portable gated metric and the event scheduler's
    absolute instr/sec is recorded as an ``absolute`` metric (gated only
    on same-host runs).
    """
    n_instructions = document.get("n_instructions", 0)
    metrics = []
    for point in document.get("points", ()):
        name = f"{point['bench']}/{point['scheme']}/{point['machine']}"
        ratio_samples, ips_samples = _ratio_and_throughput(
            point, n_instructions
        )
        metrics.append(Metric(
            label=f"{name} speedup_vs_scan",
            samples=ratio_samples,
            unit="ratio",
            direction="higher",
            gate="gated",
        ))
        metrics.append(Metric(
            label=f"{name} event instr/s",
            samples=ips_samples,
            unit="instr/s",
            direction="higher",
            gate="absolute",
        ))
    meta = {
        key: document[key]
        for key in ("suite", "n_instructions", "warmup", "recorded", "python")
        if key in document
    }
    meta["legacy_benchmark"] = "core-scheduler"
    return Profile(suite="core", metrics=tuple(metrics), meta=meta)


def _campaign_profile(document: dict) -> Profile:
    """Convert a ``BENCH_campaign.json`` document (legacy v0) to a profile.

    Each backend label becomes a compound **group** of two metrics: its
    throughput relative to the same run's serial number (``gated`` —
    host speed cancels) and its raw points/sec (``absolute``).  The
    detector fails the group only when *both* degrade, preserving the
    legacy compound gate's semantics: a relative drop alone also happens
    when serial alone speeds up, a raw drop alone when the runner is
    merely slower hardware.
    """
    backends = document.get("backends", {})
    n_points = document.get("n_points", 0)
    serial_secs = _seconds_samples(backends.get("serial", {}))
    serial_pps = backends.get("serial", {}).get("points_per_second")
    metrics = []
    for label in backends:
        row = backends[label]
        secs = _seconds_samples(row)
        if secs and n_points:
            pps_samples = tuple(n_points / s for s in secs)
        else:
            pps_samples = (float(row["points_per_second"]),)
        metrics.append(Metric(
            label=f"{label} points/s",
            samples=pps_samples,
            unit="points/s",
            direction="higher",
            gate="absolute",
            group=label,
        ))
        if label == "serial":
            continue
        if secs and serial_secs and len(secs) == len(serial_secs):
            rel_samples = tuple(s / b for b, s in zip(secs, serial_secs))
        elif serial_pps:
            rel_samples = (float(row["points_per_second"]) / serial_pps,)
        else:
            continue
        metrics.append(Metric(
            label=f"{label} points/s vs serial",
            samples=rel_samples,
            unit="ratio",
            direction="higher",
            gate="gated",
            group=label,
        ))
    meta = {
        key: document[key]
        for key in ("suite", "n_points", "n_instructions", "warmup",
                    "recorded", "python")
        if key in document
    }
    meta["legacy_benchmark"] = "campaign-backends"
    return Profile(suite="campaign", metrics=tuple(metrics), meta=meta)


def profile_from_document(document) -> Profile:
    """Decode any known profile document — native or legacy v0.

    Native ``repro-perf-profile/1`` documents round-trip exactly;
    ``BENCH_core.json`` / ``BENCH_campaign.json`` documents convert via
    their ``benchmark`` field (with an all-default provenance — stamp
    one with :meth:`Profile.with_provenance` before appending to a
    ledger).
    """
    if isinstance(document, dict) and "format" in document:
        return Profile.from_document(document)
    if isinstance(document, dict):
        kind = document.get("benchmark")
        if kind == "core-scheduler":
            return _core_profile(document)
        if kind == "campaign-backends":
            return _campaign_profile(document)
        raise PerfError(
            f"document is neither a {PROFILE_FORMAT!r} profile nor a "
            f"known legacy benchmark ({', '.join(sorted(LEGACY_KINDS))}); "
            f"got benchmark={kind!r}"
        )
    raise PerfError(
        f"profile document must be a mapping, got {type(document).__name__}"
    )


def load_profile(path: str) -> Profile:
    """Read a profile (native or legacy v0) from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as error:
        raise PerfError(f"cannot read profile {path!r}: {error}") from error
    except ValueError as error:
        raise PerfError(f"profile {path!r} is not JSON: {error}") from error
    return profile_from_document(document)

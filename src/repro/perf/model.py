"""The perf-profile model: versioned documents of raw measurement samples.

A :class:`Profile` is one recorded benchmark run of one *suite* (a
``perfbench`` workload): an ordered set of labelled :class:`Metric`
series, each carrying the **raw per-run samples** (at least
:data:`MIN_SAMPLES`, not just mean/std — the degradation detector runs
statistical tests on these), its unit, its goodness direction, and how
the CI gate should treat it.  Every profile is stamped with
:class:`~repro.perf.provenance.Provenance` so the ledger can answer
"which commit produced these numbers".

The on-disk format is versioned (``repro-perf-profile/1``);
:mod:`repro.perf.perfbench` builds profiles from saved ``perfbench``
runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from ..errors import ConfigError, PerfError
from .provenance import Provenance

PROFILE_FORMAT = "repro-perf-profile/1"

#: How the CI gate treats a metric:
#: ``absolute`` — raw host-speed numbers: gated only in a paired A/B of
#:               two profiles from the same named host, reported
#:               otherwise (see :mod:`repro.perf.detect`);
#: ``report``   — context only, never gated.
GATES = ("absolute", "report")

DIRECTIONS = ("higher", "lower")

#: Samples a metric needs so that Welch's t can test it.
MIN_SAMPLES = 3


@dataclass(frozen=True)
class Metric:
    """One labelled measurement series inside a profile."""

    label: str
    samples: Tuple[float, ...]
    gate: str
    unit: str = ""
    direction: str = "higher"

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
        if len(self.samples) < MIN_SAMPLES:
            raise ConfigError(
                f"metric {self.label!r}: {len(self.samples)} sample(s); "
                f"a metric needs at least {MIN_SAMPLES} so the detector "
                f"can test it"
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
        return {
            "label": self.label,
            "unit": self.unit,
            "direction": self.direction,
            "gate": self.gate,
            "samples": list(self.samples),
        }

    @classmethod
    def from_document(cls, document) -> "Metric":
        """Decode one metric; keys this build does not model are
        ignored."""
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
            gate=document.get("gate"),
            unit=document.get("unit", ""),
            direction=document.get("direction", "higher"),
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


def load_profile(path: str) -> Profile:
    """Read a profile document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as error:
        raise PerfError(f"cannot read profile {path!r}: {error}") from error
    except ValueError as error:
        raise PerfError(f"profile {path!r} is not JSON: {error}") from error
    return Profile.from_document(document)

"""Perf-profile version control and statistical degradation detection.

The ``repro.perf`` subsystem makes performance a first-class, versioned
artifact instead of a single checked-in snapshot:

* :mod:`repro.perf.model` — the versioned profile format
  (``repro-perf-profile/1``): labelled **raw per-run sample vectors**
  with units, goodness direction and gate policy.
* :mod:`repro.perf.perfbench` — one profile per ``perfbench`` workload
  from saved ``perfbench/run.py`` runs, units and directions from
  ``BENCHMARK.json``, every run checked.
* :mod:`repro.perf.provenance` — commit / dirty-tree / branch / host /
  python stamps on every profile, validated field by field.
* :mod:`repro.perf.ledger` — ``BENCH_history/``: one profile per
  (suite, commit) with atomic append, lookup, log, prune.
* :mod:`repro.perf.detect` — the degradation detector: Mann-Whitney U /
  Welch's t on the raw samples with a configurable alpha, a
  minimum-effect floor, and a ratio fallback for sample-starved labels;
  verdicts improved / stable / degraded / new / vanished; raw
  host-speed (``absolute``) labels gate only in a paired same-host A/B.
* :mod:`repro.perf.views` — ``perf diff`` / ``perf check`` renderings.

The ``repro-sim perf record|check|diff|log|prune`` surface is
:mod:`repro.cli.perf`; ``perf check`` is the CI entry point.
"""

from .detect import (
    Comparison,
    DetectorConfig,
    LabelDelta,
    compare_metric,
    compare_profiles,
)
from .ledger import DEFAULT_LEDGER, Ledger, resolve_profile
from .model import (
    PROFILE_FORMAT,
    Metric,
    Profile,
    load_profile,
)
from .perfbench import Benchmark, profile_from_runs
from .provenance import Provenance, collect
from .views import (
    render_comparison,
    render_label_history,
    render_log,
    sparkline,
)

__all__ = [
    "Benchmark",
    "Comparison",
    "DetectorConfig",
    "DEFAULT_LEDGER",
    "LabelDelta",
    "Ledger",
    "Metric",
    "PROFILE_FORMAT",
    "Profile",
    "Provenance",
    "collect",
    "compare_metric",
    "compare_profiles",
    "load_profile",
    "profile_from_runs",
    "render_comparison",
    "render_label_history",
    "render_log",
    "sparkline",
    "resolve_profile",
]

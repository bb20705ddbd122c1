"""Profiles from saved ``perfbench/run.py`` runs.

``perfbench/run.py`` ends its standard output with one JSON result
object, ``{"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}``.  A ``--trace 0`` run carries the end-to-end metrics that
``BENCHMARK.json`` lists, a ``--trace 1`` run the per-layer ones.
:func:`profile_from_runs` turns the saved output of k runs of one
workload into one profile, one label per metric and one sample per run
(one profile per workload, as perun's ``profile_for_each_workload``
keeps them):

* unit and direction come from the metric's ``unit`` and ``better`` in
  ``BENCHMARK.json``;
* end-to-end metrics get gate ``absolute``: they measure host speed, so
  they gate a same-host A/B and are reported across hosts;
* per-layer metrics get gate ``report``, so ``perf diff`` names the
  layer that moved without the per-layer spans failing the gate;
* a per-layer metric that reads 0 in every run is left out: the
  workload does not exercise that layer.

Every input is checked, and a bad one raises :class:`PerfError` naming
the file and the reason.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from ..errors import PerfError
from .model import MIN_SAMPLES, Metric, Profile

#: The two kinds of metric in ``BENCHMARK.json``, and the gate each gets.
MODES = {"end_to_end": "absolute", "per_layer": "report"}


class Benchmark:
    """What a profile needs from ``BENCHMARK.json``."""

    def __init__(self, document: dict, origin: str = "BENCHMARK.json"):
        try:
            self.workloads = [w["name"] for w in document["workloads"]]
            #: metric name -> (mode, unit, better)
            self.metrics: Dict[str, Tuple[str, str, str]] = {
                entry["name"]: (mode, entry["unit"], entry["better"])
                for mode in MODES
                for entry in document[mode]
            }
        except (KeyError, TypeError) as error:
            raise PerfError(
                f"{origin} is not a benchmark declaration ({error!r})"
            ) from error

    @classmethod
    def load(cls, path: str) -> "Benchmark":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, ValueError) as error:
            raise PerfError(f"cannot read {path!r}: {error}") from error
        return cls(document, origin=path)


def read_result(path: str) -> dict:
    """The result object on the last line of one saved run's output."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as error:
        raise PerfError(f"cannot read run output {path!r}: {error}") from error
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not (
        isinstance(result, dict)
        and isinstance(result.get("metrics"), dict)
        and result["metrics"]
        and "failed" in result
    ):
        raise PerfError(
            f"{path}: the last line is not a perfbench result object"
        )
    if result["failed"] != 0:
        raise PerfError(
            f"{path}: the run reports failed={result['failed']!r} "
            f"of {result.get('attempted')!r} attempted operation(s)"
        )
    return result


def _run_values(path: str, benchmark: Benchmark) -> Tuple[str, dict]:
    """``(mode, {name: value})`` for one saved run."""
    metrics = read_result(path)["metrics"]
    unknown = sorted(name for name in metrics if name not in benchmark.metrics)
    if unknown:
        raise PerfError(
            f"{path}: metric(s) {', '.join(unknown)} are not in BENCHMARK.json"
        )
    modes = {benchmark.metrics[name][0] for name in metrics}
    if len(modes) > 1:
        raise PerfError(
            f"{path}: the run mixes end-to-end and per-layer metrics"
        )
    values = {}
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PerfError(f"{path}: metric {name!r} has no numeric value")
        values[name] = float(value)
    return modes.pop(), values


def profile_from_runs(
    suite: str, paths: Sequence[str], benchmark: Benchmark
) -> Profile:
    """One profile of workload *suite* from the saved runs at *paths*."""
    if suite not in benchmark.workloads:
        raise PerfError(
            f"unknown workload {suite!r} (BENCHMARK.json lists: "
            f"{', '.join(benchmark.workloads)})"
        )
    runs: Dict[str, List[Tuple[str, dict]]] = {mode: [] for mode in MODES}
    for path in paths:
        mode, values = _run_values(path, benchmark)
        runs[mode].append((path, values))
    # Metric refuses fewer samples; this error names the files.
    for mode, mode_runs in runs.items():
        if mode_runs and len(mode_runs) < MIN_SAMPLES:
            files = ", ".join(path for path, _ in mode_runs)
            raise PerfError(
                f"{files}: {len(mode_runs)} {mode.replace('_', '-')} run(s); "
                f"record at least {MIN_SAMPLES} so the detector can test them"
            )
    metrics = []
    for name, (mode, unit, better) in benchmark.metrics.items():
        samples = [values[name] for _, values in runs[mode] if name in values]
        if not samples or (mode == "per_layer" and not any(samples)):
            continue
        metrics.append(Metric(
            label=name,
            samples=tuple(samples),
            unit=unit,
            direction=better,
            gate=MODES[mode],
        ))
    meta = {
        "benchmark": "perfbench",
        "runs": {mode: len(mode_runs) for mode, mode_runs in runs.items()},
    }
    return Profile(suite=suite, metrics=tuple(metrics), meta=meta)

"""Campaign engine: one pass over a grid of simulation points.

The paper's evaluation is a *campaign*: many independent ``simulate()``
calls over the cross product of benchmarks, steering schemes, machine
variants and seeds.  Running them naively regenerates the same workload
program and re-decodes the same committed-path trace for every scheme.
This module executes the whole grid in a single pass instead:

* a point is a :class:`~repro.spec.RunSpec`: a machine from the
  :mod:`repro.spec.machines` registry plus dotted-path overrides from
  :mod:`repro.spec.overrides`, executed through the :func:`repro.run`
  facade, so a grid cell and a declarative run are the same object;
* points are grouped by ``(bench, seed)`` so each group shares one
  generated program and one materialised trace
  (:class:`~repro.workloads.trace.SharedTrace`);
* groups are dispatched through a pluggable execution backend from
  :mod:`repro.dist` — ``workers=1`` runs on the in-process ``serial``
  backend, ``workers>1`` defaults to the ``process`` pool backend, and
  ``backend="worker"`` fans the same points out over the warm pool of
  protocol subprocesses;
* results round-trip through JSON and CSV stores, and a seed-aggregation
  layer reports mean/std per (bench, scheme, machine) for multi-seed
  scenario studies.

>>> from repro.analysis.campaign import Campaign, expand_grid
>>> points = expand_grid(["gcc"], ["modulo"], n_instructions=600, warmup=200)
>>> results = Campaign(points).run()
>>> results[0].result.ipc > 0
True
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ConfigError, ReproError
from ..pipeline import SimResult
from ..telemetry import tracing
from ..spec.machines import machine_config
from ..spec.overrides import (
    apply_override,
    normalize_overrides,
    overrides_to_jsonable,
    validate_overrides,
)
from ..spec.specs import MachineSpec, RunSpec


def expand_grid(
    benches: Sequence[str],
    schemes: Sequence[str],
    machines: Sequence[str] = ("clustered",),
    overrides: Sequence = ((),),
    seeds: Sequence[int] = (0,),
    n_instructions: int = 20000,
    warmup: int = 5000,
) -> List[RunSpec]:
    """Cross product of benches × schemes × machines × overrides × seeds.

    Each entry of *overrides* is one override set — a dict
    (``{"clusters.0.iq_size": 128}``) or a tuple of ``(path, value)``
    pairs.  Every (machine, override set) combination is validated
    eagerly here, so an unknown machine name or a bad dotted path fails
    at expansion time with a :class:`~repro.errors.ConfigError` instead
    of inside a worker process.

    The expansion order keeps all points of one ``(bench, seed)`` pair
    adjacent, matching how the engine groups work onto shared traces.
    """
    override_sets = [normalize_overrides(ov) for ov in overrides] or [()]
    for machine in machines:
        base = machine_config(machine)
        for override_set in override_sets:
            validate_overrides(override_set, base)
    points: List[RunSpec] = []
    for bench in benches:
        for seed in seeds:
            for machine in machines:
                for override in override_sets:
                    for scheme in schemes:
                        points.append(
                            RunSpec(
                                bench=bench,
                                scheme=scheme,
                                machine=MachineSpec(machine, override),
                                seed=seed,
                                n_instructions=n_instructions,
                                warmup=warmup,
                            )
                        )
    return points


class CampaignError(ReproError):
    """One or more campaign points failed to simulate.

    ``failures`` pairs each failing point with the traceback text
    from its worker, so a campaign over a hundred points reports
    every broken cell instead of dying on the first.  When the campaign
    ran under a trace, ``trace_id`` is carried in the message so the
    failure can be joined to its span tree (and the retries that
    preceded it) in the telemetry log.
    """

    def __init__(
        self,
        failures: List[Tuple[RunSpec, str]],
        trace_id: Optional[str] = None,
    ) -> None:
        self.failures = list(failures)
        self.trace_id = trace_id
        heads = "; ".join(
            f"{point.label}: {text.strip().splitlines()[-1]}"
            for point, text in self.failures
        )
        message = f"{len(self.failures)} campaign point(s) failed: {heads}"
        if trace_id:
            message += f" [trace {trace_id}]"
        super().__init__(message)


def grouped_points(
    points: Sequence[RunSpec],
) -> List[List[Tuple[int, RunSpec]]]:
    """Points bucketed by shared trace, preserving submission order.

    Every execution backend dispatches these groups (never individual
    points across group boundaries), which is what guarantees each
    workload trace is generated exactly once per campaign no matter
    where the points run, as long as whoever runs a group holds its
    workload for the whole group (the workload cache returns the same
    object only while it is held).  Letting it go afterwards bounds a
    campaign's memory by the groups in flight, not by every
    ``(bench, seed)`` it has touched.
    """
    buckets: Dict[Tuple[str, int], List[Tuple[int, RunSpec]]] = {}
    order: List[Tuple[str, int]] = []
    for index, point in enumerate(points):
        key = point.trace_key
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append((index, point))
    return [buckets[key] for key in order]


@dataclass(frozen=True)
class CampaignRun:
    """One executed point and its metrics.

    ``elapsed_seconds`` (and, where the executing end measured it, the
    ``timing`` resolve/simulate split) attribute per-point wall-clock
    cost; both are provenance, not results — excluded from equality so
    a re-run with different timings still matches the serial oracle.
    """

    point: RunSpec
    result: SimResult
    elapsed_seconds: Optional[float] = field(default=None, compare=False)
    timing: Optional[Dict[str, float]] = field(default=None, compare=False)

    @classmethod
    def timed(
        cls, point: RunSpec, result: SimResult, timing: Optional[dict]
    ) -> "CampaignRun":
        """A run from a payload entry's result and timing dict."""
        rest = dict(timing or {})
        elapsed = rest.pop("elapsed_seconds", None)
        return cls(point, result, elapsed, rest or None)


class CampaignResults:
    """Ordered result set of one campaign, with stores and aggregation."""

    def __init__(self, runs: Sequence[CampaignRun]) -> None:
        self.runs = list(runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[CampaignRun]:
        return iter(self.runs)

    def __getitem__(self, index) -> CampaignRun:
        return self.runs[index]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def result(self, **match) -> SimResult:
        """The single result whose point matches all given fields.

        A machine matches as a :class:`~repro.spec.MachineSpec`, such as
        ``machine=MachineSpec("baseline")``.

        >>> # results.result(bench="gcc", scheme="modulo", seed=0)
        """
        hits = [
            run.result
            for run in self.runs
            if all(
                getattr(run.point, name) == value
                for name, value in match.items()
            )
        ]
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} results match {match!r} (expected exactly 1)"
            )
        return hits[0]

    # ------------------------------------------------------------------
    # Stores
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, object]]:
        """Plain-data form: one ``{"point": ..., "result": ...}`` per run.

        Timing provenance (``elapsed_seconds`` / ``timing``) rides as
        sibling keys of ``result``, never inside it — the result dict
        must stay a pure :class:`SimResult` so old readers round-trip.
        """
        records = []
        for run in self.runs:
            record: Dict[str, object] = {
                "point": _point_record(run.point),
                "result": run.result.to_dict(),
            }
            if run.elapsed_seconds is not None:
                record["elapsed_seconds"] = run.elapsed_seconds
            if run.timing:
                record["timing"] = dict(run.timing)
            records.append(record)
        return records

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, object]]
    ) -> "CampaignResults":
        """Inverse of :meth:`to_records` (timing keys are optional —
        stores written before they existed load unchanged)."""
        runs = []
        for record in records:
            elapsed = record.get("elapsed_seconds")
            timing = record.get("timing")
            runs.append(
                CampaignRun(
                    point=_point_from_record(record["point"]),
                    result=SimResult.from_dict(record["result"]),
                    elapsed_seconds=(
                        float(elapsed) if elapsed is not None else None
                    ),
                    timing=dict(timing) if timing else None,
                )
            )
        return cls(runs)

    def save_json(self, path: str) -> None:
        """Write the result set as a JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"runs": self.to_records()}, fh, indent=1)

    @classmethod
    def load_json(cls, path: str) -> "CampaignResults":
        """Read a result set written by :meth:`save_json`."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_records(json.load(fh)["runs"])

    def save(self, path: str) -> None:
        """Write the result set, picking the format from the extension.

        ``.json`` and ``.csv`` are supported; anything else raises
        :class:`~repro.errors.ConfigError`.
        """
        if _store_format(path) == "json":
            self.save_json(path)
        else:
            self.save_csv(path)

    @classmethod
    def load(cls, path: str) -> "CampaignResults":
        """Read a result set, picking the format from the extension."""
        if _store_format(path) == "json":
            return cls.load_json(path)
        return cls.load_csv(path)

    def save_csv(self, path: str) -> None:
        """Write one flat CSV row per run (nested fields JSON-encoded).

        Columns are namespaced ``point.*`` / ``result.*`` because the two
        dataclasses share field names (``scheme``).
        """
        header = [f"point.{c}" for c in _POINT_KEYS] + [
            f"result.{f.name}" for f in fields(SimResult)
        ] + ["elapsed_seconds"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for run in self.runs:
                row = [
                    _encode_cell(value)
                    for value in _point_record(run.point).values()
                ]
                row += [
                    _encode_cell(value)
                    for value in run.result.to_dict().values()
                ]
                row.append(
                    ""
                    if run.elapsed_seconds is None
                    else run.elapsed_seconds
                )
                writer.writerow(row)

    @classmethod
    def load_csv(cls, path: str) -> "CampaignResults":
        """Read a result set written by :meth:`save_csv`.

        Cells are text; the point and result decoders coerce each one
        to its field's type.
        """
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            runs = []
            for row in reader:
                point = {
                    k[len("point."):]: v
                    for k, v in row.items()
                    if k.startswith("point.")
                }
                result = {
                    k[len("result."):]: v
                    for k, v in row.items()
                    if k.startswith("result.")
                }
                elapsed = row.get("elapsed_seconds")
                runs.append(
                    CampaignRun(
                        point=_point_from_record(point),
                        result=SimResult.from_dict(result),
                        elapsed_seconds=float(elapsed) if elapsed else None,
                    )
                )
        return cls(runs)

    # ------------------------------------------------------------------
    # Aggregation over seeds
    # ------------------------------------------------------------------
    def aggregate(self) -> List["AggregateResult"]:
        """Mean/std of the headline metrics over seeds.

        Runs are grouped by everything *except* the seed; each group
        becomes one :class:`AggregateResult`.  Groups of one seed get a
        zero std, so single-seed campaigns aggregate losslessly.
        """
        groups: Dict[Tuple, List[CampaignRun]] = {}
        order: List[Tuple] = []
        for run in self.runs:
            p = run.point
            key = (p.bench, p.scheme, p.machine, p.n_instructions, p.warmup)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(run)
        out = []
        for key in order:
            runs = groups[key]
            bench, scheme, machine = key[:3]
            means: Dict[str, float] = {}
            stds: Dict[str, float] = {}
            for metric in AGGREGATE_METRICS:
                values = [getattr(r.result, metric) for r in runs]
                m = sum(values) / len(values)
                means[metric] = m
                stds[metric] = math.sqrt(
                    sum((v - m) ** 2 for v in values) / len(values)
                )
            out.append(
                AggregateResult(
                    bench=bench,
                    scheme=scheme,
                    machine=machine.name,
                    overrides=machine.overrides,
                    n_seeds=len(runs),
                    seeds=tuple(r.point.seed for r in runs),
                    means=means,
                    stds=stds,
                )
            )
        return out


#: Scalar metrics the seed-aggregation layer summarises.
AGGREGATE_METRICS = (
    "ipc",
    "comms_per_instr",
    "critical_comms_per_instr",
    "avg_replication",
    "branch_accuracy",
    "l1d_miss_rate",
)


@dataclass(frozen=True)
class AggregateResult:
    """Mean/std of one (bench, scheme, machine, overrides) over seeds."""

    bench: str
    scheme: str
    machine: str
    overrides: Tuple[Tuple[str, object], ...]
    n_seeds: int
    seeds: Tuple[int, ...]
    means: Dict[str, float]
    stds: Dict[str, float]

    @property
    def ipc(self) -> float:
        """Mean IPC over seeds."""
        return self.means["ipc"]

    @property
    def ipc_std(self) -> float:
        """IPC standard deviation over seeds."""
        return self.stds["ipc"]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    """Executes a grid of points in one pass with shared traces.

    Execution is delegated to a :mod:`repro.dist` backend.  ``backend``
    is a registered backend name (``"serial"``, ``"process"``,
    ``"worker"``) or an
    :class:`~repro.dist.ExecutionBackend` instance; ``None`` (the
    default) keeps the historical behaviour — in-process serial for
    ``workers=1``, the process-pool backend for ``workers>1``.  Grouping
    by ``(bench, seed)`` guarantees each workload trace is generated
    exactly once per campaign regardless of the backend — in the parent
    for serial runs, in exactly one worker elsewhere.
    """

    points: Sequence[RunSpec]
    workers: int = 1
    backend: Union[str, object, None] = None

    @property
    def effective_workers(self) -> int:
        """Worker processes the campaign will actually use.

        For in-process backends parallelism only pays across distinct
        ``(bench, seed)`` traces — a single-group campaign runs serially
        regardless of ``workers`` (splitting a group would regenerate
        its shared trace per worker).  A backend that declares
        ``splits_groups`` (the warm ``worker`` pool, which preloads the
        trace onto every worker that needs it) is sized by *points*
        instead, so jobs above the group count still help.
        """
        if self.workers <= 1:
            return 1
        if self.backend is not None and getattr(
            self.resolve_backend(), "splits_groups", False
        ):
            return min(self.workers, len(self.points))
        groups = len({p.trace_key for p in self.points})
        if groups <= 1:
            return 1
        return min(self.workers, groups)

    def resolve_backend(self):
        """The :class:`~repro.dist.ExecutionBackend` this campaign uses."""
        from ..dist import ExecutionBackend, backend as make_backend

        if isinstance(self.backend, ExecutionBackend):
            return self.backend
        if self.backend is None:
            return make_backend(
                "process" if self.effective_workers > 1 else "serial"
            )
        return make_backend(self.backend)

    def run(self) -> CampaignResults:
        """Execute every point; raise :class:`CampaignError` on failures.

        The run is the root of a trace: every backend picks the span up
        via :func:`repro.telemetry.tracing.current_span` and propagates
        its context through whatever protocol it speaks, so one trace id
        joins the campaign to each dispatched chunk, worker batch and
        retry.  Backend payload entries are ``(index, result, error,
        timing)``, always four fields.
        """
        from ..dist import coerce_jobs

        # Normalise before resolve_backend/effective_workers read it, so
        # an integer string works everywhere and a bad value fails here.
        self.workers = coerce_jobs(self.workers, source="workers")
        backend = self.resolve_backend()
        span = tracing.start_span(
            "campaign",
            parent=tracing.current_span(),
            backend=getattr(backend, "name", type(backend).__name__),
            points=len(self.points),
            workers=self.workers,
        )
        try:
            with tracing.activate(span):
                payload = backend.execute(self.points, jobs=self.workers)
        except Exception as err:
            span.end(status="error", error=str(err))
            raise
        results: Dict[int, SimResult] = {}
        meta: Dict[int, dict] = {}
        failures: List[Tuple[int, str]] = []
        for index, result, error, timing in payload:
            if error is not None:
                failures.append((index, error))
            else:
                results[index] = result
                meta[index] = timing or {}
        if failures:
            failures.sort()
            span.end(status="error", error=f"{len(failures)} point(s) failed")
            raise CampaignError(
                [(self.points[i], error) for i, error in failures],
                trace_id=span.trace_id,
            )
        missing = [
            point
            for i, point in enumerate(self.points)
            if i not in results
        ]
        if missing:
            span.end(status="error", error="backend returned no result")
            raise CampaignError(
                [(p, "backend returned no result") for p in missing],
                trace_id=span.trace_id,
            )
        span.end()
        return CampaignResults(
            [
                CampaignRun.timed(point, results[i], meta[i])
                for i, point in enumerate(self.points)
            ]
        )


# ----------------------------------------------------------------------
# Incremental campaigns
# ----------------------------------------------------------------------
class IncrementalRun(NamedTuple):
    """Outcome of :func:`run_campaign`: results plus reuse accounting."""

    results: CampaignResults
    n_cached: int
    n_simulated: int


def _store_format(path: str) -> str:
    """``"json"`` or ``"csv"`` from the store path's extension."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        return "json"
    if ext == ".csv":
        return "csv"
    raise ConfigError(
        f"campaign store {path!r} must end in .json or .csv"
    )


def run_campaign(
    points: Sequence[RunSpec],
    workers: int = 1,
    store: Optional[str] = None,
    resume: bool = False,
    backend: Union[str, object, None] = None,
) -> IncrementalRun:
    """Execute *points*, optionally reusing and updating a result store.

    Without *store* this is ``Campaign(points, workers).run()``.  With
    *store* the merged result set is written there afterwards; with
    *resume* as well, points already present in the store are served from
    it and only the missing ones are simulated — the ROADMAP's
    incremental-campaign mode.  Store lookup is by full
    :class:`RunSpec` equality, so changing a window size, seed or
    override re-simulates that point rather than reusing a stale result.

    *backend* selects the :mod:`repro.dist` execution backend (a
    registered name or an instance); every backend must produce results
    point-for-point identical to ``backend="serial"``.
    """
    cached: Dict[RunSpec, CampaignRun] = {}
    if resume:
        if store is None:
            raise ConfigError("resume requires a --json/--csv store path")
        if os.path.exists(store):
            for run in CampaignResults.load(store):
                cached[run.point] = run
    missing = [p for p in points if p not in cached]
    fresh: Dict[RunSpec, CampaignRun] = {}
    if missing:
        for run in Campaign(missing, workers=workers, backend=backend).run():
            fresh[run.point] = run
    results = CampaignResults(
        [fresh.get(p) or cached[p] for p in points]
    )
    if store is not None:
        # The store accumulates: points from earlier runs that are not in
        # this grid stay, so one store can back a growing campaign.
        requested = set(points)
        extra = [
            run for p, run in cached.items() if p not in requested
        ]
        CampaignResults([*results, *extra]).save(store)
    return IncrementalRun(
        results=results,
        n_cached=len(points) - len(missing),
        n_simulated=len(missing),
    )


# ----------------------------------------------------------------------
# The flat store record of a point
# ----------------------------------------------------------------------
#: The record's keys, in store order (also the CSV ``point.*`` columns).
_POINT_KEYS = (
    "bench", "scheme", "machine", "overrides", "seed", "n_instructions",
    "warmup",
)


def _point_record(point: RunSpec) -> Dict[str, object]:
    """A point as JSON and CSV stores keep it: the machine by name and
    its overrides as ``[[path, value], ...]``, flat beside the run."""
    return {
        "bench": point.bench,
        "scheme": point.scheme,
        "machine": point.machine.name,
        "overrides": overrides_to_jsonable(point.machine.overrides),
        "seed": point.seed,
        "n_instructions": point.n_instructions,
        "warmup": point.warmup,
    }


def _point_from_record(data: Dict[str, object]) -> RunSpec:
    """Inverse of :func:`_point_record`.

    Accepts CSV text cells (the overrides as JSON text), and omitted
    keys take :class:`~repro.spec.RunSpec`'s defaults.
    """
    overrides = data.get("overrides", ())
    if isinstance(overrides, str):
        overrides = json.loads(overrides)
    return RunSpec(
        bench=str(data["bench"]),
        scheme=str(data["scheme"]),
        machine=MachineSpec(str(data.get("machine", "clustered")), overrides),
        seed=int(data.get("seed", 0)),
        n_instructions=int(data.get("n_instructions", 20000)),
        warmup=int(data.get("warmup", 5000)),
    )


def _encode_cell(value) -> object:
    """CSV cell encoding: scalars as-is, containers as JSON."""
    if isinstance(value, (int, float, str)):
        return value
    return json.dumps(value)

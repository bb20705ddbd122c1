"""Shared-filesystem job directories.

This is the multi-host execution path: a *packager* turns a campaign
grid into a self-contained **job directory** on a shared filesystem, any
number of *workers* (on any hosts that see the directory) claim and
simulate points, and a *merger* folds the partial results back into one
deterministic store; ``repro-sim dist package|worker|status|merge``
drive the three stages.  No coordinator process exists — the
filesystem is the queue, and atomic ``rename`` is the only
synchronisation primitive.

Job directory layout::

    job/
      manifest.json          point list (RunSpec dicts, in grid order)
      traces/<bench>-s<seed>.rtrace   one exported trace per trace group
      queue/point-00042.json          claim tokens for pending points
      claimed/point-00042.<worker>.json   in-flight points
      results/<worker>.json           one partial store per worker
      failed/point-00042.json         per-point failure records

Workers need *only* this package and the traces — the packaged
``.rtrace`` files carry the exact committed paths, so a worker host
needs neither the workload generator nor its RNG, and its results are
byte-identical to a serial run of the same grid (the replay
guarantee).  A worker executes each point through
:func:`repro.dist.backends.run_group`, the one executor of every
backend, so a partial store's runs carry the same results, errors and
timing keys as a serial run of the same points.  Claiming
renames ``queue/point-N.json`` into ``claimed/``; rename is atomic on
POSIX, so when two workers race for one point exactly one wins and the
loser moves on.  Completed points are appended
to the worker's partial store (rewritten atomically) and their claim
token is removed; a worker that dies mid-point leaves its token in
``claimed/`` where :func:`requeue_lost` can put it back.

The merger applies ``resume=True`` semantics: partial-store lookup is by
full point equality against the manifest, duplicates (a requeued point
finished twice) deduplicate to the deterministic single result, and an
existing output store's extra points are preserved exactly like
:func:`~repro.analysis.campaign.run_campaign` preserves them.
"""

from __future__ import annotations

import json
import os
import socket
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DistError
from ..telemetry import tracing

#: Manifest format tag / version for job directories.  A packager with
#: an active span stores its trace context under an optional ``trace``
#: manifest key (ignored by old readers), so worker-side spans on other
#: hosts join the packaging campaign's trace.
JOB_FORMAT = "repro-dist-job"
JOB_VERSION = 1

_QUEUE = "queue"
_CLAIMED = "claimed"
_RESULTS = "results"
_FAILED = "failed"
_TRACES = "traces"


def _token_name(index: int) -> str:
    return f"point-{index:05d}.json"


def _write_json(path: str, document: dict) -> None:
    """Write *document* atomically (tmp + rename) for crash safety."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))
    os.replace(tmp, path)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def trace_filename(bench: str, seed: int) -> str:
    """Canonical per-(bench, seed) trace file name inside a job."""
    return f"{bench}-s{seed}.rtrace"


# ----------------------------------------------------------------------
# Packager
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackagedJob:
    """Summary of one packaged job directory."""

    job_dir: str
    n_points: int
    n_traces: int

    def describe(self) -> str:
        return (
            f"{self.job_dir}: {self.n_points} point(s), "
            f"{self.n_traces} trace(s)"
        )


def package_job(
    points: Sequence, job_dir: str, description: str = ""
) -> PackagedJob:
    """Write *points* (plus their traces) into *job_dir*.

    Each distinct ``(bench, seed)`` pair is exported once as an
    ``.rtrace`` holding the longest window any of its points needs (plus
    the standard fetch-ahead cushion), so the directory is a complete
    shipping unit: a worker host replays the traces instead of
    regenerating workloads.  Each workload is held only for its own
    export, so packaging a many-seed grid keeps one trace in memory at
    a time.
    """
    from ..scenarios.rtrace import export_trace
    from ..workloads import workload

    if not points:
        raise DistError("cannot package an empty point list")
    manifest_path = os.path.join(job_dir, "manifest.json")
    if os.path.exists(manifest_path):
        raise DistError(
            f"{job_dir!r} already holds a packaged job; "
            f"merge or remove it first"
        )
    for sub in (_QUEUE, _CLAIMED, _RESULTS, _FAILED, _TRACES):
        os.makedirs(os.path.join(job_dir, sub), exist_ok=True)
    # Longest window per trace group decides how much trace to export.
    needed: Dict[Tuple[str, int], int] = {}
    for point in points:
        key = point.trace_key
        needed[key] = max(
            needed.get(key, 0), point.warmup + point.n_instructions
        )
    traces: Dict[str, Dict[str, object]] = {}
    for (bench, seed), records in sorted(needed.items()):
        fname = trace_filename(bench, seed)
        meta = export_trace(
            workload(bench, seed=seed),
            os.path.join(job_dir, _TRACES, fname),
            records,
        )
        traces[fname] = {
            "bench": bench,
            "seed": seed,
            "records": meta.n_records,
        }
    for index, point in enumerate(points):
        _write_json(
            os.path.join(job_dir, _QUEUE, _token_name(index)),
            {
                "index": index,
                "spec": point.to_dict(),
                "trace": trace_filename(*point.trace_key),
            },
        )
    # Manifest last: its presence marks the job directory as complete.
    manifest = {
        "format": JOB_FORMAT,
        "version": JOB_VERSION,
        "description": description,
        "points": [point.to_dict() for point in points],
        "traces": traces,
    }
    trace_ctx = tracing.current_context()
    if trace_ctx is not None:
        manifest["trace"] = trace_ctx
    _write_json(manifest_path, manifest)
    return PackagedJob(
        job_dir=job_dir, n_points=len(points), n_traces=len(traces)
    )


def load_manifest_points(job_dir: str) -> List:
    """The job's points, in grid order, from its manifest."""
    from ..spec.specs import RunSpec

    path = os.path.join(job_dir, "manifest.json")
    if not os.path.isfile(path):
        raise DistError(
            f"{job_dir!r} is not a job directory (no manifest.json)"
        )
    manifest = _read_json(path)
    if manifest.get("format") != JOB_FORMAT:
        raise DistError(
            f"{path}: unrecognised manifest format "
            f"{manifest.get('format')!r}"
        )
    if int(manifest.get("version", 0)) > JOB_VERSION:
        raise DistError(
            f"{path}: job version {manifest.get('version')} is newer "
            f"than this reader (v{JOB_VERSION})"
        )
    return [RunSpec.from_dict(spec) for spec in manifest["points"]]


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def default_worker_id() -> str:
    """A worker id unique across hosts sharing one job directory."""
    return f"{socket.gethostname()}-{os.getpid()}"


def claim_point(
    job_dir: str,
    worker_id: str,
    backlog: Optional[List[str]] = None,
) -> Optional[dict]:
    """Claim the next pending point via atomic rename, or ``None``.

    Exactly one of any number of racing workers wins each token; losers
    see the source file vanish and try the next one.  Callers claiming
    in a loop should pass a *backlog* list (kept across calls): tokens
    are consumed from it and the queue directory is only re-listed when
    it runs dry, so claiming P points costs O(P) directory listings
    instead of O(P^2) — it is the shared (often networked) filesystem
    paying for each listing.
    """
    queue_dir = os.path.join(job_dir, _QUEUE)
    own = backlog if backlog is not None else []
    refreshed = False
    while True:
        while own:
            token = own.pop(0)
            if not token.endswith(".json"):
                continue
            stem = token[: -len(".json")]
            claimed = os.path.join(
                job_dir, _CLAIMED, f"{stem}.{worker_id}.json"
            )
            try:
                os.rename(os.path.join(queue_dir, token), claimed)
            except FileNotFoundError:
                continue  # another worker won the race
            entry = _read_json(claimed)
            entry["_claim_path"] = claimed
            return entry
        if refreshed:
            return None
        try:
            own.extend(sorted(os.listdir(queue_dir)))
        except FileNotFoundError:
            raise DistError(
                f"{job_dir!r} is not a job directory (no {_QUEUE}/)"
            ) from None
        refreshed = True


def run_worker(
    job_dir: str,
    worker_id: Optional[str] = None,
    max_points: Optional[int] = None,
) -> int:
    """Claim and simulate points until the queue is empty.

    Each point runs through :func:`~repro.dist.backends.run_group`, the
    executor every backend shares, against its packaged ``.rtrace``,
    loaded once per ``(bench, seed)``; a spec repeated in the job is
    answered from the worker's result memo.  Results, with their timing,
    accumulate in this worker's partial store
    (``results/<worker_id>.json``), rewritten atomically after every
    point so a crash never corrupts completed work.  Point failures are
    recorded under ``failed/`` and do not stop the worker.  Returns the
    number of points completed successfully.
    """
    from ..analysis.campaign import CampaignResults, CampaignRun
    from ..scenarios.rtrace import import_trace
    from ..spec.specs import RunSpec
    from .backends import WorkerState, run_group
    from .worker import _fault_injection

    load_manifest_points(job_dir)  # validates the directory
    worker_id = worker_id or default_worker_id()
    manifest_ctx = _read_json(
        os.path.join(job_dir, "manifest.json")
    ).get("trace")
    # One span for this worker's whole draining pass, parented on the
    # packager's trace context (when the manifest carries one) so a
    # multi-host job still assembles into a single trace tree.
    span = tracing.start_span(
        "dirqueue.worker", parent=manifest_ctx, worker=worker_id,
        dir=job_dir,
    )
    store = os.path.join(job_dir, _RESULTS, f"{worker_id}.json")
    state = WorkerState()
    held: Dict[Tuple[str, int], object] = {}
    backlog: List[str] = []
    runs: List[CampaignRun] = []
    if os.path.exists(store):
        # A restarted worker reusing its id must append to — not
        # clobber — the partial store of points it already completed:
        # their queue tokens are gone, so an overwritten store would
        # lose those results for good.
        runs = list(CampaignResults.load_json(store))
    completed = 0
    failed = 0
    while max_points is None or completed < max_points:
        entry = claim_point(job_dir, worker_id, backlog)
        if entry is None:
            break
        claim_path = entry.pop("_claim_path")
        try:
            spec = RunSpec.from_dict(entry["spec"])
            if spec.trace_key not in held:
                trace_path = os.path.join(job_dir, _TRACES, entry["trace"])
                wl = import_trace(trace_path)
                if (wl.name, wl.seed) != spec.trace_key:
                    raise DistError(
                        f"{trace_path} records {wl.name!r} seed {wl.seed}, "
                        f"but the claimed point needs {spec.bench!r} seed "
                        f"{spec.seed}"
                    )
                held[spec.trace_key] = wl
        except Exception:  # noqa: BLE001 — recorded, queue keeps moving
            error = traceback.format_exc()
        else:
            _fault_injection()
            ((_, result, error, timing),) = run_group(
                [(entry["index"], spec)], state, held
            )
        if error is not None:
            _write_json(
                os.path.join(
                    job_dir, _FAILED, _token_name(int(entry["index"]))
                ),
                {
                    "index": entry["index"],
                    "spec": entry["spec"],
                    "worker": worker_id,
                    "error": error,
                },
            )
            failed += 1
        else:
            runs.append(CampaignRun.timed(spec, result, timing))
            tmp = store + ".tmp"
            CampaignResults(runs).save_json(tmp)
            os.replace(tmp, store)
            completed += 1
        _drop_claim(claim_path)
    span.annotate(completed=completed, failed=failed)
    span.end(status="error" if failed else "ok")
    return completed


def _drop_claim(claim_path: str) -> None:
    """Remove a claim token, tolerating a concurrent requeue.

    An operator running ``--requeue-lost`` against a worker that turned
    out to be alive moves the token away mid-simulation; that must cost
    duplicated (and deduplicated-at-merge) work, never crash the live
    worker.
    """
    try:
        os.remove(claim_path)
    except FileNotFoundError:
        pass


def requeue_lost(job_dir: str) -> int:
    """Move claimed-but-unfinished points back into the queue.

    Only safe when the claiming workers are known to be dead — a live
    worker whose point is requeued would race a second executor (the
    merge still deduplicates, but the work is wasted).  Returns the
    number of tokens requeued.
    """
    claimed_dir = os.path.join(job_dir, _CLAIMED)
    moved = 0
    for token in sorted(os.listdir(claimed_dir)):
        try:
            entry = _read_json(os.path.join(claimed_dir, token))
            os.replace(
                os.path.join(claimed_dir, token),
                os.path.join(
                    job_dir, _QUEUE, _token_name(int(entry["index"]))
                ),
            )
        except FileNotFoundError:
            continue  # its worker was alive after all and finished it
        moved += 1
    return moved


# ----------------------------------------------------------------------
# Merger / status
# ----------------------------------------------------------------------
@dataclass
class MergedJob:
    """Outcome of folding a job directory's partial stores together."""

    points: List
    runs: Dict[int, object]
    failures: Dict[int, str]
    workers: Tuple[str, ...] = ()
    store: Optional[str] = None
    _results: object = field(default=None, repr=False)

    @property
    def missing(self) -> List[int]:
        """Indexes with neither a result nor a failure record."""
        return [
            i
            for i in range(len(self.points))
            if i not in self.runs and i not in self.failures
        ]

    @property
    def complete(self) -> bool:
        return len(self.runs) == len(self.points)

    def results(self):
        """The merged result set (requires a complete job)."""
        from ..analysis.campaign import CampaignResults

        if not self.complete:
            raise DistError(
                f"job is incomplete: {len(self.failures)} failed, "
                f"{len(self.missing)} never completed"
            )
        return CampaignResults(
            [self.runs[i] for i in range(len(self.points))]
        )

    def describe(self) -> str:
        return (
            f"{len(self.runs)}/{len(self.points)} point(s) merged from "
            f"{len(self.workers)} worker store(s), "
            f"{len(self.failures)} failed, {len(self.missing)} missing"
        )


def merge_job(
    job_dir: str,
    store: Optional[str] = None,
    allow_partial: bool = False,
) -> MergedJob:
    """Fold a job's partial stores into one result set (and *store*).

    Lookup is by full point equality against the manifest — the same
    rule ``resume=True`` uses — so duplicated work deduplicates and a
    stale partial store from a different grid is ignored rather than
    merged; a point the grid repeats needs one run per repeat.  With
    *store*, completed points are written there in grid order; points
    already in the store from earlier runs are preserved.
    An incomplete job raises :class:`~repro.errors.DistError` unless
    *allow_partial* is set.
    """
    from ..analysis.campaign import CampaignResults

    points = load_manifest_points(job_dir)
    index_of: Dict[object, List[int]] = {}
    for index, point in enumerate(points):
        index_of.setdefault(point, []).append(index)
    runs: Dict[int, object] = {}
    workers: List[str] = []
    results_dir = os.path.join(job_dir, _RESULTS)
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(".json"):  # skips in-flight .json.tmp too
            continue
        workers.append(name[: -len(".json")])
        for run in CampaignResults.load_json(
            os.path.join(results_dir, name)
        ):
            # A repeated point's runs fill its indexes in turn, so each
            # index keeps its own run's timing; a run finding them all
            # filled is a duplicate (a requeued point finished twice).
            for index in index_of.get(run.point, ()):
                if index not in runs:
                    runs[index] = run
                    break
    failures: Dict[int, str] = {}
    failed_dir = os.path.join(job_dir, _FAILED)
    for name in sorted(os.listdir(failed_dir)):
        record = _read_json(os.path.join(failed_dir, name))
        index = int(record["index"])
        if index not in runs:  # a retry may have succeeded since
            failures[index] = str(record["error"])
    merged = MergedJob(
        points=points,
        runs=runs,
        failures=failures,
        workers=tuple(workers),
        store=store,
    )
    if not merged.complete and not allow_partial:
        raise DistError(
            f"cannot merge incomplete job {job_dir!r}: "
            + merged.describe()
        )
    if store is not None:
        _write_store(merged, store)
    return merged


def _write_store(merged: MergedJob, store: str) -> None:
    """Write completed points (grid order) to *store*, accumulating."""
    from ..analysis.campaign import CampaignResults, _store_format

    _store_format(store)  # validate the extension before any work
    ordered = [
        merged.runs[i] for i in range(len(merged.points)) if i in merged.runs
    ]
    extra = []
    if os.path.exists(store):
        merged_points = {run.point for run in ordered}
        extra = [
            run
            for run in CampaignResults.load(store)
            if run.point not in merged_points
        ]
    CampaignResults([*ordered, *extra]).save(store)


@dataclass(frozen=True)
class JobStatus:
    """Counts of one job directory's point states."""

    total: int
    pending: int
    in_flight: int
    completed: int
    failed: int
    workers: Tuple[str, ...]

    def describe(self) -> str:
        return (
            f"{self.completed}/{self.total} completed "
            f"({self.pending} pending, {self.in_flight} in flight, "
            f"{self.failed} failed) across "
            f"{len(self.workers)} worker store(s)"
        )


def job_status(job_dir: str) -> JobStatus:
    """Summarise a job directory without touching its queue."""
    points = load_manifest_points(job_dir)
    partial = merge_job(job_dir, allow_partial=True)
    pending = len(
        [
            name
            for name in os.listdir(os.path.join(job_dir, _QUEUE))
            if name.endswith(".json")
        ]
    )
    in_flight = len(os.listdir(os.path.join(job_dir, _CLAIMED)))
    return JobStatus(
        total=len(points),
        pending=pending,
        in_flight=in_flight,
        completed=len(partial.runs),
        failed=len(partial.failures),
        workers=partial.workers,
    )

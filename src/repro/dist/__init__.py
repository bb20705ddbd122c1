"""Distributed execution backends for campaigns.

The campaign engine asks this package *how* to execute a grid: every
point of every campaign routes through a registered
:class:`ExecutionBackend`.  A point is a :class:`~repro.spec.RunSpec`
on every path: backends take run specs, and the worker protocol and
job-directory manifests carry ``spec.to_dict()``, which
``RunSpec.from_dict`` reads back.  Results travel as
``SimResult.to_dict()`` / ``SimResult.from_dict``.

One executor, :func:`run_group`, runs every point wherever it runs:
the serial backend per shared-trace group, the process backend over a
pool, a protocol worker per ``batch-run`` and a job-directory worker per
claimed point.  It returns the four-field ``(index, result, error,
timing)`` :data:`Payload` entry of every backend.  Three backends ship
built in:

``serial``
    In-process reference execution.  Every other backend is required to
    be point-for-point identical to it.
``process``
    The classic ``ProcessPoolExecutor`` fan-out over shared-trace
    groups (what ``workers>1`` has always meant).
``worker``
    A **warm pool** of persistent ``repro-sim dist worker --stdio``
    subprocesses speaking a JSON-lines request/response protocol (v2:
    ``preload`` ships each shared-trace group's ``.rtrace`` bytes once,
    ``batch-run`` dispatches a whole chunk per round trip, ``stats``
    exposes serving counters).  The pool outlives individual
    ``execute()`` calls — campaign resumes and repeated runs reuse live
    workers and their pinned traces — and preloading frees points from
    group affinity, so oversized groups split across idle workers.
    Point-level retry/timeout fault tolerance as before.  The pool's
    workers are local subprocesses, driven over their stdin/stdout
    (:mod:`repro.dist.transport`).

Beside the backends sit shared-filesystem **job directories**
(:mod:`repro.dist.dirqueue`): a packager writes ``manifest.json`` plus
one ``.rtrace`` per (bench, seed), any number of workers (any hosts)
claim points via atomic rename and write partial stores, and a merger
folds them back deterministically.  ``repro-sim dist
package|worker|status|merge`` drive them across hosts; they are the one
way to run points on another host.

Quickstart::

    from repro.analysis.campaign import expand_grid, run_campaign

    points = expand_grid(["gcc", "li"], ["modulo", "general-balance"])
    run = run_campaign(points, workers=2, backend="worker")

    # Multi-host, over a shared filesystem:
    from repro import dist
    dist.package_job(points, "/shared/job-1")
    # ... on each host:   repro-sim dist worker /shared/job-1
    merged = dist.merge_job("/shared/job-1", store="results.json")
"""

from .backends import (
    ExecutionBackend,
    Payload,
    ProcessBackend,
    SerialBackend,
    WorkerState,
    available_backends,
    backend,
    backend_description,
    coerce_jobs,
    jobs_from_env,
    register_backend,
    run_group,
)
from .dirqueue import (
    JobStatus,
    MergedJob,
    PackagedJob,
    claim_point,
    default_worker_id,
    job_status,
    load_manifest_points,
    merge_job,
    package_job,
    requeue_lost,
    run_worker,
    trace_filename,
)
from .transport import (
    LineChannel,
    PeerClosed,
    PeerTimeout,
    StdioTransport,
    TransportError,
)
from .worker import (
    PROTOCOL_VERSION,
    WorkerBackend,
    WorkerPool,
    handle_request,
    serve_stdio,
    shared_pool,
    shutdown_shared_pools,
    stdio_worker_command,
    worker_environment,
)

__all__ = [
    "ExecutionBackend",
    "Payload",
    "ProcessBackend",
    "SerialBackend",
    "WorkerState",
    "available_backends",
    "backend",
    "backend_description",
    "coerce_jobs",
    "jobs_from_env",
    "register_backend",
    "run_group",
    "JobStatus",
    "MergedJob",
    "PackagedJob",
    "claim_point",
    "default_worker_id",
    "job_status",
    "load_manifest_points",
    "merge_job",
    "package_job",
    "requeue_lost",
    "run_worker",
    "trace_filename",
    "LineChannel",
    "PeerClosed",
    "PeerTimeout",
    "StdioTransport",
    "TransportError",
    "PROTOCOL_VERSION",
    "WorkerBackend",
    "WorkerPool",
    "handle_request",
    "serve_stdio",
    "shared_pool",
    "shutdown_shared_pools",
    "stdio_worker_command",
    "worker_environment",
]

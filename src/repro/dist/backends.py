"""Execution-backend interface and registry, the in-process backends,
and the one point executor every backend ends in.

An :class:`ExecutionBackend` takes an ordered list of
:class:`~repro.spec.RunSpec` points and returns one
``(index, result, error, timing)`` entry per point — exactly the payload
the campaign engine folds into
:class:`~repro.analysis.campaign.CampaignResults`.  Backends register
under a name (mirroring the steering-scheme and machine registries) and
resolve through :func:`backend`::

    from repro.dist import backend
    payload = backend("process").execute(points, jobs=4)

Two contracts every backend honours:

* **determinism** — results are point-for-point identical to the
  ``serial`` backend; distribution is an optimisation, never a semantic;
* **trace grouping** — points are dispatched in their
  ``(bench, seed)`` shared-trace groups
  (:func:`~repro.analysis.campaign.grouped_points`), so each workload
  trace is generated at most once per executing process.

Wherever a point runs (here, a pool child, a protocol or job-directory
worker) it runs through :func:`run_group`.  The ``serial`` and
``process`` backends live here; the subprocess ``worker`` backend
(JSON-lines protocol) is registered lazily from its own module.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..pipeline import SimResult
from ..spec.specs import RunSpec

#: What every backend returns: one ``(index, result, error, timing)``
#: entry per input point, in any order, always four fields.  A failed
#: point has a traceback/description ``error`` and ``None`` result and
#: timing; a completed one has the timing dict (``elapsed_seconds``,
#: plus ``resolve_seconds`` / ``simulate_seconds`` unless memo-served).
Payload = List[
    Tuple[int, Optional[SimResult], Optional[str], Optional[dict]]
]


def coerce_jobs(value, source: str = "jobs") -> int:
    """Validate a worker count from any origin (CLI, env var, API).

    Accepts integers and integer-valued strings; anything non-integer or
    non-positive raises :class:`~repro.errors.ConfigError` naming
    *source*, so a bad ``REPRO_BENCH_JOBS=lots`` fails with a clear
    message instead of a traceback from inside an executor.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(
            f"{source} must be a positive integer, got {value!r}"
        )
    try:
        jobs = int(value)
    except ValueError:
        raise ConfigError(
            f"{source} must be a positive integer, got {value!r}"
        ) from None
    if jobs < 1:
        raise ConfigError(
            f"{source} must be a positive integer, got {jobs}"
        )
    return jobs


def _from_env(name: str, default, coerce):
    """*coerce* applied to the environment variable *name*, or *default*
    when it is unset or blank; errors name the variable."""
    text = os.environ.get(name)
    if text is None or text.strip() == "":
        return default
    return coerce(text.strip(), source=f"environment variable {name}")


def jobs_from_env(name: str, default: int = 1) -> int:
    """Worker count from the environment variable *name* (validated)."""
    return _from_env(name, default, coerce_jobs)


def coerce_timeout(value, source: str = "timeout") -> Optional[float]:
    """Validate a reply-timeout value from any origin (CLI, env, API).

    ``None`` (and the strings ``"none"`` / ``"inf"``, so the CLI and
    environment can express it) means *wait forever*.  Anything else
    must parse as a positive number of seconds; violations raise
    :class:`~repro.errors.ConfigError` naming *source*, mirroring
    :func:`coerce_jobs`.
    """
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", "none", "inf", "infinity"):
            return None
        value = text
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(
            f"{source} must be a positive number of seconds or none, "
            f"got {value!r}"
        )
    try:
        timeout = float(value)
    except ValueError:
        raise ConfigError(
            f"{source} must be a positive number of seconds or none, "
            f"got {value!r}"
        ) from None
    if not timeout > 0:
        raise ConfigError(
            f"{source} must be a positive number of seconds or none, "
            f"got {timeout:g}"
        )
    return timeout


def coerce_retries(value, source: str = "retries") -> int:
    """Validate a retry count (additional attempts; zero is allowed)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(
            f"{source} must be a non-negative integer, got {value!r}"
        )
    try:
        retries = int(value)
    except ValueError:
        raise ConfigError(
            f"{source} must be a non-negative integer, got {value!r}"
        ) from None
    if retries < 0:
        raise ConfigError(
            f"{source} must be a non-negative integer, got {retries}"
        )
    return retries


def timeout_from_env(
    name: str = "REPRO_DIST_TIMEOUT", default: Optional[float] = None
) -> Optional[float]:
    """Reply timeout from the environment variable *name* (validated)."""
    return _from_env(name, default, coerce_timeout)


def retries_from_env(
    name: str = "REPRO_DIST_RETRIES", default: int = 1
) -> int:
    """Retry count from the environment variable *name* (validated)."""
    return _from_env(name, default, coerce_retries)


class ExecutionBackend:
    """One way of executing a campaign's points.

    Subclasses implement :meth:`execute`; ``name`` / ``description``
    feed the registry listing (``repro-sim dist backends``).
    """

    #: Registry name (set on registration for instances built there).
    name: str = "?"
    description: str = ""
    #: True when the backend can split one shared-trace group across
    #: several executors (e.g. after shipping the trace to each), so the
    #: engine may size parallelism by points rather than by groups.
    splits_groups: bool = False

    def execute(
        self, points: Sequence, jobs: int = 1
    ) -> Payload:
        """Run every point; never raises for individual point failures.

        Returns one ``(index, result, error, timing)`` entry per point.
        Point failures are reported as error strings; only
        infrastructure problems the backend cannot work around (e.g. an
        unreachable job directory) raise
        :class:`~repro.errors.DistError`.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register_backend(
    name: str, factory: Callable[..., ExecutionBackend], description: str
) -> None:
    """Register *factory* under *name* (rejecting duplicates)."""
    if name in _BACKENDS:
        raise ConfigError(
            f"execution backend {name!r} is already registered"
        )
    _BACKENDS[name] = factory
    _DESCRIPTIONS[name] = description


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def backend_description(name: str) -> str:
    """One-line description of the backend *name*."""
    if name not in _DESCRIPTIONS:
        backend(name)  # raises with the available list
    return _DESCRIPTIONS[name]


def backend(name: str, **options) -> ExecutionBackend:
    """Build the execution backend registered under *name*.

    Keyword *options* are backend-specific (``timeout=``, ``retries=``
    and ``pool=`` for ``worker``); unknown options raise ``TypeError``
    from the backend constructor.
    """
    if not isinstance(name, str):
        raise ConfigError(
            f"backend must be a name or ExecutionBackend, got {name!r}"
        )
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ConfigError(
            f"unknown execution backend {name!r}; available: {known}"
        ) from None
    instance = factory(**options)
    instance.name = name
    return instance


# ----------------------------------------------------------------------
# The point executor
# ----------------------------------------------------------------------
#: Most results a :class:`WorkerState` memoises (LRU).  Results are
#: small (a few dozen scalars), so this bounds memory without ever
#: evicting within one realistic campaign's working set.
RESULT_CACHE_LIMIT = 512


class WorkerState:
    """An executor's caches and counters, kept across :func:`run_group`
    calls by a protocol worker and a job-directory worker.

    ``traces`` maps ``(bench, seed)`` to ``(workload, usable_records)``,
    the traces a protocol worker pinned from ``preload`` requests;
    *usable_records* is the window the dispatcher promised the trace
    covers.  ``results`` is a bounded LRU of spec → result: execution is
    deterministic (the backends' core contract), so a spec served before
    — a repeated grid cell, a campaign re-run on a warm pool — comes from
    memory instead of being simulated again.  The counters feed the
    worker protocol's ``stats`` op.
    """

    def __init__(self) -> None:
        self.traces = collections.OrderedDict()
        self.results = collections.OrderedDict()
        self.points_served = 0
        self.batches = 0
        self.preloads = 0
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        self.result_cache_hits = 0

    def stats(self) -> Dict[str, object]:
        return {
            "pid": os.getpid(),
            "points_served": self.points_served,
            "batches": self.batches,
            "preloads": self.preloads,
            "preloaded_traces": len(self.traces),
            "pinned": [list(key) for key in self.traces],
            "trace_cache_hits": self.trace_cache_hits,
            "trace_cache_misses": self.trace_cache_misses,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_size": len(self.results),
        }


def run_group(
    group: Sequence[Tuple[int, RunSpec]],
    state: Optional[WorkerState] = None,
    held: Optional[dict] = None,
) -> Payload:
    """Run ``(index, RunSpec)`` pairs; one payload entry per point.

    Never raises: a failing point gets its own traceback as its error.
    A point served before comes from *state*'s memo; any other replays
    a pinned trace that covers its window, or the workload *held* keeps
    for its ``(bench, seed)``, or resolves the workload by name into
    *held*, so a group generates its workload once.  A fresh state and
    dict serve when none is given.

    The timing has ``elapsed_seconds``, plus, for a point that was
    simulated, ``resolve_seconds`` (the memo lookup, the workload —
    generated here when resolved by name — and the machine) and
    ``simulate_seconds`` (:func:`~repro.spec.facade.execute_resolved`).
    """
    from ..spec.facade import execute_resolved

    state = state if state is not None else WorkerState()
    held = held if held is not None else {}
    out: Payload = []
    for index, spec in group:
        t0 = time.perf_counter()
        memo_key = json.dumps(
            spec.to_dict(), sort_keys=True, separators=(",", ":")
        )
        result = state.results.get(memo_key)
        split = {}
        if result is not None:
            state.results.move_to_end(memo_key)
            state.result_cache_hits += 1
        else:
            try:
                wl = _workload_for(spec, state, held)
                config = spec.machine.resolve()
                t1 = time.perf_counter()
                result = execute_resolved(
                    wl,
                    spec.scheme,
                    config,
                    spec.n_instructions,
                    spec.warmup,
                    spec.seed,
                )
            except Exception:  # noqa: BLE001 — reported per point
                out.append((index, None, traceback.format_exc(), None))
                continue
            split = {
                "resolve_seconds": round(t1 - t0, 6),
                "simulate_seconds": round(time.perf_counter() - t1, 6),
            }
            state.results[memo_key] = result
            if len(state.results) > RESULT_CACHE_LIMIT:
                state.results.popitem(last=False)
        state.points_served += 1
        timing = {"elapsed_seconds": round(time.perf_counter() - t0, 6)}
        out.append((index, result, None, {**timing, **split}))
    return out


def _workload_for(spec: RunSpec, state: WorkerState, held: dict):
    """*spec*'s workload: a pinned trace covering its window, else the
    one *held* keeps, else resolved by name (and kept in *held*)."""
    from ..workloads import workload

    key = spec.trace_key
    pinned = state.traces.get(key)
    if pinned is not None and spec.warmup + spec.n_instructions <= pinned[1]:
        state.traces.move_to_end(key)
        state.trace_cache_hits += 1
        return pinned[0]
    state.trace_cache_misses += 1
    if key not in held:
        held[key] = workload(spec.bench, seed=spec.seed)
    return held[key]


# ----------------------------------------------------------------------
# In-process backends
# ----------------------------------------------------------------------
class SerialBackend(ExecutionBackend):
    """Run every shared-trace group in this process, one after another."""

    name = "serial"
    description = "in-process, one point at a time (the reference)"

    def execute(self, points, jobs: int = 1) -> Payload:
        from ..analysis.campaign import grouped_points

        out: Payload = []
        for group in grouped_points(points):
            out.extend(run_group(group))
        return out


class ProcessBackend(ExecutionBackend):
    """Fan shared-trace groups over a :class:`ProcessPoolExecutor`.

    Pool-level failures (fork unavailable, broken pool...) degrade to
    serial execution rather than failing the campaign: the engine's
    contract is that parallelism is an optimisation, never a
    requirement.
    """

    name = "process"
    description = "ProcessPoolExecutor over shared-trace groups"

    def execute(self, points, jobs: int = 1) -> Payload:
        from ..analysis.campaign import grouped_points
        from concurrent.futures import ProcessPoolExecutor

        jobs = coerce_jobs(jobs)
        groups = grouped_points(points)
        if jobs == 1 or len(groups) <= 1:
            return SerialBackend().execute(points)
        max_workers = min(jobs, len(groups))
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                payloads = list(pool.map(run_group, groups))
        except Exception as error:  # noqa: BLE001 — pool infrastructure
            # (run_group never raises: per-point errors come back as
            # strings, so anything caught here is pool machinery.)
            print(
                f"campaign: worker pool failed ({type(error).__name__}: "
                f"{error}); falling back to serial execution",
                file=sys.stderr,
            )
            payloads = [run_group(group) for group in groups]
        return [entry for payload in payloads for entry in payload]


def _register_builtin_backends() -> None:
    register_backend("serial", SerialBackend, SerialBackend.description)
    register_backend("process", ProcessBackend, ProcessBackend.description)

    def _worker_factory(**options):
        from .worker import WorkerBackend

        return WorkerBackend(**options)

    register_backend(
        "worker",
        _worker_factory,
        "warm pool of repro-sim subprocesses speaking the JSON-lines "
        "worker protocol v2 (trace preload, batched dispatch, "
        "retry/timeout)",
    )


_register_builtin_backends()

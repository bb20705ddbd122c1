"""The ``worker`` backend: warm worker pools + JSON-lines protocol v2.

The backend dispatches campaign points to persistent
``repro-sim dist worker --stdio`` subprocesses speaking a line-oriented
JSON request/response protocol over stdin/stdout.  Since protocol v2
the dispatcher side is built around a :class:`WorkerPool` — a
*process-lifetime* pool of protocol workers that is shared across
``execute()`` calls and campaign resumes, so steady-state dispatch costs
a JSON round trip, not an interpreter spawn.  The pool is local to
one host; points reach other hosts through job directories
(:mod:`repro.dist.dirqueue`).

Protocol (one JSON document per line, UTF-8):

* request ``{"id": N, "op": "preload", "bench": B, "seed": S,
  "records": R, "rtrace": <base64>}`` — ships one ``(bench, seed)``
  group's exported ``.rtrace`` bytes; the worker pins the decoded
  :class:`~repro.scenarios.rtrace.FrozenTrace` so every later point of
  that group replays the recorded committed path with zero
  regeneration.  A worker pins at most :data:`TRACE_PIN_LIMIT`
  traces, least recently used first out, and the reply's ``evicted``
  lists the ``[bench, seed]`` pins this preload displaced.  The usual
  magic/CRC guards apply — corrupt payloads get an error reply and
  nothing is pinned;
* request ``{"id": N, "op": "batch-run", "specs": [{...}, ...]}`` —
  each spec is a :class:`~repro.spec.RunSpec` dict, executed through
  the :func:`repro.run` facade; one round trip serves a whole run of
  same-trace points.  The reply is
  ``{"id": N, "ok": true, "results": [...]}`` with one
  ``{"ok": ..., "result"/"error": ...}`` item per spec (the
  :class:`~repro.pipeline.SimResult` as a plain dict), so a broken
  point fails alone instead of poisoning its batch;
* request ``{"id": N, "op": "stats"}`` — serving counters: points
  served, batches, trace-cache hits/misses, result-cache hits, pinned
  traces;
* request ``{"id": N, "op": "ping"}`` — liveness check; the reply echoes
  the protocol version;
* request ``{"id": N, "op": "shutdown"}`` — acknowledged reply, then the
  worker exits.  Closing the worker's stdin (EOF) shuts it down too.

Execution inside a warm worker is cached at two levels, both justified
by the determinism contract (every backend point-for-point identical to
serial): a preloaded :class:`~repro.scenarios.rtrace.FrozenTrace` is
replayed for any spec its recorded window covers, and a spec the worker
has already served is answered from a bounded result memo without
re-simulating — so re-running a campaign against a warm pool costs one
JSON round trip per batch, which is the entire point of keeping the
pool alive.  Both caches live in the worker's
:class:`~repro.dist.backends.WorkerState`, and a ``batch-run`` executes
its specs through :func:`~repro.dist.backends.run_group`, the executor
every backend shares.

Any failure to *execute* a point (unknown scheme, simulation error...)
is an ``{"ok": false, "error": traceback}`` reply — deterministic, so it
is never retried.  A malformed request (bad JSON, unknown op, a
``batch-run`` without ``specs``) also gets an error reply and the
worker keeps serving: one corrupt line must not poison a long-lived
worker.

Fault tolerance lives in the dispatcher: a worker that dies mid-batch or
exceeds the batch timeout is killed and replaced, and the batch is
retried (``retries`` times) on whichever worker next drains the queue —
safe precisely because execution is deterministic.  One chunk attempt
is :meth:`WorkerBackend._attempt`.  The dispatcher captures each
worker's stderr and attaches its tail to the failure messages, so a
crashing worker's traceback lands in the recorded error instead of
leaking to the console.

Because traces travel in-band, points are no longer affinity-bound to
the one worker that generated their workload: once a group's trace is
preloaded everywhere it is needed, an oversized group splits across idle
workers instead of idling them (``jobs`` above the group count now
helps rather than hurts).  Preloading also lifts the old scope limit on
runtime-registered workloads — the dispatcher exports whatever it can
resolve, so a trace registered via
:func:`repro.scenarios.register_trace` runs on protocol workers that
could never have resolved its name.

Two environment knobs exist purely for fault-injection tests and ops
drills: ``REPRO_DIST_CRASH_FLAG`` / ``REPRO_DIST_HANG_FLAG`` name flag
files; a protocol worker that sees its flag file before executing a
``batch-run`` (a job-directory worker: before executing a claimed point)
deletes the file and crashes (``os._exit``) or hangs
(``REPRO_DIST_HANG_SECONDS``, default 30) — exactly once, since the
flag is consumed.  The in-process backends never look at the flags.
"""

from __future__ import annotations

import atexit
import base64
import json
import os
import sys
import threading
import time
import traceback
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import DistError
from ..pipeline import SimResult
from ..telemetry import metrics, tracing
from .backends import (
    ExecutionBackend,
    Payload,
    WorkerState,
    coerce_jobs,
    coerce_retries,
    coerce_timeout,
    retries_from_env,
    run_group,
    timeout_from_env,
)
from .transport import LineChannel, PeerClosed, PeerTimeout, StdioTransport

#: Protocol major version, echoed by ``ping`` replies.  v2 added
#: ``preload`` / ``batch-run`` / ``stats`` on top of v1's ``run``.
#: Telemetry rides as *optional* fields on v2 messages — a ``trace``
#: context on requests, per-item timings and a ``spans`` list on
#: replies — all read with ``.get()`` on both ends, so old and new
#: peers interoperate and the version stays 2.
PROTOCOL_VERSION = 2


# ----------------------------------------------------------------------
# Worker side (runs inside `repro-sim dist worker --stdio`)
# ----------------------------------------------------------------------
def _fault_injection() -> None:
    """Consume a crash/hang flag file if one is configured and present."""
    crash = os.environ.get("REPRO_DIST_CRASH_FLAG")
    if crash and os.path.exists(crash):
        os.remove(crash)
        os._exit(3)
    hang = os.environ.get("REPRO_DIST_HANG_FLAG")
    if hang and os.path.exists(hang):
        os.remove(hang)
        time.sleep(float(os.environ.get("REPRO_DIST_HANG_SECONDS", "30")))


#: Most traces a worker keeps pinned (LRU by preload or use).  Two
#: seeds of the eight-bench ``paper-table1`` grid fit on one worker, so
#: a warm re-run of one campaign still skips its preloads, while a
#: many-seed study no longer grows every worker by each seed's traces.
TRACE_PIN_LIMIT = 16


def _handle_preload(request: dict, state: WorkerState) -> dict:
    from ..scenarios.rtrace import import_trace_bytes

    missing = [
        field
        for field in ("bench", "seed", "records", "rtrace")
        if field not in request
    ]
    if missing:
        raise ValueError(f"preload request is missing {', '.join(missing)}")
    bench = str(request["bench"])
    seed = int(request["seed"])
    # Pin under the *requested* name: a dispatcher-side workload
    # registered under a different name than its recorded trace (via
    # register_trace) must still hit the cache for that name's points.
    # Every batch-run over this (bench, seed) group indexes the pinned
    # trace columns.
    wl = import_trace_bytes(
        base64.b64decode(request["rtrace"]),
        name=bench,
        origin="preload payload",
    )
    if wl.seed != seed:
        raise DistError(
            f"preload payload records seed {wl.seed}, "
            f"but the request names seed {seed}"
        )
    usable = int(request["records"])
    traces = state.traces
    traces[(bench, seed)] = (wl, usable)
    traces.move_to_end((bench, seed))
    evicted = []
    while len(traces) > TRACE_PIN_LIMIT:
        evicted.append(list(traces.popitem(last=False)[0]))
    state.preloads += 1
    return {
        "bench": bench, "seed": seed, "records": usable, "evicted": evicted,
    }


def _handle_batch_run(request: dict, state: WorkerState) -> dict:
    """Run a ``batch-run``'s specs through :func:`run_group`.

    A spec that does not decode fails alone, as its own error item.
    """
    from ..spec.specs import RunSpec

    specs = request.get("specs")
    if not isinstance(specs, list):
        raise ValueError("batch-run request needs a 'specs' list")
    # The optional trace context: absent from old dispatchers, ignored
    # by old workers — the version stays 2 either way.
    span = tracing.start_span(
        "worker.batch",
        parent=request.get("trace"),
        pid=os.getpid(),
        points=len(specs),
    )
    _fault_injection()
    items: List[Optional[dict]] = [None] * len(specs)
    group = []
    for index, spec in enumerate(specs):
        try:
            group.append((index, RunSpec.from_dict(spec)))
        except Exception:  # noqa: BLE001 — per-point error item
            items[index] = {"ok": False, "error": traceback.format_exc()}
    for index, result, error, timing in run_group(group, state):
        items[index] = (
            {"ok": False, "error": error} if error is not None
            else {"ok": True, "result": result.to_dict(), **timing}
        )
    state.batches += 1
    failed = sum(1 for item in items if not item["ok"])
    if failed:
        span.annotate(failed=failed)
    record = span.end()
    reply = {"results": items}
    if request.get("trace") is not None:
        # Ride the reply so the dispatcher's log holds the worker's own
        # span too (recorded on both ends).
        reply["spans"] = [record]
    return reply


def handle_request(
    line: str, state: WorkerState
) -> Tuple[dict, bool]:
    """Process one protocol line; returns ``(reply, keep_serving)``.

    Never raises: every failure mode becomes an error reply so the
    dispatcher can tell a *point* failure (deterministic, reported) from
    a *worker* failure (process death, retried).  Bad JSON, an unknown
    op or a handler's exception becomes an ``{"ok": false, "error":
    traceback}`` reply and serving goes on: one corrupt line must not
    poison a long-lived worker.  *state* carries the trace cache, the
    result memo and the counters between requests.
    """
    request_id = None
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError(f"request must be an object, got {request!r}")
        request_id = request.get("id")
        op = request.get("op")
        if op == "shutdown":
            return {"id": request_id, "ok": True, "bye": True}, False
        if op == "ping":
            fields = {"protocol": PROTOCOL_VERSION}
        elif op == "stats":
            fields = {"protocol": PROTOCOL_VERSION, **state.stats()}
        elif op == "preload":
            fields = _handle_preload(request, state)
        elif op == "batch-run":
            fields = _handle_batch_run(request, state)
        else:
            raise ValueError(f"unknown op {op!r}")
        return {"id": request_id, "ok": True, **fields}, True
    except Exception:  # noqa: BLE001 — every failure becomes a reply
        return {
            "id": request_id, "ok": False, "error": traceback.format_exc(),
        }, True


def serve_stdio(stdin=None, stdout=None) -> int:
    """Worker main loop: read requests line by line until EOF/shutdown."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    state = WorkerState()
    for line in stdin:
        if not line.strip():
            continue
        reply, keep_serving = handle_request(line, state)
        stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        stdout.flush()
        if not keep_serving:
            break
    return 0


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
def worker_environment() -> Dict[str, str]:
    """Environment for spawned workers: this repro on the PYTHONPATH.

    The dispatcher may itself run from a source checkout that is not
    installed; workers must import the same code.
    """
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src if not existing else src + os.pathsep + existing
    )
    return env


def stdio_worker_command() -> List[str]:
    """Argv for one protocol worker subprocess."""
    return [sys.executable, "-m", "repro.cli", "dist", "worker", "--stdio"]


class _PoolWorker(LineChannel):
    """One pool slot's protocol channel plus its preload ledger."""

    def __init__(self, transport):
        super().__init__(transport)
        #: (bench, seed) -> usable records pinned on this worker; owned
        #: by the dispatcher thread currently driving the worker.
        self.preloaded: Dict[Tuple[str, int], int] = {}


# ----------------------------------------------------------------------
# Warm pools
# ----------------------------------------------------------------------
class WorkerPool:
    """A reusable fleet of protocol workers plus their preload caches.

    The pool owns three things the old spawn-per-execute backend paid
    for on every dispatch:

    * the worker subprocesses themselves (``spawned_total`` counts every
      spawn over the pool's lifetime, so tests can assert a second
      ``execute()`` spawned zero);
    * the dispatcher-side **trace payload cache** — each ``(bench,
      seed)`` group's ``.rtrace`` bytes are exported and base64-encoded
      once per campaign, then shipped to however many workers need
      them (:meth:`WorkerBackend.execute` releases its groups' payloads
      when it returns, so the cache holds only campaigns in flight);
    * each worker's record of what it already holds
      (:attr:`_PoolWorker.preloaded`), so re-running a campaign
      re-sends nothing.

    Workers live in *slots*: slot *i* is driven by dispatcher thread *i*
    during an ``execute()``, and a worker that dies is replaced in its
    slot on demand.  Pools are cheap to create empty — processes only
    spawn when :meth:`ensure` / :meth:`worker_at` need them.
    """

    def __init__(self, command: Optional[Sequence[str]] = None):
        self.command = list(command) if command else stdio_worker_command()
        self.spawned_total = 0
        self._workers: List[Optional[_PoolWorker]] = []
        self._lock = threading.Lock()
        self._slot_locks: Dict[int, threading.RLock] = {}
        self._payloads: Dict[Tuple[str, int], Tuple[int, Optional[str]]] = {}
        self._payload_lock = threading.Lock()
        #: Payloads exported over the pool's lifetime (``stats()``).
        self.payloads_built = 0

    # -- worker lifecycle ----------------------------------------------
    def slot_lock(self, slot: int) -> threading.RLock:
        """The per-slot request lock.

        A slot's channel matches replies to requests by id, so only one
        thread may run a request cycle on it at a time.  Dispatcher
        threads hold their slot's lock per chunk; :meth:`stats`
        try-acquires it and skips a busy slot instead of corrupting the
        stream.
        """
        with self._lock:
            lock = self._slot_locks.get(slot)
            if lock is None:
                lock = self._slot_locks[slot] = threading.RLock()
            return lock

    def ensure(self, n: int) -> None:
        """Grow the pool to at least *n* live workers."""
        for slot in range(n):
            self.worker_at(slot)

    def worker_at(self, slot: int) -> _PoolWorker:
        """The live worker in *slot*, spawning one if needed."""
        with self._lock:
            while len(self._workers) <= slot:
                self._workers.append(None)
            worker = self._workers[slot]
            if worker is None or not worker.alive():
                if worker is not None:
                    worker.close()
                    self._workers[slot] = None
                self.spawned_total += 1
                worker = _PoolWorker(
                    StdioTransport(self.command, env=worker_environment())
                )
                self._workers[slot] = worker
            return worker

    def discard(self, slot: int) -> None:
        """Close and forget the worker in *slot* (it died or hung)."""
        with self._lock:
            if slot < len(self._workers) and self._workers[slot] is not None:
                self._workers[slot].close()
                self._workers[slot] = None

    def shutdown(self) -> None:
        """Stop every worker and empty the pool."""
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            if worker is None:
                continue
            try:
                if worker.alive():
                    worker.request("shutdown", timeout=2)
            except (PeerClosed, PeerTimeout):
                pass
            worker.close()

    # -- trace payloads ------------------------------------------------
    def trace_payload(
        self, key: Tuple[str, int], needed: int
    ) -> Optional[Tuple[int, str]]:
        """``(records, base64)`` for group *key*, exported at most once
        until :meth:`release_payloads` drops it.

        Returns ``None`` when the dispatcher cannot materialise the
        trace (unknown bench, generator error...) — the worker then
        falls back to by-name resolution, which reports the same
        problem deterministically if it is real.  Failed exports are
        cached too, so a campaign over an unresolvable bench does not
        re-attempt the export per chunk.  The workload is held only for
        the export: once its bytes are encoded, the dispatcher keeps
        no program or trace for the group.
        """
        bench, seed = key
        with self._payload_lock:
            cached = self._payloads.get(key)
            if cached is not None and cached[0] >= needed:
                return None if cached[1] is None else cached
            self.payloads_built += 1
            try:
                from ..scenarios.rtrace import export_trace_bytes
                from ..workloads import workload

                data, _ = export_trace_bytes(
                    workload(bench, seed=seed), needed
                )
            except Exception:  # noqa: BLE001 — preload is best-effort
                self._payloads[key] = (needed, None)
                return None
            entry = (needed, base64.b64encode(data).decode("ascii"))
            self._payloads[key] = entry
            return entry

    def release_payloads(self, keys) -> None:
        """Drop the cached payloads of the groups *keys*.

        Workers keep the traces already pinned on them; a later campaign
        over one of these groups exports its payload again only for a
        worker that does not hold the trace.
        """
        with self._payload_lock:
            for key in keys:
                self._payloads.pop(key, None)

    # -- observability -------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Pool totals plus each live worker's ``stats`` op reply.

        Every entry carries its ``slot``; a slot busy serving a
        dispatcher thread is reported ``busy`` instead of having its
        reply stream corrupted.  ``trace_payloads`` counts the payloads
        built over the pool's lifetime: across one campaign it grows by
        one per group no worker already held.  ``payloads_cached``
        counts those cached now, which is 0 once every campaign has
        finished.
        """
        per_worker: List[Dict[str, object]] = []
        with self._lock:
            workers = list(enumerate(self._workers))
        for slot, worker in workers:
            if worker is None or not worker.alive():
                continue
            lock = self.slot_lock(slot)
            if not lock.acquire(timeout=0.5):
                per_worker.append({"slot": slot, "busy": True})
                continue
            try:
                reply = worker.request("stats", timeout=10)
            except (PeerClosed, PeerTimeout):
                continue
            finally:
                lock.release()
            if reply.get("ok"):
                per_worker.append({
                    "slot": slot,
                    **{k: v for k, v in reply.items()
                       if k not in ("id", "ok")},
                })
        def total(field: str) -> int:
            return sum(int(w.get(field, 0)) for w in per_worker)

        return {
            "spawned_total": self.spawned_total,
            "trace_payloads": self.payloads_built,
            "payloads_cached": len(self._payloads),
            "points_served": total("points_served"),
            "batches": total("batches"),
            "preloads": total("preloads"),
            "trace_cache_hits": total("trace_cache_hits"),
            "trace_cache_misses": total("trace_cache_misses"),
            "result_cache_hits": total("result_cache_hits"),
            "workers": per_worker,
        }


#: Process-lifetime pools shared by every pool-less WorkerBackend, keyed by
#: worker argv so test backends with injected commands never share
#: workers.  Torn down atexit.
_SHARED_POOLS: Dict[Tuple[str, ...], WorkerPool] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def shared_pool(command: Optional[Sequence[str]] = None) -> WorkerPool:
    """The process-wide :class:`WorkerPool` for *command* (created lazily).

    This is what makes the backend warm across ``execute()`` calls,
    campaign resumes and repeated :func:`repro.run` invocations in one
    process: every ``WorkerBackend`` without an explicit ``pool``
    resolves to the same pool, whose workers and preloaded traces
    survive between campaigns.
    """
    argv = tuple(command) if command else tuple(stdio_worker_command())
    with _SHARED_POOLS_LOCK:
        pool = _SHARED_POOLS.get(argv)
        if pool is None:
            pool = WorkerPool(list(argv))
            _SHARED_POOLS[argv] = pool
        return pool


def shutdown_shared_pools() -> None:
    """Stop every shared pool's workers (registered atexit)."""
    with _SHARED_POOLS_LOCK:
        pools = list(_SHARED_POOLS.values())
        _SHARED_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shared_pools)


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
#: Distinguishes "argument not given" (fall back to the environment
#: knob) from an explicit ``timeout=None`` (wait forever).
_UNSET = object()

#: A unit of dispatch: one same-trace chunk plus its retry count and the
#: trace context of the attempt that failed before it (``None`` for a
#: first attempt) — a retry's dispatch span nests under the failure it
#: is retrying, so ``trace show`` renders retries as child spans.
_Chunk = Tuple[
    int, Tuple[str, int], int, List[Tuple[int, object]], Optional[dict]
]


class _TaskBoard:
    """Per-slot chunk lists with work stealing.

    Each dispatcher thread drains its own slot's list first (keeping
    chunk→worker affinity deterministic run over run, which is what
    makes the workers' caches effective on a re-run) and steals from
    the fullest other slot once its own is empty.  A slot is open to
    stealing only after its own thread has called :meth:`take`, so a
    thread that starts late still gets its first chunk.
    """

    def __init__(self, n_slots: int):
        self._pending: List[List[_Chunk]] = [[] for _ in range(n_slots)]
        self._started = [False] * n_slots
        self._lock = threading.Lock()

    def put(self, slot: int, chunk: _Chunk) -> None:
        with self._lock:
            self._pending[slot].append(chunk)

    def take(self, slot: int) -> Optional[_Chunk]:
        with self._lock:
            self._started[slot] = True
            if self._pending[slot]:
                return self._pending[slot].pop(0)
            open_lists = [
                pending
                for pending, started in zip(self._pending, self._started)
                if started
            ]
            victim = max(open_lists, key=len)
            return victim.pop() if victim else None


def _chunks_for_groups(
    groups: Sequence[Sequence[Tuple[int, object]]], n_workers: int
) -> List[_Chunk]:
    """Split shared-trace groups into dispatchable same-trace chunks.

    Each chunk stays inside one ``(bench, seed)`` group (one preload
    covers it), but a group larger than its fair share is split so idle
    workers help instead of watching — the fix for the jobs>groups
    inversion.  The chunk count per group is proportional to the
    group's weight in the grid, at least 1, at most the group size.
    """
    total = sum(len(group) for group in groups)
    chunks: List[_Chunk] = []
    for group in groups:
        needed = max(
            point.warmup + point.n_instructions for _, point in group
        )
        key = group[0][1].trace_key
        n_chunks = max(1, round(n_workers * len(group) / total))
        n_chunks = min(n_chunks, len(group))
        base, extra = divmod(len(group), n_chunks)
        start = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            chunks.append(
                (0, key, needed, list(group[start:start + size]), None)
            )
            start += size
    return chunks


class _Attempt(NamedTuple):
    """How one chunk attempt ended (:meth:`WorkerBackend._attempt`).

    Exactly one of *items* (done: one reply item per point), *retry*
    (the task to queue again) and *error* (failed: the message for every
    point) is set.
    """

    items: Optional[List[dict]] = None
    retry: Optional[_Chunk] = None
    error: Optional[str] = None


#: Per-point timing fields a ``batch-run`` reply item may carry.
_TIMING_KEYS = ("elapsed_seconds", "resolve_seconds", "simulate_seconds")


def _reply_entry(index: int, item: Optional[dict]):
    """The backend payload entry for point *index* from its reply item."""
    if item and item.get("ok"):
        timing = {k: item[k] for k in _TIMING_KEYS if k in item}
        return (
            index, SimResult.from_dict(item["result"]), None, timing or None,
        )
    return (
        index, None, str((item or {}).get("error", "worker error reply")),
        None,
    )


class WorkerBackend(ExecutionBackend):
    """Dispatch points to a warm pool of protocol workers.

    Parameters
    ----------
    timeout:
        Per-point reply timeout in seconds (``None`` = wait forever).
        Batches get ``timeout * len(batch)``; a timed-out worker is
        killed and the batch retried.  Defaults to the
        ``REPRO_DIST_TIMEOUT`` environment knob (itself default
        "no timeout").
    retries:
        How many *additional* attempts a chunk of points gets after a
        worker death or timeout.  Error replies are deterministic
        failures and are never retried.  Defaults to the
        ``REPRO_DIST_RETRIES`` environment knob (itself default 1).
    command:
        Override the worker argv (tests inject crashing commands).
    pool:
        The :class:`WorkerPool` to dispatch through; the caller owns its
        lifetime.  Without one, the process-lifetime :func:`shared_pool`
        for *command* serves, so its workers and preloaded traces
        persist across ``execute()`` calls.
    """

    name = "worker"
    #: Preloaded traces free points from group affinity, so the engine
    #: may size parallelism by points, not by shared-trace groups.
    splits_groups = True

    def __init__(
        self,
        timeout=_UNSET,
        retries=_UNSET,
        command: Optional[Sequence[str]] = None,
        pool: Optional[WorkerPool] = None,
    ):
        self.timeout = (
            timeout_from_env() if timeout is _UNSET
            else coerce_timeout(timeout)
        )
        self.retries = (
            retries_from_env() if retries is _UNSET
            else coerce_retries(retries)
        )
        self.command = list(command) if command else stdio_worker_command()
        self.pool = pool

    def execute(self, points, jobs: int = 1) -> Payload:
        from ..analysis.campaign import grouped_points

        jobs = coerce_jobs(jobs)
        groups = grouped_points(points)
        if not groups:
            return []
        n_workers = min(jobs, len(points))
        pool = self.pool or shared_pool(self.command)
        # Chunk i is affine to slot i % n_workers: re-running the same
        # grid sends each spec back to the worker that served it last
        # time (whose memo and pinned trace cover it).  Idle dispatcher
        # threads steal from the busiest slot, so affinity never leaves
        # a worker idle while work remains.
        tasks = _TaskBoard(n_workers)
        for i, chunk in enumerate(_chunks_for_groups(groups, n_workers)):
            tasks.put(i % n_workers, chunk)
        entries: Dict[int, tuple] = {}
        # The ambient campaign span, captured on this thread — drain
        # threads get its wire context explicitly (thread-locals do not
        # cross thread starts).
        parent_ctx = tracing.current_context()
        try:
            pool.ensure(n_workers)
            threads = [
                threading.Thread(
                    target=self._drain,
                    args=(pool, slot, tasks, entries, parent_ctx),
                )
                for slot in range(n_workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            pool.release_payloads(group[0][1].trace_key for group in groups)
        indexes = [index for group in groups for index, _ in group]
        missing = [index for index in indexes if index not in entries]
        if missing:
            raise DistError(
                f"worker backend lost {len(missing)} point(s) "
                f"(indexes {missing[:5]}...)"
            )
        return [entries[index] for index in indexes]

    # ------------------------------------------------------------------
    def _preload(
        self,
        pool: WorkerPool,
        worker: _PoolWorker,
        key: Tuple[str, int],
        needed: int,
        parent: Optional[tracing.Span] = None,
    ) -> None:
        """Pin *key*'s trace on *worker* unless it already covers it.

        Export failures downgrade to by-name resolution; worker
        death/timeout propagates so the chunk is retried like any other
        worker failure.  When a preload is actually sent it gets its own
        span under the dispatch span, so ``trace show`` attributes
        first-touch trace-shipping cost separately from the batch.
        """
        if worker.preloaded.get(key, -1) >= needed:
            return
        payload = pool.trace_payload(key, needed)
        if payload is None:
            return
        records, encoded = payload
        span = tracing.start_span(
            "preload", parent=parent, bench=key[0], seed=key[1],
            records=records,
        )
        try:
            reply = worker.request(
                "preload",
                timeout=self.timeout,
                trace=span.context(),
                bench=key[0],
                seed=key[1],
                records=records,
                rtrace=encoded,
            )
        except Exception as err:
            span.end(status="error", error=str(err))
            raise
        span.end()
        if reply.get("ok"):
            worker.preloaded[key] = records
            for bench, seed in reply.get("evicted", ()):
                worker.preloaded.pop((bench, seed), None)

    def _attempt(self, pool, slot, task: _Chunk, parent) -> _Attempt:
        """One attempt at *task* on the worker in *slot*.

        The attempt is one ``dispatch`` span: a first attempt hangs off
        *parent*, a retry off the failed attempt's span, so the trace
        tree shows which failure each retry answered.  Under the slot
        lock it preloads the chunk's trace and sends one ``batch-run``
        whose span context makes the worker's own span its child.  A
        worker that dies or times out is discarded and the chunk comes
        back as a retry until ``retries`` extra attempts are spent; an
        ``ok: false`` reply is deterministic and fails the chunk at once.
        """
        attempts, key, needed, chunk, retry_of = task
        span = tracing.start_span(
            "dispatch",
            parent=retry_of or parent,
            slot=slot,
            attempt=attempts + 1,
            bench=key[0],
            seed=key[1],
            points=len(chunk),
        )
        batch_span = None
        try:
            worker = pool.worker_at(slot)
            with pool.slot_lock(slot):
                self._preload(pool, worker, key, needed, parent=span)
                batch_span = span.child("batch-run", points=len(chunk))
                reply = worker.request(
                    "batch-run",
                    timeout=(
                        self.timeout * len(chunk)
                        if self.timeout is not None
                        else None
                    ),
                    trace=batch_span.context(),
                    specs=[point.to_dict() for _, point in chunk],
                )
        except (PeerClosed, PeerTimeout) as err:
            pool.discard(slot)
            error = f"{type(err).__name__}: {err}"
            if batch_span is not None:
                batch_span.end(status="error", error=error)
            span.end(status="error", error=error)
            if attempts < self.retries:
                metrics.counter("dispatch.retries_total").inc()
                return _Attempt(
                    retry=(attempts + 1, key, needed, chunk, span.context())
                )
            return _Attempt(
                error=(
                    f"worker failed after {attempts + 1} attempt(s): "
                    f"{error} [trace {span.trace_id}]"
                )
            )
        # Worker-side spans ride the reply; record them here so the
        # dispatcher's log holds the whole tree even when the worker's
        # own sink is off.
        for record in reply.get("spans") or ():
            tracing.record_span(record)
        if not reply.get("ok"):
            error = str(reply.get("error", "worker error reply"))
            batch_span.end(status="error", error=error)
            span.end(status="error", error=error)
            return _Attempt(error=error)
        batch_span.end()
        span.end()
        return _Attempt(items=reply.get("results") or [])

    def _drain(self, pool, slot, tasks, entries, parent_ctx) -> None:
        """One dispatcher thread: attempt *slot*'s chunks until none remain."""
        while True:
            task = tasks.take(slot)
            if task is None:
                return
            outcome = self._attempt(pool, slot, task, parent_ctx)
            if outcome.retry is not None:
                # Back on this slot's list, for its replacement worker
                # or a stealing peer.
                tasks.put(slot, outcome.retry)
            elif outcome.error is not None:
                for index, _ in task[3]:
                    entries[index] = (index, None, outcome.error, None)
            else:
                for (index, _), item in zip(task[3], outcome.items):
                    entries[index] = _reply_entry(index, item)

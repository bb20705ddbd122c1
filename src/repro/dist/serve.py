"""Simulation as a service: the ``repro-sim dist serve`` daemon.

The daemon owns one shared :class:`~repro.dist.worker.WorkerPool`
(local subprocess workers and/or remote ``--listen`` workers adopted by
address) and admits simulation jobs from many concurrent clients:

* a **socket API** — a JSON-lines request/reply protocol (one document
  per line, id-matched, exactly like the worker protocol) carrying
  ``submit`` / ``collect`` / ``status`` / ``ping`` / ``shutdown`` ops;
* a **watched job directory** — any ``dist package``-format job
  directory dropped under ``--watch DIR`` is adopted: lost claims are
  re-queued, every point is claimed, executed on the shared fleet, and
  written back as a ``results/`` partial store so ``dist merge`` works
  unchanged.

Admission is **per-tenant fair share**: every submission names a tenant,
each tenant has a FIFO of dispatch chunks, and the
:class:`FairScheduler` drains them weighted-round-robin — a tenant with
weight *w* gets up to *w* consecutive chunks per turn, then the turn
rotates, so no backlog from one tenant can starve another's freshly
submitted job.

Fault model (each chunk goes through the same attempt as the ``worker``
backend's, :meth:`~repro.dist.worker.WorkerBackend._attempt`):

* a **worker death or timeout** mid-batch discards that worker and
  re-queues the chunk under its tenant (bounded by ``retries``); an
  unreachable remote worker costs no attempt and is retried patiently —
  submitting jobs *before* the fleet is up is supported, the daemon
  dispatches as workers appear;
* a **client disconnect** loses nothing: jobs live in the daemon, run
  to completion, and are held (bounded) for re-attach — ``collect`` by
  job id from a new connection returns the finished items;
* a **daemon restart** invalidates job ids (they embed the daemon pid);
  clients detect the unknown-job reply and resubmit — deterministic
  execution makes the replay safe, and still-warm listen-mode workers
  serve the resubmission from their caches.

Service protocol ops (one JSON object per line, ``{"id": N, "op": ...}``
requests, ``{"id": N, "ok": true/false, ...}`` replies):

* ``ping`` — liveness; echoes ``SERVICE_PROTOCOL_VERSION``;
* ``submit`` — ``{"tenant": T, "specs": [RunSpec dicts], "weight"?: W}``
  → ``{"job": id, "n_points": K}``;
* ``collect`` — ``{"job": id, "wait"?: seconds}`` → ``{"done": false,
  "remaining": R}`` or ``{"done": true, "items": [...]}`` with one
  ``{"ok": ..., "result"/"error": ...}`` item per submitted spec, in
  submission order;
* ``status`` — queue depths / served counts / weights per tenant, job
  counts, the recent dispatch log (tenant per dispatched chunk), and
  the pool's worker stats (transport/address columns included);
* ``shutdown`` — ``{"stop_workers"?: bool}``; acknowledged, then the
  daemon stops (``stop_workers`` also sends remote workers the
  ``shutdown`` op instead of leaving them listening).
"""

from __future__ import annotations

import collections
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, DistError
from ..telemetry import get_logger, metrics, tracing
from .backends import ExecutionBackend, Payload
from .dirqueue import (
    _drop_claim,
    _partial_store,
    _record_failure,
    _save_runs,
    _write_json,
    claim_point,
    requeue_lost,
)
from .transport import (
    LineChannel,
    PeerClosed,
    PeerTimeout,
    SocketTransport,
    answer_request,
    listen_socket,
    parse_address,
    serve_socket_connection,
)
from .worker import (
    _UNSET,
    WorkerBackend,
    WorkerPool,
    _chunks_for_groups,
    _reply_entry,
)

#: Service protocol major version, echoed by ``ping`` replies.
#: Telemetry rides as *optional* fields — a ``trace`` context on
#: ``submit`` requests, a ``spans`` list on finished ``collect``
#: replies — read with ``.get()`` on both ends, so the version is
#: unchanged and old peers interoperate.
SERVICE_PROTOCOL_VERSION = 1

_log = get_logger("dist.serve")

#: How many completed jobs the daemon retains for late ``collect``s.
_COMPLETED_JOBS_KEPT = 64

#: How many dispatched-chunk tenant entries the status op reports.
_DISPATCH_LOG_LIMIT = 200


def service_address_from_env(
    name: str = "REPRO_SERVICE_ADDRESS",
) -> Optional[str]:
    """The daemon address from the environment (``None`` when unset)."""
    text = os.environ.get(name)
    if text is None or text.strip() == "":
        return None
    address = text.strip()
    parse_address(address, source=f"environment variable {name}")
    return address


def service_tenant_from_env(
    name: str = "REPRO_SERVICE_TENANT",
) -> str:
    """The tenant name for submissions from this process.

    Falls back to the login user, then to ``"default"`` — fair share
    needs *a* stable identity per client, not a registered one.
    """
    text = os.environ.get(name)
    if text and text.strip():
        return text.strip()
    return os.environ.get("USER") or os.environ.get("USERNAME") or "default"


class ServiceError(DistError):
    """The daemon replied ``ok: false`` to a service request."""


# ----------------------------------------------------------------------
# Fair-share admission
# ----------------------------------------------------------------------
class FairScheduler:
    """Weighted round-robin across per-tenant FIFO queues.

    Each tenant owns a FIFO of work items.  ``pop`` serves the tenant
    whose turn it is for up to ``weight(tenant)`` consecutive items,
    then rotates to the next tenant with pending work — every tenant
    with a non-empty queue is visited once per rotation, so no tenant
    can be starved no matter how deep another's backlog is.  Within one
    tenant, items stay FIFO (a tenant's own jobs are served in
    submission order).

    Thread-safe; ``pop`` blocks (with optional timeout) until an item
    is available.
    """

    def __init__(self, default_weight: int = 1):
        self._default_weight = max(1, int(default_weight))
        self._queues: Dict[str, collections.deque] = {}
        self._weights: Dict[str, int] = {}
        self._dispatched: Dict[str, int] = {}
        self._order: List[str] = []
        self._cursor = -1
        self._credit = 0
        self._cond = threading.Condition()

    def weight(self, tenant: str) -> int:
        return self._weights.get(tenant, self._default_weight)

    def set_weight(self, tenant: str, weight) -> None:
        weight = int(weight)
        if weight < 1:
            raise ConfigError(
                f"tenant weight must be a positive integer, got {weight}"
            )
        with self._cond:
            self._weights[tenant] = weight

    def push(self, tenant: str, item) -> None:
        with self._cond:
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = collections.deque()
                self._order.append(tenant)
            queue.append(item)
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None):
        """``(tenant, item)`` for the next fair-share pick, or ``None``."""
        with self._cond:
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            while True:
                picked = self._pick()
                if picked is not None:
                    return picked
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def _pick(self):
        n = len(self._order)
        if n == 0:
            return None
        if self._credit <= 0:
            # Turn over: the next tenant in rotation gets a fresh credit
            # of `weight` consecutive picks.
            self._cursor = (self._cursor + 1) % n
            self._credit = self.weight(self._order[self._cursor])
        for step in range(n):
            index = (self._cursor + step) % n
            tenant = self._order[index]
            queue = self._queues.get(tenant)
            if not queue:
                continue
            if index != self._cursor:
                # The turn-holder had nothing pending; the turn passes.
                self._cursor = index
                self._credit = self.weight(tenant)
            item = queue.popleft()
            self._credit -= 1
            self._dispatched[tenant] = self._dispatched.get(tenant, 0) + 1
            return tenant, item
        return None

    def unpop(self, tenant: str, item) -> None:
        """Undo a ``pop`` whose item could not be run: the item goes back
        to the front of *tenant*'s queue, does not count as dispatched,
        and the turn keeps the credit the pop spent."""
        with self._cond:
            self._queues[tenant].appendleft(item)
            self._dispatched[tenant] -= 1
            if self._order[self._cursor] == tenant:
                self._credit += 1
            self._cond.notify()

    def depths(self) -> Dict[str, int]:
        """Pending items per tenant (tenants with history included)."""
        with self._cond:
            return {
                tenant: len(self._queues.get(tenant, ()))
                for tenant in self._order
            }

    def dispatched(self) -> Dict[str, int]:
        with self._cond:
            return dict(self._dispatched)

    def kick(self) -> None:
        """Wake every blocked ``pop`` (used on daemon shutdown)."""
        with self._cond:
            self._cond.notify_all()


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
class _Job:
    """One submission: its points, per-point reply items, done latch.

    ``items[i]`` is the protocol reply item for point *i* — a plain
    ``{"ok": true, "result": {...}}`` / ``{"ok": false, "error": ...}``
    dict, JSON-ready so ``collect`` replies ship it verbatim.  The job
    object *is* the unit of client-disconnect survival: it lives in the
    daemon, not the connection.

    *on_done* is called with the job once its last point is recorded,
    before :attr:`done` is set.
    """

    def __init__(
        self,
        job_id: str,
        tenant: str,
        points: Sequence,
        trace: Optional[dict] = None,
        on_done: Optional[Callable[["_Job"], None]] = None,
    ):
        self.id = job_id
        self.tenant = tenant
        self.points = list(points)
        #: The (bench, seed) groups whose trace payloads the job uses.
        self.trace_keys = frozenset(point.trace_key for point in self.points)
        self._on_done = on_done
        self.items: List[Optional[dict]] = [None] * len(self.points)
        self.remaining = len(self.points)
        self.done = threading.Event()
        self._lock = threading.Lock()
        # The job span is the daemon-side root of this submission's
        # trace: a child of the client's submit span when the request
        # carried a trace context, a local root otherwise.  Finished
        # span records accumulate for the ``collect`` reply so the
        # client's log reconstructs the daemon-side tree.
        self.traced = trace is not None
        self.failures = 0
        self.span = tracing.start_span(
            "job", parent=trace, job=job_id, tenant=tenant,
            points=len(self.points),
        )
        self.span_records: List[dict] = []
        if not self.points:
            self.span_records.append(self.span.end())
            self.done.set()

    def record(self, index: int, item: dict) -> int:
        """Store point *index*'s reply item; returns points newly done."""
        with self._lock:
            if self.items[index] is not None:
                return 0  # a duplicate retry landed; first write wins
            self.items[index] = item
            if not item.get("ok"):
                self.failures += 1
            self.remaining -= 1
            if self.remaining == 0:
                if self._on_done is not None:
                    self._on_done(self)
                self.span_records.append(self.span.end(
                    status="error" if self.failures else "ok",
                    error=(
                        f"{self.failures} point(s) failed"
                        if self.failures else None
                    ),
                ))
                self.done.set()
                metrics.counter("serve.jobs_completed_total").inc()
                _log.info(
                    "serve.job-done", job=self.id, tenant=self.tenant,
                    points=len(self.points), failures=self.failures,
                    trace_id=self.span.trace_id,
                )
            return 1

    def record_spans(self, records) -> None:
        """Append finished span records for the ``collect`` reply."""
        with self._lock:
            self.span_records.extend(records)

    def spans(self) -> List[dict]:
        with self._lock:
            return list(self.span_records)


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class ServeDaemon:
    """The dispatcher daemon behind ``repro-sim dist serve``.

    Parameters
    ----------
    address:
        ``HOST:PORT`` to listen on (port 0 binds an ephemeral port; read
        :attr:`address` back after :meth:`start`).
    jobs:
        Local subprocess workers to run in the shared pool.
    remote:
        ``HOST:PORT`` addresses of listen-mode workers to adopt.  The
        fleet size is ``jobs + len(remote)`` (minimum 1 local).
    watch:
        Optional directory to poll for ``dist package`` job directories.
    timeout / retries:
        Per-point reply timeout and chunk retry budget, defaulting to
        the ``REPRO_DIST_TIMEOUT`` / ``REPRO_DIST_RETRIES`` knobs.
    weights:
        Initial per-tenant fair-share weights (default weight is 1).
    """

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        jobs: int = 0,
        remote: Sequence[str] = (),
        watch: Optional[str] = None,
        timeout=_UNSET,
        retries=_UNSET,
        weights: Optional[Dict[str, int]] = None,
        heartbeat: float = 5.0,
        pool: Optional[WorkerPool] = None,
    ):
        self._listen_address = address
        self.remote = [str(a) for a in remote]
        for a in self.remote:
            parse_address(a, source="remote worker address")
        jobs = int(jobs)
        if jobs < 0:
            raise ConfigError(f"jobs must be >= 0, got {jobs}")
        if jobs == 0 and not self.remote:
            jobs = 1
        self.n_slots = jobs + len(self.remote)
        self.watch = watch
        self.heartbeat = float(heartbeat)
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(
            remote=self.remote
        )
        # The pool backend supplies the chunk attempt (preload,
        # batch-run, timeout, retries); the daemon replaces its task
        # board with the fair scheduler.
        self._backend = WorkerBackend(
            timeout=timeout, retries=retries, pool=self.pool
        )
        self.scheduler = FairScheduler()
        for tenant, weight in (weights or {}).items():
            self.scheduler.set_weight(tenant, weight)
        self.dispatch_log: collections.deque = collections.deque(
            maxlen=_DISPATCH_LOG_LIMIT
        )
        self._jobs: "collections.OrderedDict[str, _Job]" = (
            collections.OrderedDict()
        )
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        self._tenant_served: Dict[str, int] = {}
        self._stop = threading.Event()
        self._stop_remote_workers = False
        self._sock = None
        self._threads: List[threading.Thread] = []
        self._conn_threads: List[threading.Thread] = []
        self.address: Optional[str] = None
        self.started = time.monotonic()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServeDaemon":
        """Bind the socket and launch the serving threads."""
        self._sock = listen_socket(self._listen_address)
        host, port = self._sock.getsockname()[:2]
        self.address = f"{host}:{port}"
        self._threads = [
            threading.Thread(
                target=self._accept_loop, name="serve-accept", daemon=True
            )
        ]
        for slot in range(self.n_slots):
            self._threads.append(
                threading.Thread(
                    target=self._dispatch_loop,
                    args=(slot,),
                    name=f"serve-dispatch-{slot}",
                    daemon=True,
                )
            )
        if self.watch:
            self._threads.append(
                threading.Thread(
                    target=self._watch_loop, name="serve-watch", daemon=True
                )
            )
        if self.heartbeat > 0:
            self._threads.append(
                threading.Thread(
                    target=self._heartbeat_loop,
                    name="serve-heartbeat",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()
        _log.info(
            "serve.start", address=self.address, slots=self.n_slots,
            remote=len(self.remote), watch=self.watch,
        )
        return self

    def wait(self) -> None:
        """Block until the daemon is asked to stop."""
        self._stop.wait()

    def stop(self, stop_workers: bool = False) -> None:
        """Stop serving: close the socket, join threads, drop the pool."""
        if stop_workers:
            self._stop_remote_workers = True
        if not self._stop.is_set():
            _log.info(
                "serve.stop", address=self.address,
                stop_workers=self._stop_remote_workers,
            )
        self._stop.set()
        self.scheduler.kick()
        if self._sock is not None:
            # shutdown() first: close() alone does not wake a thread
            # blocked in accept(), which would keep the port in LISTEN
            # and break an immediate restart on the same address.
            import socket as socket_module

            try:
                self._sock.shutdown(socket_module.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        if self._owns_pool:
            self.pool.shutdown(stop_remote=self._stop_remote_workers)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        tenant: str,
        points: Sequence,
        weight: Optional[int] = None,
        trace: Optional[dict] = None,
    ) -> _Job:
        """Admit one job: queue its chunks under *tenant*'s fair share."""
        from ..analysis.campaign import grouped_points

        if weight is not None:
            self.scheduler.set_weight(tenant, weight)
        with self._jobs_lock:
            self._job_counter += 1
            job_id = f"job-{os.getpid()}-{self._job_counter}"
            job = _Job(
                job_id, tenant, points, trace=trace,
                on_done=self._release_payloads,
            )
            self._jobs[job_id] = job
            self._evict_completed_locked()
        groups = grouped_points(job.points)
        admit = job.span.child("admit", tenant=tenant)
        n_chunks = 0
        for chunk in _chunks_for_groups(groups, max(1, self.n_slots)):
            self.scheduler.push(tenant, (job, chunk))
            n_chunks += 1
        admit.annotate(chunks=n_chunks)
        job.record_spans([admit.end()])
        metrics.counter("serve.submits_total").inc()
        metrics.counter("serve.points_total").inc(len(job.points))
        _log.info(
            "serve.submit", job=job.id, tenant=tenant,
            points=len(job.points), chunks=n_chunks,
            trace_id=job.span.trace_id,
        )
        return job

    def job(self, job_id: str) -> Optional[_Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def _release_payloads(self, job: _Job) -> None:
        """Drop the pool's cached trace payloads of finished *job*.

        A key that an unfinished job shares stays cached; that job
        releases it when it finishes.  Every finishing job decides under
        the jobs lock, after its own ``remaining`` reached 0, so of two
        jobs finishing together the later one sees the other finished.
        """
        with self._jobs_lock:
            keys = set(job.trace_keys)
            for other in self._jobs.values():
                if other.remaining:
                    keys -= other.trace_keys
            self.pool.release_payloads(keys)

    def _evict_completed_locked(self) -> None:
        completed = [
            job_id
            for job_id, job in self._jobs.items()
            if job.done.is_set()
        ]
        for job_id in completed[: max(0, len(completed)
                                      - _COMPLETED_JOBS_KEPT)]:
            del self._jobs[job_id]

    # -- dispatch ------------------------------------------------------
    def _dispatch_loop(self, slot: int) -> None:
        """One fleet slot: pop fair-share chunks and attempt each."""
        while not self._stop.is_set():
            popped = self.scheduler.pop(timeout=0.2)
            if popped is None:
                continue
            tenant, (job, task) = popped
            try:
                self.pool.worker_at(slot)
            except PeerClosed:
                # The slot's worker is not reachable (yet).  Hand the
                # chunk back uncounted, at the front of its tenant's
                # queue, without burning an attempt — submitting jobs
                # before the fleet is up is a supported order of
                # operations — and back off so a live slot can take it.
                self.scheduler.unpop(tenant, (job, task))
                if self._stop.wait(0.5):
                    return
                continue
            outcome = self._backend._attempt(
                self.pool, slot, task, job.span, tenant=tenant
            )
            job.record_spans(outcome.spans)
            chunk = task[3]
            if outcome.retry is not None:
                self.scheduler.push(tenant, (job, outcome.retry))
            elif outcome.error is not None:
                self._record(job, [
                    (index, {"ok": False, "error": outcome.error})
                    for index, _ in chunk
                ])
            else:
                self._record(job, [
                    (index, dict(item))
                    for (index, _), item in zip(chunk, outcome.items)
                ])
                self.dispatch_log.append(tenant)
                _log.debug(
                    "serve.dispatch", job=job.id, tenant=tenant, slot=slot,
                    points=len(chunk),
                )

    def _record(
        self, job: _Job, entries: Sequence[Tuple[int, dict]]
    ) -> None:
        served = 0
        for index, item in entries:
            served += job.record(index, item)
        if served:
            self._tenant_served[job.tenant] = (
                self._tenant_served.get(job.tenant, 0) + served
            )

    # -- heartbeat -----------------------------------------------------
    def _heartbeat_loop(self) -> None:
        """Ping idle workers so half-open connections die between jobs.

        A remote worker whose host vanished without FIN produces no EOF;
        only a timed-out request exposes it.  Dispatch traffic does that
        naturally under load — the heartbeat covers the idle case so the
        status display and the next job see a discarded slot, not a
        black hole.  Busy slots are skipped (try-acquire), never probed
        mid-batch.
        """
        while not self._stop.wait(self.heartbeat):
            for slot in range(self.n_slots):
                lock = self.pool.slot_lock(slot)
                if not lock.acquire(blocking=False):
                    continue
                try:
                    with self.pool._lock:
                        worker = (
                            self.pool._workers[slot]
                            if slot < len(self.pool._workers)
                            else None
                        )
                    if worker is None or not worker.alive():
                        continue
                    try:
                        worker.request("ping", timeout=2)
                    except (PeerClosed, PeerTimeout):
                        self.pool.discard(slot)
                finally:
                    lock.release()

    # -- watched job directories ---------------------------------------
    def _watch_loop(self) -> None:
        adopted: Dict[str, Optional[Tuple[_Job, List[dict]]]] = {}
        while not self._stop.is_set():
            try:
                names = sorted(os.listdir(self.watch))
            except OSError:
                names = []
            for name in names:
                job_dir = os.path.join(self.watch, name)
                if (
                    job_dir in adopted
                    or not os.path.isfile(
                        os.path.join(job_dir, "manifest.json")
                    )
                    or os.path.exists(os.path.join(job_dir, "serve.done"))
                ):
                    continue
                try:
                    adopted[job_dir] = self._adopt_directory_job(job_dir)
                except DistError as err:
                    adopted[job_dir] = None  # malformed: skip for good
                    _log.warning(
                        "serve.adopt-failed", dir=job_dir, error=str(err)
                    )
                else:
                    entry = adopted[job_dir]
                    if entry is not None:
                        _log.info(
                            "serve.adopt", dir=job_dir,
                            job=entry[0].id, points=len(entry[1]),
                        )
            for job_dir, entry in list(adopted.items()):
                if entry is None:
                    continue
                job, claims = entry
                if job.done.is_set():
                    self._finish_directory_job(job_dir, job, claims)
                    adopted[job_dir] = None
            self._stop.wait(0.5)

    def _adopt_directory_job(
        self, job_dir: str
    ) -> Optional[Tuple[_Job, List[dict]]]:
        """Claim every pending point of *job_dir* and submit them."""
        from ..spec.specs import RunSpec

        requeue_lost(job_dir)
        worker_id = f"serve-{os.getpid()}"
        backlog: List[str] = []
        claims: List[dict] = []
        while True:
            entry = claim_point(job_dir, worker_id, backlog)
            if entry is None:
                break
            claims.append(entry)
        if not claims:
            return None
        points = [RunSpec.from_dict(entry["spec"]) for entry in claims]
        tenant = f"dir:{os.path.basename(os.path.normpath(job_dir))}"
        return self.submit(tenant, points), claims

    def _finish_directory_job(
        self, job_dir: str, job: _Job, claims: List[dict]
    ) -> None:
        """Write the adopted job's outputs in job-directory formats."""
        from ..analysis.campaign import CampaignRun

        worker_id = f"serve-{os.getpid()}"
        runs: List[CampaignRun] = []
        for entry, point, item in zip(claims, job.points, job.items):
            _, result, error, timing = _reply_entry(
                entry["index"], item, "point lost"
            )
            if error is None:
                runs.append(CampaignRun.timed(point, result, timing))
            else:
                _record_failure(job_dir, entry, worker_id, error)
        if runs:
            _save_runs(_partial_store(job_dir, worker_id), runs)
        for entry in claims:
            _drop_claim(entry["_claim_path"])
        _write_json(
            os.path.join(job_dir, "serve.done"),
            {"job": job.id, "n_points": len(claims),
             "completed": len(runs)},
        )

    # -- the socket API ------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # socket closed by stop()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ] + [thread]

    def _serve_connection(self, conn) -> None:
        keep_serving = serve_socket_connection(conn, self._handle_line)
        if not keep_serving:
            self.stop(stop_workers=self._stop_remote_workers)

    def _handle_line(self, line: str):
        """One service request → ``(reply, keep_serving)``; never raises."""
        return answer_request(
            line,
            {
                "shutdown": self._handle_shutdown,
                "submit": self._handle_submit,
                "collect": self._handle_collect,
                "status": lambda request: self.status(),
            },
            SERVICE_PROTOCOL_VERSION,
        )

    def _handle_shutdown(self, request) -> dict:
        if request.get("stop_workers"):
            self._stop_remote_workers = True
        return {"bye": True}

    def _handle_submit(self, request) -> dict:
        from ..spec.specs import RunSpec

        specs = request.get("specs")
        if not isinstance(specs, list):
            raise ValueError("submit request needs a 'specs' list")
        tenant = str(request.get("tenant") or "default")
        points = [RunSpec.from_dict(spec) for spec in specs]
        trace = request.get("trace")
        job = self.submit(
            tenant, points, weight=request.get("weight"),
            trace=trace if isinstance(trace, dict) else None,
        )
        return {"job": job.id, "n_points": len(points)}

    def _handle_collect(self, request) -> dict:
        job_id = str(request.get("job") or "")
        job = self.job(job_id)
        if job is None:
            raise ValueError(
                f"unknown job {job_id!r} (daemon restarted, or the job "
                f"was evicted) — resubmit"
            )
        wait = float(request.get("wait") or 0)
        done = job.done.wait(timeout=wait) if wait > 0 else (
            job.done.is_set()
        )
        if not done:
            return {"done": False, "remaining": job.remaining}
        reply = {"done": True, "items": job.items}
        if job.traced:
            reply["spans"] = job.spans()
        return reply

    # -- observability -------------------------------------------------
    def status(self) -> Dict[str, object]:
        depths = self.scheduler.depths()
        dispatched = self.scheduler.dispatched()
        for tenant, depth in depths.items():
            metrics.gauge(f"serve.queue_depth.{tenant}").set(depth)
        tenants = {
            tenant: {
                "queued_chunks": depths.get(tenant, 0),
                "dispatched_chunks": dispatched.get(tenant, 0),
                "points_served": self._tenant_served.get(tenant, 0),
                "weight": self.scheduler.weight(tenant),
            }
            for tenant in set(depths) | set(self._tenant_served)
        }
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        return {
            "protocol": SERVICE_PROTOCOL_VERSION,
            "address": self.address,
            "uptime": round(time.monotonic() - self.started, 3),
            "slots": self.n_slots,
            "watch": self.watch,
            "tenants": tenants,
            "jobs": {
                "total": len(jobs),
                "active": sum(
                    1 for job in jobs if not job.done.is_set()
                ),
                "completed": sum(
                    1 for job in jobs if job.done.is_set()
                ),
            },
            "dispatch_log": list(self.dispatch_log),
            "pool": self.pool.stats(timeout=2),
            "telemetry": metrics.snapshot(),
        }


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
#: Pause between reconnect attempts after losing the daemon connection.
#: Module-level so tests can shrink it.
RECONNECT_DELAY = 1.0

#: Per-request reply timeout for service ops (generous: a ``collect``
#: holds the line for its ``wait`` interval first).
_REQUEST_TIMEOUT = 30.0

#: How long one ``collect`` op waits server-side before reporting
#: progress, which doubles as the client's disconnect-detection beat.
_COLLECT_WAIT = 2.0


class ServiceClient:
    """A connection to a :class:`ServeDaemon`, with reconnect/resubmit.

    One client maps to one tenant; every request transparently
    (re)opens the TCP connection when needed.  :meth:`run` is the
    whole-campaign primitive: submit, then collect until done —
    surviving client-side disconnects (the daemon holds the job) and
    daemon restarts (unknown job id → resubmit, safe by determinism).
    """

    def __init__(
        self,
        address: Optional[str] = None,
        tenant: Optional[str] = None,
        reconnects: int = 10,
    ):
        address = address or service_address_from_env()
        if not address:
            raise ConfigError(
                "service address required: pass address='HOST:PORT' or "
                "set REPRO_SERVICE_ADDRESS"
            )
        parse_address(address, source="service address")
        self.address = address
        self.tenant = tenant or service_tenant_from_env()
        self.reconnects = int(reconnects)
        self._channel: Optional[LineChannel] = None

    def _connected(self) -> LineChannel:
        if self._channel is None or not self._channel.alive():
            self._channel = LineChannel(SocketTransport(self.address))
        return self._channel

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def request(self, op: str, timeout: float = _REQUEST_TIMEOUT, **fields):
        """One service op; raises :class:`ServiceError` on ``ok: false``.

        Transport failures (:class:`PeerClosed` / :class:`PeerTimeout`)
        propagate — :meth:`run` turns them into reconnects.
        """
        try:
            reply = self._connected().request(op, timeout=timeout, **fields)
        except (PeerClosed, PeerTimeout):
            self.close()
            raise
        if not reply.get("ok"):
            raise ServiceError(
                f"service {op} failed: "
                f"{str(reply.get('error', 'unknown error')).strip()}"
            )
        return reply

    def ping(self) -> dict:
        return self.request("ping")

    def status(self) -> dict:
        reply = self.request("status")
        return {k: v for k, v in reply.items() if k not in ("id", "ok")}

    def shutdown(self, stop_workers: bool = False) -> None:
        self.request("shutdown", stop_workers=bool(stop_workers))
        self.close()

    def submit(self, points: Sequence, weight=None) -> str:
        """Submit *points* under this client's tenant; returns the job id.

        When a span is active on this thread (a campaign run), a
        ``submit`` child span is opened and its context rides the
        request, so the daemon's job span joins the client's trace.
        """
        fields = {
            "tenant": self.tenant,
            "specs": [point.to_dict() for point in points],
        }
        if weight is not None:
            fields["weight"] = int(weight)
        span = None
        if tracing.current_context() is not None:
            span = tracing.start_span(
                "submit", parent=tracing.current_span(),
                tenant=self.tenant, points=len(points),
            )
            fields["trace"] = span.context()
        try:
            job_id = str(self.request("submit", **fields)["job"])
        except Exception as err:
            if span is not None:
                span.end(status="error", error=str(err))
            raise
        if span is not None:
            span.annotate(job=job_id)
            span.end()
        _log.info(
            "service.submit", address=self.address, tenant=self.tenant,
            job=job_id, points=len(points),
        )
        return job_id

    def collect(self, job_id: str) -> Optional[List[dict]]:
        """One collect beat: the finished items, or ``None`` (not done).

        Daemon-side span records returned with a finished job are
        replayed into this process's telemetry log, so ``trace show``
        on the client's log file sees the full daemon-side tree.
        """
        reply = self.request("collect", job=job_id, wait=_COLLECT_WAIT)
        if not reply.get("done"):
            return None
        for record in reply.get("spans") or ():
            tracing.record_span(record)
        _log.info(
            "service.collect", address=self.address, job=job_id,
            items=len(reply["items"]),
        )
        return list(reply["items"])

    def run(self, points: Sequence) -> List[dict]:
        """Submit and collect to completion, riding out failures."""
        points = list(points)
        job_id: Optional[str] = None
        failures = 0
        while True:
            try:
                if job_id is None:
                    job_id = self.submit(points)
                items = self.collect(job_id)
                if items is not None:
                    return items
            except ServiceError as err:
                if "unknown job" in str(err) and job_id is not None:
                    # Daemon restarted (job ids embed its pid) or the
                    # job aged out: resubmission replays deterministic
                    # work, so it is always safe.
                    job_id = None
                    continue
                raise
            except (PeerClosed, PeerTimeout) as err:
                failures += 1
                if failures > self.reconnects:
                    raise DistError(
                        f"lost the service at {self.address} "
                        f"({failures} failures): {err}"
                    ) from None
                time.sleep(RECONNECT_DELAY)


class ServiceBackend(ExecutionBackend):
    """Route campaign execution through a ``dist serve`` daemon.

    ``backend("service", address="HOST:PORT", tenant="me")`` — both
    options fall back to ``REPRO_SERVICE_ADDRESS`` /
    ``REPRO_SERVICE_TENANT``, so ``campaign run --backend service``
    works with no per-call plumbing.  ``jobs`` is ignored: fleet sizing
    belongs to the daemon, which is the whole point of the service.
    """

    name = "service"
    description = (
        "submit to a repro-sim dist serve daemon over TCP "
        "(shared worker fleet, fair multi-tenant admission)"
    )
    #: The daemon preloads traces onto its fleet, so grouping constraints
    #: do not bind the client side.
    splits_groups = True

    def __init__(
        self,
        address: Optional[str] = None,
        tenant: Optional[str] = None,
        reconnects: int = 10,
    ):
        self.client = ServiceClient(
            address=address, tenant=tenant, reconnects=reconnects
        )
        self.address = self.client.address
        self.tenant = self.client.tenant

    def execute(self, points, jobs: int = 1) -> Payload:
        if not points:
            return []
        items = self.client.run(points)
        if len(items) != len(points):
            raise DistError(
                f"service returned {len(items)} item(s) "
                f"for {len(points)} point(s)"
            )
        return [
            _reply_entry(index, item, "service lost the point")
            for index, item in enumerate(items)
        ]

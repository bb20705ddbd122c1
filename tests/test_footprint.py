"""Memory-footprint contracts of the simulator.

* ``import repro`` and the simulation modules load neither networkx nor
  numpy (only the static-partitioning analyses import networkx, lazily),
  and a pool worker's command line parses without loading the analysis
  harness or the perf ledger.
* A finished :class:`Processor` and a dropped :class:`Workload` with a
  materialised trace are freed by reference counting alone: with the
  cyclic collector off they are gone right after ``del``, and a
  collection afterwards finds nothing.
* The trace columns are the only record store, and the records built
  from them match an independent executor.
* A campaign's memory ends with the campaign: once ``Campaign.run``
  returns, every workload the dispatcher built for it is freed (by
  reference counting alone) and the worker pool keeps none of its
  trace payloads.  Within the campaign each ``(bench, seed)`` program
  is still generated exactly once, on every backend.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import subprocess
import sys
import threading
import types
import weakref

import pytest

import repro
import repro.workloads
from repro import dist
from repro.analysis.campaign import Campaign, expand_grid
from repro.core.steering import make_steering
from repro.dist.worker import WorkerState, handle_request
from repro.pipeline import Processor
from repro.spec import machine_config
from repro.workloads import TraceExecutor, TraceRecord, workload

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def retained(root, cls) -> int:
    """Instances of *cls* reachable from *root* (classes, modules and
    functions are not followed: they reach the whole interpreter)."""
    skip = (type, types.ModuleType, types.FunctionType)
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) in seen or isinstance(ref, skip):
                continue
            seen.add(id(ref))
            stack.append(ref)
            if isinstance(ref, cls):
                count += 1
    return count


@contextlib.contextmanager
def collector_off():
    """Run the block with the cyclic garbage collector disabled."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "statement, forbidden",
    [
        (
            "import repro, repro.pipeline.processor, repro.dist.worker",
            ("networkx", "numpy"),
        ),
        # A pool worker's start-up: parsing its command line loads
        # neither the figure harness nor the perf ledger.
        (
            "from repro.cli import build_parser; "
            "build_parser().parse_args(['dist', 'worker', '--stdio'])",
            ("repro.analysis", "repro.perf"),
        ),
    ],
    ids=["simulator", "worker-parse"],
)
def test_import_loads_neither_networkx_nor_numpy(statement, forbidden):
    code = (
        "import sys\n"
        f"{statement}\n"
        f"print(sorted(m for m in {forbidden!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "scheme, machine, scheduler",
    [
        ("general-balance", "clustered", "event"),
        ("fifo", "clustered-fifo", "event"),
        ("general-balance", "clustered", "scan"),
    ],
)
def test_finished_processor_is_freed_by_refcount(scheme, machine, scheduler):
    wl = workload("gcc")
    wl.shared_trace().ensure(4000)
    with collector_off():
        processor = Processor(
            wl, machine_config(machine), make_steering(scheme), scheduler
        )
        processor.run(1500, warmup=500)
        ref = weakref.ref(processor)
        del processor
        assert ref() is None
        assert gc.collect() == 0


def test_dropped_workload_trace_is_freed_by_refcount():
    with collector_off():
        wl = workload("li", seed=7, fresh=True)
        shared = wl.shared_trace()
        shared.ensure(3000)
        shared.columns().line_ids(32)
        ref = weakref.ref(shared)
        del wl, shared
        assert ref() is None
        assert gc.collect() == 0


def test_records_are_built_on_demand_from_the_columns():
    wl = workload("go", seed=3, fresh=True)
    n = 2500
    expected = TraceExecutor(wl.program, 3).take(n)
    shared = wl.shared_trace()
    assert [shared.record(i) for i in range(n)] == expected
    assert wl.trace().take(n) == expected
    assert len(shared.columns().pcs) >= n
    assert retained(shared, TraceRecord) == 0


# ----------------------------------------------------------------------
# Campaign memory
# ----------------------------------------------------------------------
#: Tiny windows: these tests count objects and calls, not time.
N = 400
W = 120


def _grid(seeds):
    """Two benches x two schemes per seed: one group per (bench, seed).

    Each test uses seeds no other test touches, so no workload of the
    grid is alive (or cached) before the campaign starts.
    """
    return expand_grid(
        ["gcc", "li"], ["modulo", "general-balance"], seeds=seeds,
        n_instructions=N, warmup=W,
    )


def _groups(points):
    return {point.trace_key for point in points}


@pytest.fixture
def built_workloads(monkeypatch):
    """Weak references to every workload this process builds."""
    refs = []
    real = repro.workloads.workload_for_profile

    def watched(profile, seed=0, fresh=False):
        wl = real(profile, seed, fresh)
        refs.append(weakref.ref(wl))
        return wl

    monkeypatch.setattr(repro.workloads, "workload_for_profile", watched)
    return refs


def test_serial_campaign_frees_its_workloads(built_workloads):
    points = _grid(seeds=(101, 102))
    with collector_off():
        Campaign(points, backend="serial").run()
        assert built_workloads
        assert all(ref() is None for ref in built_workloads)


def test_pool_campaign_frees_its_workloads_and_payloads(built_workloads):
    points = _grid(seeds=(111, 112))
    pool = dist.WorkerPool()
    try:
        backend = dist.backend("worker", pool=pool)
        before = pool.stats()["trace_payloads"]
        with collector_off():
            Campaign(points, workers=2, backend=backend).run()
            assert built_workloads
            assert all(ref() is None for ref in built_workloads)
        assert not _groups(points) & set(pool._payloads)
        assert pool.stats()["trace_payloads"] - before == len(_groups(points))
    finally:
        pool.shutdown()


def test_concurrent_campaigns_on_one_pool_count_and_release_payloads():
    """Two campaigns share one pool's payload cache and counter: each
    group is built once, and both campaigns leave nothing cached."""
    grids = [_grid(seeds=(151, 152)), _grid(seeds=(153, 154))]
    pool = dist.WorkerPool()
    backend = dist.backend("worker", pool=pool)
    errors = []

    def run(points):
        try:
            Campaign(points, workers=3, backend=backend).run()
        except Exception as err:  # noqa: BLE001 — asserted below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(g,)) for g in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        groups = set().union(*map(_groups, grids))
        assert pool.stats()["trace_payloads"] == len(groups)
        assert not pool._payloads
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


@pytest.fixture
def generated(monkeypatch, tmp_path):
    """``(bench, seed)`` of every program generated, by any process.

    Calls are appended to a file, so ``process``-backend children
    (forked with the patch in place) are counted too.
    """
    log = tmp_path / "generated.log"
    log.touch()
    real = repro.workloads.generate_program

    def counted(profile, seed=0):
        with open(log, "a") as out:
            out.write(f"{profile.name} {seed}\n")
        return real(profile, seed=seed)

    monkeypatch.setattr(repro.workloads, "generate_program", counted)

    def calls():
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    return calls


@pytest.mark.parametrize(
    "backend, seeds", [("serial", (121,)), ("process", (122, 123))]
)
def test_each_program_is_generated_once_per_campaign(
    generated, backend, seeds
):
    points = _grid(seeds)
    Campaign(points, workers=2, backend=backend).run()
    assert sorted(generated()) == sorted(
        (bench, str(seed)) for bench, seed in _groups(points)
    )


def test_pool_campaign_generates_each_program_once(generated):
    points = _grid(seeds=(131, 132))
    pool = dist.WorkerPool()
    try:
        backend = dist.backend("worker", pool=pool)
        Campaign(points, workers=2, backend=backend).run()
        # The dispatcher generates each group once for its payload; the
        # workers replay the pinned traces and never resolve by name.
        assert sorted(generated()) == sorted(
            (bench, str(seed)) for bench, seed in _groups(points)
        )
        assert pool.stats()["trace_cache_misses"] == 0
    finally:
        pool.shutdown()


def test_worker_batch_without_preload_generates_each_program_once(
    generated, built_workloads
):
    """A worker's by-name fallback holds what it resolves for the rest
    of its ``batch-run``, and lets go when the batch ends."""
    specs = [point.to_dict() for point in _grid(seeds=(141,))]
    state = WorkerState()
    request = json.dumps({"id": 1, "op": "batch-run", "specs": specs})
    with collector_off():
        reply, _ = handle_request(request, state)
        assert all(item["ok"] for item in reply["results"])
        assert state.trace_cache_misses == len(specs)
        assert sorted(generated()) == [("gcc", "141"), ("li", "141")]
        assert built_workloads
        assert all(ref() is None for ref in built_workloads)

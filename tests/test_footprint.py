"""Memory-footprint contracts of the simulator.

* ``import repro`` and the simulation modules load neither networkx nor
  numpy (only the static-partitioning analyses import networkx, lazily).
* A finished :class:`Processor` and a dropped :class:`Workload` with a
  materialised trace are freed by reference counting alone: with the
  cyclic collector off they are gone right after ``del``, and a
  collection afterwards finds nothing.
* The trace columns are the only record store, and the records built
  from them match an independent executor.
"""

from __future__ import annotations

import contextlib
import gc
import os
import subprocess
import sys
import types
import weakref

import pytest

import repro
from repro.core.steering import make_steering
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


def test_import_loads_neither_networkx_nor_numpy():
    code = (
        "import sys\n"
        "import repro, repro.pipeline.processor, repro.dist.worker\n"
        "print(sorted(m for m in ('networkx', 'numpy') if m in sys.modules))\n"
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

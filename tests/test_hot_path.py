"""The event pipeline's hot path: its stage boundaries and its call budget.

Two contracts that no timing result can show:

* **Stage boundaries.**  ``perfbench/spans.py`` times the pipeline by
  replacing instance attributes of one :class:`Processor` (the stage
  entry points ``step`` calls once per cycle, the steering decision) and
  ``SimStats.on_cycle`` on the class.  A stage that stops reading its
  attribute at run time, or a second call site, makes the per-layer
  trace silently read 0 or double count.  The tests install the real
  wrappers and check every span's call count.
* **Call budget.**  The hot path's cost in pure Python is dominated by
  function calls.  The count of Python-level calls per committed
  instruction is a deterministic proxy for that cost, so a helper call
  that slips back into a per-instruction loop fails here rather than as
  a few percent of noisy benchmark time.

A third contract covers the sweep's dispatcher side: the wrappers
``dispatcher_spans`` installs around program generation, trace
materialisation, ``.rtrace`` export, the pool's payload cache and the
worker preload must all be reached by a pool campaign, and the pool
counters the sweep's cold guard reads must exist.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from repro import dist
from repro.analysis.campaign import Campaign, expand_grid
from repro.core.steering import make_steering
from repro.isa import InstrClass
from repro.pipeline import Processor
from repro.spec.machines import machine_config
from repro.workloads import workload

_SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "spans.py",
)

#: Python-level calls per committed instruction allowed on gcc (the
#: production :class:`Processor`), per (scheme, machine).  Measured with the profiler below.
#: general-balance x ``clustered``: 24.7 when every stage still crossed
#: its small helpers (wakeup callbacks, ready-list accessors, free-list
#: release, imbalance properties, cache ``_locate``, branch-predictor
#: components), 11.4 once the stages inlined them.  fifo x
#: ``clustered-fifo``: 20.5 while FIFO wakeup, select, placement and
#: steering still called ``mark_ready``, ``ready_view`` /
#: ``issue_ready``, ``place``, ``provider``, ``tails_producing`` and
#: ``occupancy``; 10.7 once the stages inlined those too.  Then 10.58
#: and 8.89 once fetch appended into the decode buffer from a bound
#: ``FetchUnit.fetch`` with its trace arrays held (no ``_fetch`` wrapper
#: or ``line_ids`` call per cycle), the disambiguation queue searched
#: for a forwarding store inline, and fifo's base no-op ``on_dispatch``
#: stopped being called.  Each budget keeps the measured level and
#: leaves room for a few per-instruction calls a future feature may
#: need.
CALLS_PER_INSTR_BUDGET = {
    ("general-balance", "clustered"): 13,
    ("fifo", "clustered-fifo"): 11,
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gcc(n_trace: int):
    """The gcc workload with *n_trace* records materialised: lazy trace
    generation is not pipeline work and must stay out of the counts."""
    wl = workload("gcc")
    wl.shared_trace().ensure(n_trace)
    return wl


@pytest.mark.parametrize(
    "scheme,machine",
    [("general-balance", "clustered"), ("fifo", "clustered-fifo")],
)
def test_stage_spans_once_per_cycle(scheme, machine):
    spans_mod = _load_spans()
    steering = make_steering(scheme)
    # Count every steering decision beneath the span wrapper: the span
    # must see each one, through the instance attribute it wraps.
    decisions = [0]
    choose = steering.choose_cluster

    def counted_choose(ctx, dyn):
        decisions[0] += 1
        return choose(ctx, dyn)

    steering.choose_cluster = counted_choose
    processor = Processor(_gcc(4000), machine_config(machine), steering)
    steerable = [0]
    # ``None`` when the scheme keeps the base no-op hook (fifo).
    on_dispatch = processor._on_dispatch_fn

    def counted_dispatch(ctx, dyn, cluster):
        if dyn.cls is not InstrClass.COMPLEX_INT and dyn.cls is not InstrClass.FP:
            steerable[0] += 1
        if on_dispatch is not None:
            on_dispatch(ctx, dyn, cluster)

    processor._on_dispatch_fn = counted_dispatch
    spans = spans_mod.Spans()
    spans_mod.instrument_processor(spans, processor)
    with spans_mod.stats_spans(spans):
        result = processor.run(1500)
    spans.fold()

    cycles = processor.cycle
    assert cycles == result.cycles > 0
    for name, _attr in spans_mod.PROCESSOR_SPANS:
        if name != "choose":
            assert spans.calls[name] == cycles, name
    assert spans.calls["lsq"] == cycles
    assert spans.calls["stats"] == cycles
    # Once per steering decision; a stalled head is steered again on the
    # next cycle, so decisions can exceed the dispatched count.
    assert spans.calls["choose"] == decisions[0]
    assert decisions[0] >= steerable[0] > 0


@pytest.mark.parametrize("scheme,machine", sorted(CALLS_PER_INSTR_BUDGET))
def test_calls_per_committed_instruction_within_budget(scheme, machine):
    budget = CALLS_PER_INSTR_BUDGET[scheme, machine]
    processor = Processor(
        _gcc(6000), machine_config(machine), make_steering(scheme)
    )
    processor.run(500, warmup=500)  # warm caches, predictor and steering
    stats = processor.stats
    before = stats.committed
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        processor._run_until(before + 3000)
    finally:
        sys.setprofile(previous)
    committed = stats.committed - before
    per_instr = calls[0] / committed
    assert per_instr <= budget, (
        f"{per_instr:.2f} Python calls per committed instruction "
        f"(budget {budget})"
    )


def test_dispatcher_spans_cover_a_pool_campaign():
    spans_mod = _load_spans()
    # Seeds no other test uses: the programs and traces are built here.
    points = expand_grid(
        ["gcc", "li"], ["general-balance"], seeds=[271],
        n_instructions=400, warmup=100,
    )
    pool = dist.WorkerPool()
    try:
        backend = dist.backend("worker", pool=pool)
        spans = spans_mod.Spans(threaded=True)
        with spans_mod.dispatcher_spans(spans):
            runs = Campaign(points, workers=1, backend=backend).run()
        stats = pool.stats()
    finally:
        pool.shutdown()
    assert len(list(runs)) == len(points)
    for name in ("generate", "ensure", "export", "trace_payload", "preload"):
        assert spans.ns[name] > 0, name
    assert spans.counts["trace_records"] > 0
    for key in ("result_cache_hits", "trace_cache_misses", "batches",
                "trace_payloads"):
        assert key in stats, key
    assert len(stats["workers"]) == 1
    assert all("pid" in worker for worker in stats["workers"])

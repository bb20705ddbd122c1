"""Per-cycle invariants of the issue windows on the event pipeline.

The event pipeline's stages keep the windows' state without calling
their methods: the wakeup calendar enrols woken entries in the ready
lists, the issue stage pops issued entries, and the fused dispatch loop
inserts instructions and copies (through the ``seq -> FIFO`` index, in
a FIFO window).  Event-vs-scan equality shows only the timing that
results; these checks look at each window after every cycle, so a
counter, index or ready list that drifts is caught on the cycle it
drifts, before it moves a result.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FifoIssueQueue
from repro.core.steering import make_steering
from repro.errors import SimulationError
from repro.pipeline import Processor
from repro.spec.machines import machine_config
from repro.workloads import workload

#: ``(scheme, machine, n_fifos, fifo_depth)``.  FIFO windows: the §3.9
#: machine as registered, the golden grid's tight geometries (dispatch
#: stalls on the empty-FIFO reservation and falls back from full tails),
#: and the zero-latency bypass, whose copies wake remote entries within
#: the cycle they issue.  Conventional windows: the Table 2 machine, a
#: window that fills every few cycles, the zero-latency bypass and a
#: deep window.
MACHINES = (
    ("fifo", "clustered-fifo", None, None),
    ("fifo", "clustered-fifo", 2, 2),
    ("fifo", "clustered-fifo", 3, 1),
    ("fifo", "bypass-ports-1", 2, 2),
    ("fifo", "bypass-ports-1", 3, 1),
    ("fifo", "bypass-latency-0", None, None),
    ("general-balance", "clustered", None, None),
    ("general-balance", "iq-2", None, None),
    ("general-balance", "bypass-latency-0", None, None),
    ("general-balance", "deep-window-256", None, None),
)


def check_window(iq) -> None:
    """Assert the invariants the inlined window code must keep.

    For either organisation: the window is within capacity, the ready
    list is sorted by ``iq_rank`` (a FIFO entry's rank is its seq), and
    it holds exactly the entries with no pending operand.
    """
    if isinstance(iq, FifoIssueQueue):
        fifos = iq._fifos
        assert all(len(fifo) <= iq.depth for fifo in fifos), iq.name
        assert iq._n_empty == sum(1 for fifo in fifos if not fifo), iq.name
        assert iq._where == {
            dyn.seq: index for index, fifo in enumerate(fifos) for dyn in fifo
        }, iq.name
        entries = [dyn for fifo in fifos for dyn in fifo]
        for dyn in entries:
            assert dyn.iq_rank == dyn.seq, f"{iq.name}: {dyn.seq} rank"
        # A FIFO holds a dependence chain: each entry behind a head waits
        # on its predecessor's result, so only heads can be ready.
        for fifo in fifos:
            for behind, dyn in zip(fifo, fifo[1:]):
                assert behind in dyn.providers, (
                    f"{iq.name}: {dyn.seq} off-chain"
                )
                assert dyn.pending_ops, (
                    f"{iq.name}: {dyn.seq} ready behind a head"
                )
    else:
        window = iq._entries
        assert all(seq == dyn.seq for seq, dyn in window.items()), iq.name
        entries = list(window.values())
        ranks = [dyn.iq_rank for dyn in entries]
        assert ranks == sorted(ranks), f"{iq.name}: ranks out of age order"
        assert all(rank < iq._next_rank for rank in ranks), iq.name
    assert len(iq) == len(entries) <= iq.capacity, iq.name
    ranks = [rank for rank, _ in iq._ready]
    assert ranks == sorted(set(ranks)), f"{iq.name}: ready list out of order"
    for rank, dyn in iq._ready:
        assert dyn.iq_rank == rank, f"{iq.name}: {dyn.seq} listed by rank {rank}"
    ready = {id(dyn) for _, dyn in iq._ready}
    assert len(ready) == len(iq._ready), f"{iq.name}: an entry listed twice"
    unblocked = {id(dyn) for dyn in entries if not dyn.pending_ops}
    assert ready == unblocked, (
        f"{iq.name}: ready list {sorted(d.seq for _, d in iq._ready)} "
        f"!= entries with no pending operand "
        f"{sorted(d.seq for d in entries if not d.pending_ops)}"
    )


def checked_processor(config, scheme, bench="gcc", seed=0):
    """An event-scheduler processor that checks both windows after every
    cycle."""
    processor = Processor(
        workload(bench, seed=seed), config, make_steering(scheme),
        scheduler="event",
    )
    iqs = processor.iqs
    step = processor.step

    def checked_step():
        step()
        check_window(iqs[0])
        check_window(iqs[1])

    processor.step = checked_step
    return processor


@pytest.mark.parametrize("bench", ["gcc", "pchase-heavy"])
@pytest.mark.parametrize(
    "scheme,machine,n_fifos,fifo_depth",
    MACHINES,
    ids=[
        f"{scheme}-{name}" if n is None else f"{scheme}-{name}@{n}x{d}"
        for scheme, name, n, d in MACHINES
    ],
)
def test_window_invariants_every_cycle(
    bench, scheme, machine, n_fifos, fifo_depth
):
    config = machine_config(machine)
    if scheme == "fifo" and not config.fifo_issue:
        config = config.with_fifo_issue()
    if n_fifos is not None:
        config = replace(config, n_fifos=n_fifos, fifo_depth=fifo_depth)
    processor = checked_processor(config, scheme, bench)
    result = processor.run(800, warmup=200)
    assert result.cycles > 0
    assert processor.stats.copies_created > 0


def _fifo_outcome(scheduler, bench, seed, n_fifos, fifo_depth, latency):
    """The ``SimResult`` of a small FIFO-machine run, or the message of
    the :class:`SimulationError` it raised."""
    config = replace(
        machine_config("clustered-fifo"),
        n_fifos=n_fifos,
        fifo_depth=fifo_depth,
        bypass_latency=latency,
    )
    if scheduler == "event":
        processor = checked_processor(config, "fifo", bench, seed)
    else:
        processor = Processor(
            workload(bench, seed=seed), config, make_steering("fifo"),
            scheduler="scan",
        )
    try:
        return processor.run(300, warmup=100)
    except SimulationError as exc:
        return str(exc)


@given(
    bench=st.sampled_from(["gcc", "li", "pchase-heavy"]),
    seed=st.integers(0, 3),
    n_fifos=st.integers(1, 4),
    fifo_depth=st.integers(1, 3),
    latency=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_fifo_event_matches_scan(bench, seed, n_fifos, fifo_depth, latency):
    """Small FIFO geometries, seeds and bypass latencies: the event
    pipeline (checked every cycle) and the scan oracle give equal
    results, or raise the same error.  One-FIFO machines stay in the
    domain: they wedge on the pessimistic empty-FIFO reservation, and
    both schedulers must report the same wedge."""
    args = (bench, seed, n_fifos, fifo_depth, latency)
    event = _fifo_outcome("event", *args)
    scan = _fifo_outcome("scan", *args)
    assert event == scan, f"event and scan diverge on {args}"

"""Per-cycle invariants of the FIFO windows on the event pipeline.

The event pipeline's stages keep :class:`FifoIssueQueue` state without
calling its methods: the wakeup calendar enrols woken heads, the issue
stage pops issued heads and defers their successors, and the fused
dispatch loop places instructions and copies through the ``seq -> FIFO``
index.  Event-vs-scan equality shows only the timing that results; these
checks look at the window itself after every cycle, so a counter or
index that drifts is caught on the cycle it drifts, before it moves a
result.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.steering import make_steering
from repro.pipeline import Processor
from repro.spec.machines import machine_config
from repro.workloads import workload

#: ``(machine, n_fifos, fifo_depth)``: the §3.9 machine as registered,
#: the golden grid's tight geometries (dispatch stalls on the empty-FIFO
#: reservation and falls back from full tails), and the zero-latency
#: bypass, whose copies wake remote heads within the cycle they issue.
MACHINES = (
    ("clustered-fifo", None, None),
    ("clustered-fifo", 2, 2),
    ("clustered-fifo", 3, 1),
    ("bypass-ports-1", 2, 2),
    ("bypass-ports-1", 3, 1),
    ("bypass-latency-0", None, None),
)


def check_fifo_window(iq) -> None:
    """Assert the invariants the inlined FIFO code must keep."""
    fifos = iq._fifos
    assert all(len(fifo) <= iq.depth for fifo in fifos), iq.name
    assert iq._n_empty == sum(1 for fifo in fifos if not fifo), iq.name
    assert iq._size == sum(len(fifo) for fifo in fifos), iq.name
    assert iq._where == {
        dyn.seq: index for index, fifo in enumerate(fifos) for dyn in fifo
    }, iq.name
    heads = {id(fifo[0]): fifo[0] for fifo in fifos if fifo}
    seqs = [seq for seq, _ in iq._ready]
    assert seqs == sorted(set(seqs)), f"{iq.name}: ready list out of order"
    ready = set()
    for seq, dyn in iq._ready:
        assert dyn.seq == seq, iq.name
        assert id(dyn) in heads, f"{iq.name}: ready seq {seq} is no head"
        assert not dyn.pending_ops, f"{iq.name}: ready seq {seq} is pending"
        ready.add(id(dyn))
    deferred = set()
    for dyn in iq._deferred:
        assert id(dyn) in heads, f"{iq.name}: deferred {dyn.seq} is no head"
        assert id(dyn) not in ready, f"{iq.name}: {dyn.seq} enrolled twice"
        deferred.add(id(dyn))
    # A FIFO holds a dependence chain: each entry behind a head waits on
    # its predecessor's result, so only heads can be ready.
    for fifo in fifos:
        for behind, dyn in zip(fifo, fifo[1:]):
            assert behind in dyn.providers, f"{iq.name}: {dyn.seq} off-chain"
            assert dyn.pending_ops, f"{iq.name}: {dyn.seq} ready behind a head"
    # No ready head is lost: it waits either in the list or for the
    # next cycle's enrolment.
    for key, head in heads.items():
        if not head.pending_ops:
            assert key in ready or key in deferred, (
                f"{iq.name}: ready head seq {head.seq} is not a candidate"
            )


@pytest.mark.parametrize("bench", ["gcc", "pchase-heavy"])
@pytest.mark.parametrize(
    "machine,n_fifos,fifo_depth",
    MACHINES,
    ids=[
        name if n is None else f"{name}@{n}x{d}" for name, n, d in MACHINES
    ],
)
def test_fifo_window_invariants_every_cycle(
    bench, machine, n_fifos, fifo_depth
):
    config = machine_config(machine)
    if not config.fifo_issue:
        config = config.with_fifo_issue()
    if n_fifos is not None:
        config = replace(config, n_fifos=n_fifos, fifo_depth=fifo_depth)
    processor = Processor(
        workload(bench, seed=0), config, make_steering("fifo"),
        scheduler="event",
    )
    iqs = processor.iqs
    step = processor.step

    def checked_step():
        step()
        check_fifo_window(iqs[0])
        check_fifo_window(iqs[1])

    processor.step = checked_step
    result = processor.run(800, warmup=200)
    assert result.cycles > 0
    assert processor.stats.copies_created > 0

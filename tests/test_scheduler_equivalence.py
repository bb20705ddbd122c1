"""Cycle-exactness of the production pipeline vs the reference scan.

The machine has one production pipeline, :class:`Processor` —
event-driven wakeup/select feeding and fed by the fused dispatch,
commit and fetch loops — and one reference oracle,
:class:`~repro.pipeline.reference.ScanProcessor`: a full window re-scan
every cycle, a plain dispatch loop handing every instruction to the
unfused single-instruction dispatch helper, and a disambiguation queue
that polls every memory instruction.  The production path is a pure
performance rework: it must produce *bit-identical* results to the
oracle, cycle for cycle, on every scheme and machine.  These tests pin
that equivalence on the smoke-suite workloads across the full scheme
registry, every Table 2 machine, the FIFO window organisation, and the
ablation families — including the zero-latency bypass edge case, where
a copy completes in the very cycle it issues and its remote consumer
must become selectable within the same cycle.

``SimResult`` equality covers every statistic the model reports: IPC
and cycle counts, copies created/issued/critical, the ready-count
balance histogram, replication, ROB/IQ occupancy averages, stall
tallies and per-class commit counts — so any scheduling divergence,
even one that leaves IPC unchanged, fails here.

Commit, fetch and the per-cycle statistics are inherited by the
oracle, so event == scan cannot see a change to them.  Every grid row's
event result is therefore also pinned to a digest in
``golden/simresults.json``; rewrite that file with
``golden/regenerate.py`` only for an intended timing change.
"""

import hashlib
import json
import os
from dataclasses import asdict, replace

import pytest

from repro.core.steering import available_schemes, make_steering
from repro.pipeline.processor import SCHEDULERS, Processor
from repro.pipeline.reference import ScanProcessor
from repro.spec import machine_config
from repro.workloads import workload

#: Smoke-suite measurement window (kept small: this file runs the full
#: scheme x machine grid twice).
N_INSTRUCTIONS = 800
WARMUP = 200

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "simresults.json")

BENCHES = ("gcc", "pchase-heavy")

#: Each registered machine under a compatible scheme (``clustered``
#: runs every scheme in the first rows of :data:`GRID`).
MACHINE_ROWS = (
    ("naive", "baseline"),
    ("naive", "upper-bound"),
    ("fifo", "clustered-fifo"),
)

#: Parametric families under general-balance, including the
#: wakeup-sensitive corners.
ABLATION_MACHINES = (
    # Zero-latency bypass: a copy completes the cycle it issues; its
    # remote consumer must wake within the same cycle.
    "bypass-latency-0",
    "bypass-latency-3",
    # One bypass port: copies stay ready-but-unissuable across cycles,
    # exercising ready-set retention.
    "bypass-ports-1",
    # Tiny windows: dispatch stalls on full queues, for consumers *and*
    # their copies.
    "iq-8",
    "iq-2",
    # Deep windows: the issue-bound regime the event scheduler is built
    # for.
    "deep-window-256",
)

#: FIFO windows on the bypass corners (same-cycle copy wakeups and
#: blocked copies meet heads exposed mid-selection), the slow bypass
#: and the deep ROB.  FIFO windows ignore ``iq_size``, so the ``iq-N``
#: family would only repeat ``clustered-fifo``.
FIFO_MACHINES = (
    "bypass-latency-0",
    "bypass-ports-1",
    "bypass-latency-3",
    "deep-window-256",
)

#: Tight FIFO geometries ``(n_fifos, fifo_depth)``: few, shallow FIFOs
#: make dispatch stall on the empty-FIFO reservation and fall back from
#: full tails, which the 8x8 machines rarely reach.  Rows name them as
#: ``<machine>@<n_fifos>x<fifo_depth>`` (see :func:`machine_for`).
TIGHT_FIFO_MACHINES = tuple(
    f"{m}@{n}x{d}"
    for m in ("clustered-fifo", "bypass-ports-1")
    for n, d in ((2, 2), (3, 1))
)

#: Every scheme that steers into conventional windows, on a window
#: small enough that the fused dispatch loop stalls on full queues
#: (for consumers *and* their copies) under each scheme's choices.
STALL_MACHINE = "iq-4"
WINDOW_SCHEMES = tuple(
    s for s in available_schemes()
    if not getattr(make_steering(s), "requires_fifo_issue", False)
)

#: Every (bench, scheme, machine) point the tests below run; the
#: golden file holds one digest per row.
GRID = (
    [(b, s, "clustered") for b in BENCHES for s in available_schemes()]
    + [("gcc", s, m) for s, m in MACHINE_ROWS]
    + [(b, "general-balance", m) for b in BENCHES for m in ABLATION_MACHINES]
    + [(b, "fifo", m) for b in BENCHES for m in FIFO_MACHINES]
    + [(b, "fifo", m) for b in BENCHES for m in TIGHT_FIFO_MACHINES]
    + [(b, s, STALL_MACHINE) for b in BENCHES for s in WINDOW_SCHEMES]
)


def machine_for(machine_name):
    """Config for a grid machine name, with an optional FIFO geometry
    suffix ``@<n_fifos>x<fifo_depth>`` applied to the registered machine."""
    base, _, geometry = machine_name.partition("@")
    config = machine_config(base)
    if geometry:
        n_fifos, fifo_depth = (int(x) for x in geometry.split("x"))
        config = replace(config, n_fifos=n_fifos, fifo_depth=fifo_depth)
    return config


def run_with(processor_cls, bench, scheme_name, machine_name):
    wl = workload(bench, seed=0)
    config = machine_for(machine_name)
    scheme = make_steering(scheme_name)
    if getattr(scheme, "requires_fifo_issue", False) and not config.fifo_issue:
        config = config.with_fifo_issue()
    processor = processor_cls(wl, config, scheme)
    return processor.run(N_INSTRUCTIONS, warmup=WARMUP)


def digest(result) -> str:
    """Stable hash over every :class:`SimResult` field."""
    text = json.dumps(asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def golden_key(bench, scheme_name, machine_name) -> str:
    return f"{bench}/{scheme_name}/{machine_name}"


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def assert_equivalent(bench, scheme_name, machine_name):
    event = run_with(Processor, bench, scheme_name, machine_name)
    scan = run_with(ScanProcessor, bench, scheme_name, machine_name)
    assert event == scan, (
        f"event scheduler diverged from reference scan for "
        f"({bench}, {scheme_name}, {machine_name}): "
        f"ipc {event.ipc} vs {scan.ipc}, cycles {event.cycles} vs "
        f"{scan.cycles}"
    )
    key = golden_key(bench, scheme_name, machine_name)
    pinned = load_golden().get(key)
    assert pinned is not None, f"no golden digest for {key}"
    assert digest(event) == pinned, (
        f"{key} no longer matches its golden SimResult digest "
        f"(ipc {event.ipc}, cycles {event.cycles})"
    )


class TestEverySchemeOnClustered:
    """All registered schemes on the Table 2 clustered machine."""

    @pytest.mark.parametrize("scheme_name", available_schemes())
    @pytest.mark.parametrize("bench", BENCHES)
    def test_scheme_equivalent(self, bench, scheme_name):
        assert_equivalent(bench, scheme_name, "clustered")


class TestEverySchemeOnSmallWindow:
    """All conventional-window schemes where dispatch stalls often."""

    @pytest.mark.parametrize("scheme_name", WINDOW_SCHEMES)
    @pytest.mark.parametrize("bench", BENCHES)
    def test_scheme_equivalent(self, bench, scheme_name):
        assert_equivalent(bench, scheme_name, STALL_MACHINE)


class TestEveryMachine:
    """Each registered machine under a compatible scheme."""

    @pytest.mark.parametrize("scheme_name,machine_name", MACHINE_ROWS)
    def test_machine_equivalent(self, scheme_name, machine_name):
        assert_equivalent("gcc", scheme_name, machine_name)


class TestAblationFamilies:
    """Parametric families, including the wakeup-sensitive corners."""

    @pytest.mark.parametrize("machine_name", ABLATION_MACHINES)
    @pytest.mark.parametrize("bench", BENCHES)
    def test_family_equivalent(self, bench, machine_name):
        assert_equivalent(bench, "general-balance", machine_name)

    @pytest.mark.parametrize("machine_name", FIFO_MACHINES)
    @pytest.mark.parametrize("bench", BENCHES)
    def test_fifo_family_equivalent(self, bench, machine_name):
        assert_equivalent(bench, "fifo", machine_name)

    @pytest.mark.parametrize("machine_name", TIGHT_FIFO_MACHINES)
    @pytest.mark.parametrize("bench", BENCHES)
    def test_tight_fifo_geometry_equivalent(self, bench, machine_name):
        assert_equivalent(bench, "fifo", machine_name)


class TestGolden:
    def test_golden_covers_exactly_the_grid(self):
        assert len(set(GRID)) == len(GRID)
        assert set(load_golden()) == {golden_key(*row) for row in GRID}


class TestSchedulerSelection:
    """``Processor(scheduler=)`` survives only as a bridge to the oracle
    class for ``perfbench/run.py``."""

    @staticmethod
    def build(scheduler):
        from repro.pipeline.config import ProcessorConfig

        return Processor(
            workload("gcc", seed=0),
            ProcessorConfig.default(),
            make_steering("naive"),
            scheduler=scheduler,
        )

    def test_scan_builds_the_oracle(self):
        processor = self.build("scan")
        assert type(processor) is ScanProcessor
        assert processor.run(200).cycles > 0

    @pytest.mark.parametrize("scheduler", [None, "event"])
    def test_default_and_event_build_production(self, scheduler):
        assert type(self.build(scheduler)) is Processor

    def test_unknown_scheduler_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown scheduler"):
            self.build("quantum")

    def test_schedulers_registry(self):
        assert SCHEDULERS == ("event", "scan")


class TestDispatchRouting:
    """Production's fused loop serves both window organisations;
    ScanProcessor's own dispatch loop sends every instruction to the
    helper."""

    def run_counting(self, processor_cls, scheme_name, machine_name):
        """Run gcc, recording each instruction the helper dispatched and
        counting every dispatch (fused or helper)."""
        config = machine_config(machine_name)
        processor = processor_cls(
            workload("gcc", seed=0), config, make_steering(scheme_name)
        )
        helper = processor._dispatch_one_slow
        # ``None`` when the scheme keeps the base no-op hook (fifo).
        on_dispatch = processor._on_dispatch_fn
        dispatched = []
        total = [0]

        def counting(dyn, cluster, cycle):
            ok = helper(dyn, cluster, cycle)
            if ok:
                dispatched.append(dyn)
            return ok

        def counting_hook(ctx, dyn, cluster):
            total[0] += 1
            if on_dispatch is not None:
                on_dispatch(ctx, dyn, cluster)

        processor._dispatch_one_slow = counting
        processor._on_dispatch_fn = counting_hook
        processor.run(N_INSTRUCTIONS, warmup=WARMUP)
        return processor, dispatched, total[0]

    def test_conventional_windows_take_the_fused_loop(self):
        _, dispatched, total = self.run_counting(
            Processor, "general-balance", "clustered"
        )
        assert total >= N_INSTRUCTIONS + WARMUP
        assert dispatched == []

    def test_fifo_windows_take_the_fused_loop(self):
        # Only the FP-copy and register-hazard fallbacks may reach the
        # helper; on the integer gcc stand-in they are rare.
        _, dispatched, total = self.run_counting(
            Processor, "fifo", "clustered-fifo"
        )
        assert total >= N_INSTRUCTIONS + WARMUP
        assert len(dispatched) < 0.05 * total

    @pytest.mark.parametrize(
        "scheme_name,machine_name",
        [("general-balance", "clustered"), ("fifo", "clustered-fifo")],
    )
    def test_scan_oracle_takes_the_helper(self, scheme_name, machine_name):
        processor, dispatched, total = self.run_counting(
            ScanProcessor, scheme_name, machine_name
        )
        assert total >= N_INSTRUCTIONS + WARMUP
        assert len(dispatched) == total
        seen = {id(dyn) for dyn in dispatched}
        assert processor.rob._entries
        assert all(id(dyn) in seen for dyn in processor.rob._entries)

    def test_dispatch_keyword_is_gone(self):
        from repro.pipeline.config import ProcessorConfig

        with pytest.raises(TypeError):
            Processor(
                workload("gcc", seed=0),
                ProcessorConfig.default(),
                make_steering("naive"),
                dispatch="columnar",
            )


class TestFullWindowEdge:
    """Dispatch must stall cleanly, not raise, when a window fills."""

    def test_tiny_window_stalls_and_completes(self):
        result = run_with(Processor, "gcc", "general-balance", "iq-2")
        # Commit retires up to retire_width per cycle, so the measured
        # window may overshoot the target by a cycle's worth.
        assert result.instructions >= N_INSTRUCTIONS
        assert result.stalls["iq"] > 0

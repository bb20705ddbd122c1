"""Integration tests: full-pipeline invariants on short simulations."""

import dataclasses
import re

import pytest

from repro.core.steering import make_steering
from repro.errors import SimulationError, SteeringError
from repro.isa import DynInst, InstrClass
from repro.pipeline import Processor, ProcessorConfig
from repro.workloads import workload


def spy_commits(processor, callback):
    """Invoke ``callback(dyn)`` for every instruction commit retires.

    Works in both dispatch modes: the columnar commit loop inlines the
    ``stats.on_commit`` call away, so patching the stats hook would see
    nothing — instead the commit *stage* is wrapped and the retired
    instructions read off the ROB delta (commit pops from the left).
    """
    original = processor._commit_stage

    def wrapped(cycle):
        before = list(processor.rob._entries)
        original(cycle)
        retired = len(before) - len(processor.rob._entries)
        for dyn in before[:retired]:
            callback(dyn)

    processor._commit_stage = wrapped


def run_processor(bench="gcc", scheme="general-balance", config=None, n=2000):
    wl = workload(bench)
    cfg = config or ProcessorConfig.default()
    steering = make_steering(scheme)
    if getattr(steering, "requires_fifo_issue", False):
        cfg = cfg.with_fifo_issue()
    processor = Processor(wl, cfg, steering)
    result = processor.run(n, warmup=500)
    return processor, result


class TestBasicExecution:
    def test_commits_requested_instructions(self):
        _, result = run_processor(n=1500)
        assert result.instructions >= 1500

    def test_ipc_in_sane_range(self):
        _, result = run_processor()
        assert 0.3 < result.ipc < 8.0

    def test_cycles_positive(self):
        _, result = run_processor()
        assert result.cycles > 0


class TestCommitOrder:
    def test_commit_cycles_monotonic_with_seq(self):
        """In-order commit: commit cycles never decrease in program order."""
        wl = workload("li")
        processor = Processor(
            wl, ProcessorConfig.default(), make_steering("general-balance")
        )
        committed = []
        spy_commits(
            processor, lambda dyn: committed.append((dyn.seq, processor.cycle))
        )
        processor._run_until(1000)
        seqs = [s for s, _ in committed]
        cycles = [c for _, c in committed]
        assert seqs == sorted(seqs)
        assert cycles == sorted(cycles)

    def test_retire_width_respected(self):
        wl = workload("m88ksim")
        config = ProcessorConfig.default()
        processor = Processor(wl, config, make_steering("general-balance"))
        per_cycle = {}

        def spy(dyn: DynInst):
            per_cycle[processor.cycle] = per_cycle.get(processor.cycle, 0) + 1

        spy_commits(processor, spy)
        processor._run_until(2000)
        assert max(per_cycle.values()) <= config.retire_width


class TestTimingInvariants:
    def _collect(self, bench="gcc", scheme="general-balance", n=1500):
        wl = workload(bench)
        processor = Processor(
            wl, ProcessorConfig.default(), make_steering(scheme)
        )
        seen = []
        spy_commits(processor, seen.append)
        processor._run_until(n)
        return seen

    def test_stage_ordering_per_instruction(self):
        for dyn in self._collect():
            assert dyn.fetch_cycle >= 0
            assert dyn.dispatch_cycle >= dyn.fetch_cycle
            if dyn.issue_cycle >= 0:  # jumps/nops never issue
                assert dyn.issue_cycle > dyn.dispatch_cycle
                assert dyn.complete_cycle > dyn.issue_cycle
            assert dyn.commit_cycle >= dyn.complete_cycle

    def test_operands_ready_before_issue(self):
        for dyn in self._collect():
            if dyn.issue_cycle < 0:
                continue
            for provider in dyn.providers:
                assert provider.complete_cycle <= dyn.issue_cycle

    def test_loads_respect_memory_latency(self):
        for dyn in self._collect():
            if dyn.cls is InstrClass.LOAD and dyn.issue_cycle >= 0:
                assert dyn.mem_latency >= 1
                assert dyn.complete_cycle >= dyn.ea_done_cycle

    def test_clusters_assigned_legally(self):
        for dyn in self._collect():
            assert dyn.cluster in (0, 1)
            if dyn.cls is InstrClass.COMPLEX_INT:
                assert dyn.cluster == 0
            if dyn.cls is InstrClass.FP:
                assert dyn.cluster == 1


class TestBaselineMachine:
    def test_baseline_never_communicates(self, gcc_base_result):
        result = gcc_base_result
        assert result.copies_created == 0
        assert result.copies_issued == 0
        assert result.comms_per_instr == 0.0

    def test_baseline_uses_only_cluster0_for_int(self, gcc_base_result):
        # SpecInt: no FP instructions
        assert gcc_base_result.steered[1] == 0

    def test_baseline_never_replicates(self, gcc_base_result):
        assert gcc_base_result.avg_replication == 0.0


class TestClusteredMachine:
    def test_general_balance_uses_both_clusters(self, gcc_general_result):
        steered = gcc_general_result.steered
        assert steered[0] > 0 and steered[1] > 0
        total = steered[0] + steered[1]
        assert 0.25 < steered[0] / total < 0.75

    def test_communications_occur(self, gcc_general_result):
        assert gcc_general_result.copies_issued > 0

    def test_replication_positive_but_bounded(self, gcc_general_result):
        # Far below full replication of 32 integer registers (Figure 15's
        # point: only ~3 registers need duplicating, not the whole file).
        assert 0 < gcc_general_result.avg_replication < 16

    def test_issue_width_respected(self):
        wl = workload("ijpeg")
        config = ProcessorConfig.default()
        processor = Processor(wl, config, make_steering("general-balance"))
        issued_at = {}
        real_issue = processor._issue_stage

        def spy(cycle):
            before = {
                c: len(processor.iqs[c]) for c in (0, 1)
            }
            real_issue(cycle)
            for c in (0, 1):
                removed = before[c] - len(processor.iqs[c])
                # Removals during issue == instructions issued this cycle
                # (dispatch inserts later in the cycle).
                issued_at.setdefault(c, []).append(removed)

        processor._issue_stage = spy
        processor._run_until(2000)
        for cluster in (0, 1):
            width = config.clusters[cluster].issue_width
            assert max(issued_at[cluster]) <= width


class TestSchemeConfigCompatibility:
    def test_scheme_needing_copies_on_baseline_raises(self):
        wl = workload("gcc")
        processor = Processor(
            wl, ProcessorConfig.baseline(), make_steering("modulo")
        )
        with pytest.raises(SteeringError):
            processor.run(500, warmup=0)

    def test_fifo_scheme_requires_fifo_windows(self):
        wl = workload("gcc")
        with pytest.raises(SteeringError):
            Processor(
                wl, ProcessorConfig.default(), make_steering("fifo")
            )


class TestEverySchemeRuns:
    @pytest.mark.parametrize(
        "scheme",
        [
            "modulo",
            "ldst-slice",
            "br-slice",
            "ldst-nonslice-balance",
            "br-nonslice-balance",
            "ldst-slice-balance",
            "br-slice-balance",
            "ldst-priority",
            "br-priority",
            "general-balance",
            "fifo",
            "static-ldst",
            "static-ldst+1",
        ],
    )
    def test_scheme_completes(self, scheme, fast_sim):
        result = fast_sim("li", scheme, n_instructions=1200, warmup=300)
        assert result.instructions >= 1200
        assert result.ipc > 0.2


class TestDeadlockReport:
    def test_wedged_pipeline_reports_its_state(self):
        """One FIFO per cluster wedges gcc (see ROADMAP item 3): the
        error must say what the pipeline is holding."""
        from repro.spec import machine_config

        config = dataclasses.replace(
            machine_config("clustered-fifo"), n_fifos=1
        )
        processor = Processor(workload("gcc"), config, make_steering("fifo"))
        with pytest.raises(SimulationError) as info:
            processor.run(2000, warmup=0)
        message = str(info.value)
        assert "no commit for 20000 cycles" in message
        assert re.search(r"decode head seq \d+ [A-Z_]+ with \d", message)
        assert re.search(r"ROB \d+/64", message)
        assert re.search(r"windows fifo-iq0 \d+/8, fifo-iq1 \d+/8", message)
        assert re.search(r"free registers cluster0 \d+/96, cluster1 \d+/96",
                         message)
        assert re.search(r"stalls rob \d+, regs \d+, iq [1-9]\d*", message)

    def test_state_names_the_rob_head(self):
        processor = Processor(
            workload("gcc"), ProcessorConfig.default(),
            make_steering("general-balance"),
        )
        processor._run_until(200)
        head = processor.rob._entries[0]
        assert (
            f"ROB head seq {head.seq} {head.cls.name} on cluster "
            f"{head.cluster} (dispatch {head.dispatch_cycle}, issue "
            f"{head.issue_cycle}, complete {head.complete_cycle})"
        ) in processor._pipeline_state()

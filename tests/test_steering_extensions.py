"""Tests for the extension steering schemes."""

import pytest

from repro import simulate, simulate_baseline
from repro.core.steering import (
    AffinityOnlySteering,
    BalanceOnlySteering,
    PrimaryClusterSteering,
    available_schemes,
    make_steering,
)
from repro.isa import DynInst, Instruction, Opcode

from test_steering_unit import FakeMachine, choose, dyn


class TestAffinityOnly:
    def test_follows_operands(self):
        scheme = AffinityOnlySteering()
        scheme.reset(FakeMachine())
        machine = FakeMachine()
        # Integer architectural state starts in cluster 0.
        assert choose(scheme, machine, dyn(srcs=(1, 2))) == 0

    def test_tie_goes_to_integer_cluster(self):
        scheme = AffinityOnlySteering()
        machine = FakeMachine()
        scheme.reset(machine)
        assert choose(scheme, machine, dyn(srcs=())) == 0

    def test_collapses_onto_one_cluster_end_to_end(self, fast_sim):
        """Without balancing, dependence chains pull nearly everything to
        the cluster holding the initial state."""
        result = fast_sim("gcc", "affinity-only")
        total = sum(result.steered)
        dominant = max(result.steered) / total
        assert dominant > 0.8

    def test_low_communications(self, fast_sim):
        affinity = fast_sim("gcc", "affinity-only")
        balance = fast_sim("gcc", "balance-only")
        assert affinity.comms_per_instr < balance.comms_per_instr


class TestBalanceOnly:
    def test_picks_least_loaded(self):
        scheme = BalanceOnlySteering()
        machine = FakeMachine()
        scheme.reset(machine)
        machine.ready_counts = [9, 2]
        assert choose(scheme, machine, dyn()) == 1

    def test_spreads_work_end_to_end(self, fast_sim):
        result = fast_sim("gcc", "balance-only")
        total = sum(result.steered)
        assert max(result.steered) / total < 0.7

    def test_communicates_heavily(self, fast_sim):
        balance = fast_sim("gcc", "balance-only")
        general = fast_sim("gcc", "general-balance")
        assert balance.comms_per_instr > general.comms_per_instr


class TestPrimaryCluster:
    def test_destination_parity_decides(self):
        scheme = PrimaryClusterSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        even_dst = dyn(dst=6, srcs=(1,))
        odd_dst = dyn(dst=7, srcs=(1,))
        assert choose(scheme, machine, even_dst) == 0
        assert choose(scheme, machine, odd_dst) == 1

    def test_imbalance_override(self):
        scheme = PrimaryClusterSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        for _ in range(20):
            scheme.imbalance.on_steer(0)
        assert choose(scheme, machine, dyn(dst=6, srcs=(1,))) == 1

    def test_store_uses_first_source(self):
        scheme = PrimaryClusterSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        store = dyn(Opcode.STORE, dst=None, srcs=(2, 5))
        assert choose(scheme, machine, store) == 0  # reg 2 is even

    def test_end_to_end(self, fast_sim):
        result = fast_sim("li", "primary-cluster", n_instructions=1500,
                          warmup=400)
        assert result.instructions >= 1500


class TestDecomposition:
    def test_combination_beats_both_halves(self, fast_base, fast_sim):
        """The headline claim of the decomposition ablation, in miniature."""
        base = fast_base("m88ksim")
        general = fast_sim("m88ksim", "general-balance").speedup_over(base)
        affinity = fast_sim("m88ksim", "affinity-only").speedup_over(base)
        balance = fast_sim("m88ksim", "balance-only").speedup_over(base)
        assert general >= affinity - 0.02
        assert general >= balance - 0.02


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["affinity-only", "balance-only", "primary-cluster"]
    )
    def test_registered(self, name):
        assert name in available_schemes()
        assert make_steering(name) is not None

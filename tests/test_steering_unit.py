"""Unit tests for the steering schemes against a mock machine view."""

import pytest

from repro.core.steering import (
    FP_CLUSTER,
    INT_CLUSTER,
    GeneralBalanceSteering,
    ModuloSteering,
    NaiveSteering,
    NonSliceBalanceSteering,
    SliceBalanceSteering,
    SteeringContext,
    affinity_cluster,
    least_loaded,
    make_steering,
    operand_presence,
)
from repro.core.steering.slice_steering import LdStSliceSteering
from repro.isa import DynInst, Instruction, Opcode, fp_reg
from repro.pipeline import ProcessorConfig
from repro.rename import MapTable


class FakeMachine:
    """Just enough machine for unit-testing choose_cluster()/on_cycle()."""

    def __init__(self):
        self.config = ProcessorConfig.default()
        self.map_table = MapTable()
        self.ready_counts = [0, 0]
        #: The two windows; only their lengths (occupancy) are read.
        self.iqs = [[], []]
        self.cycle = 0

    def presence_mask(self, reg):
        return self.map_table.presence_mask(reg)

    def iq_occupancy(self, cluster):
        return len(self.iqs[cluster])


def choose(scheme, machine, d):
    """*scheme*'s cluster for *d* through a fresh context over *machine*."""
    return scheme.choose_cluster(SteeringContext(machine), d)


def dyn(op=Opcode.ADD, pc=0x1000, dst=5, srcs=(1, 2), target=None, seq=0):
    return DynInst(seq, Instruction(pc, op, dst, srcs, target=target))


class TestHelpers:
    def test_operand_presence_initial_state(self):
        machine = FakeMachine()
        counts = operand_presence(dyn(srcs=(1, 2)), machine)
        assert counts == (2, 0)  # int arch state lives in cluster 0

    def test_operand_presence_counts_fp(self):
        machine = FakeMachine()
        d = dyn(
            Opcode.FADD, dst=fp_reg(0), srcs=(fp_reg(1), fp_reg(2))
        )
        assert operand_presence(d, machine) == (0, 2)

    def test_least_loaded_by_ready_counts(self):
        machine = FakeMachine()
        machine.ready_counts = [5, 1]
        assert least_loaded(machine) == 1

    def test_least_loaded_tiebreak_by_occupancy(self):
        machine = FakeMachine()
        machine.iqs = [[None] * 10, [None] * 3]
        assert least_loaded(machine) == 1

    def test_affinity_follows_majority(self):
        machine = FakeMachine()
        cluster, tie = affinity_cluster(dyn(srcs=(1, 2)), machine)
        assert cluster == 0 and not tie

    def test_affinity_tie_reported(self):
        machine = FakeMachine()
        _, tie = affinity_cluster(dyn(srcs=()), machine)
        assert tie


class TestNaive:
    def test_int_to_cluster0_fp_to_cluster1(self):
        scheme = NaiveSteering()
        scheme.reset(FakeMachine())
        machine = FakeMachine()
        assert choose(scheme, machine, dyn()) == INT_CLUSTER
        fp = dyn(Opcode.FADD, dst=fp_reg(0), srcs=(fp_reg(1),))
        assert choose(scheme, machine, fp) == FP_CLUSTER
        load = dyn(Opcode.LOAD, dst=5, srcs=(1,))
        assert choose(scheme, machine, load) == INT_CLUSTER


class TestModulo:
    def test_alternates(self):
        scheme = ModuloSteering()
        scheme.reset(FakeMachine())
        machine = FakeMachine()
        picks = [choose(scheme, machine, dyn(seq=i)) for i in range(6)]
        assert picks == [0, 1, 0, 1, 0, 1]


class TestSliceSteering:
    def test_slice_to_int_cluster(self):
        scheme = LdStSliceSteering()
        scheme.reset(FakeMachine())
        machine = FakeMachine()
        load = dyn(Opcode.LOAD, pc=0x2000, dst=5, srcs=(1,))
        # Before any observation the load is not known to be in the slice.
        assert choose(scheme, machine, load) == FP_CLUSTER
        scheme.on_dispatch(SteeringContext(machine), load, FP_CLUSTER)
        # Now its pc is flagged; the next instance steers to cluster 0.
        assert choose(scheme, machine, load) == INT_CLUSTER

    def test_slice_tagging_for_stats(self):
        scheme = LdStSliceSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        load = dyn(Opcode.LOAD, pc=0x2000, dst=5, srcs=(1,))
        scheme.on_dispatch(SteeringContext(machine), load, 0)
        assert load.in_ldst_slice

    def test_unknown_kind_rejected(self):
        from repro.core.steering.slice_steering import SliceSteering

        with pytest.raises(ValueError):
            SliceSteering("bogus")


class TestNonSliceBalance:
    def test_strong_imbalance_overrides_affinity(self):
        scheme = NonSliceBalanceSteering("ldst")
        machine = FakeMachine()
        scheme.reset(machine)
        # Pile I1 onto cluster 0 beyond the threshold.
        for _ in range(20):
            scheme.imbalance.on_steer(0)
        # Operands live in cluster 0, but balance demands cluster 1.
        assert choose(scheme, machine, dyn(srcs=(1, 2))) == 1

    def test_affinity_when_balanced(self):
        scheme = NonSliceBalanceSteering("ldst")
        machine = FakeMachine()
        scheme.reset(machine)
        assert choose(scheme, machine, dyn(srcs=(1, 2))) == 0


class TestSliceBalance:
    def test_whole_slice_remapped_under_imbalance(self):
        scheme = SliceBalanceSteering("ldst")
        machine = FakeMachine()
        machine.stats = __import__(
            "repro.pipeline.stats", fromlist=["SimStats"]
        ).SimStats()
        scheme.reset(machine)
        load = dyn(Opcode.LOAD, pc=0x2000, dst=5, srcs=(1,))
        scheme.on_dispatch(SteeringContext(machine), load, 0)
        sid = scheme.slice_ids.slice_of(0x2000)
        assert sid == 0x2000
        first = scheme._steer_slice(sid, machine)
        # Overload that cluster heavily.
        for _ in range(30):
            scheme.imbalance.on_steer(first)
        second = scheme._steer_slice(sid, machine)
        assert second == 1 - first
        assert scheme.clusters.remaps == 1


class TestGeneralBalance:
    def test_affinity_followed_when_balanced(self):
        scheme = GeneralBalanceSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        assert choose(scheme, machine, dyn(srcs=(1, 2))) == 0

    def test_tie_goes_least_loaded(self):
        scheme = GeneralBalanceSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        machine.ready_counts = [6, 1]
        assert choose(scheme, machine, dyn(srcs=())) == 1

    def test_imbalance_override(self):
        scheme = GeneralBalanceSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        for _ in range(20):
            scheme.imbalance.on_steer(0)
        assert choose(scheme, machine, dyn(srcs=(1, 2))) == 1

    def test_copies_do_not_count_in_i1(self):
        from repro.isa import make_copy_inst

        scheme = GeneralBalanceSteering()
        machine = FakeMachine()
        scheme.reset(machine)
        copy = make_copy_inst(0, 5, 1)
        scheme.on_dispatch(SteeringContext(machine), copy, 0)
        assert scheme.imbalance.counter == 0


class TestRegistry:
    def test_all_names_instantiate(self):
        from repro.core.steering import available_schemes

        for name in available_schemes():
            scheme = make_steering(name)
            assert scheme is not None

    def test_unknown_name(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_steering("definitely-not-a-scheme")

    def test_duplicate_registration_rejected(self):
        from repro.core.steering import register_scheme
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            register_scheme("naive", NaiveSteering)

    def test_custom_registration_roundtrip(self):
        from repro.core.steering import (
            available_schemes,
            register_scheme,
        )

        class Custom(NaiveSteering):
            name = "test-custom"

        if "test-custom" not in available_schemes():
            register_scheme("test-custom", Custom)
        assert isinstance(make_steering("test-custom"), Custom)

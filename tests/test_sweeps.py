"""Tests for the parameter-sweep utility and occupancy statistics."""

import pytest

from repro.analysis import Sweep, sweep
from repro.cli import main
from repro.errors import ConfigError
from repro.pipeline import ProcessorConfig
from repro.spec.overrides import apply_override


class TestApply:
    def test_machine_level_parameter(self):
        config = apply_override(ProcessorConfig.default(), "bypass_ports", 1)
        assert config.bypass_ports == 1

    def test_cluster_level_parameter(self):
        config = apply_override(ProcessorConfig.default(), "issue_width", 6)
        assert config.clusters[0].issue_width == 6
        assert config.clusters[1].issue_width == 6

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            apply_override(ProcessorConfig.default(), "warp_factor", 9)


class TestSweep:
    def test_points_cover_values(self):
        points = sweep(
            "bypass_ports",
            [1, 3],
            bench="li",
            n_instructions=800,
            warmup=200,
        )
        assert set(points) == {1, 3}

    def test_base_ipc_cached(self):
        s = Sweep(
            "bypass_ports", [3], bench="li", n_instructions=800, warmup=200
        )
        first = s.base_ipc()
        assert s.base_ipc() == first

    def test_format_contains_values(self):
        s = Sweep(
            "bypass_ports", [1, 3], bench="li",
            n_instructions=800, warmup=200,
        )
        text = s.format()
        assert "bypass_ports" in text
        assert "1" in text and "3" in text

    def test_width_sweep_is_monotonic_ish(self):
        """More issue width never hurts (beyond noise)."""
        points = sweep(
            "issue_width",
            [2, 8],
            bench="m88ksim",
            n_instructions=1500,
            warmup=400,
        )
        assert points[8] > points[2] - 0.03


class TestSweepCLI:
    def test_cli_sweep(self, capsys):
        code = main(
            ["sweep", "bypass_ports", "1", "3", "-b", "li",
             "-n", "800", "-w", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep of bypass_ports" in out


class TestOccupancyStats:
    def test_occupancy_reported(self, gcc_general_result):
        result = gcc_general_result
        assert 0 < result.avg_rob_occupancy <= 64
        assert 0 < result.avg_iq_occupancy[0] <= 64
        assert 0 < result.avg_iq_occupancy[1] <= 64

    def test_rob_fuller_on_memory_bound_bench(self, fast_sim):
        compress = fast_sim("compress", "general-balance")
        assert compress.avg_rob_occupancy > 5

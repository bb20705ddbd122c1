"""Tests for the campaign engine: grids, shared traces, stores, workers."""

import dataclasses
import filecmp
import os
import shutil

import pytest

from repro.analysis.campaign import (
    Campaign,
    CampaignError,
    CampaignResults,
    expand_grid,
    run_campaign,
)
from repro.errors import ConfigError
from repro.spec import MachineSpec, RunSpec
from repro.spec.facade import execute
from repro.workloads import (
    clear_workload_cache,
    reset_trace_stats,
    trace_build_counts,
)

#: Tiny windows: the campaign tests exercise orchestration, not timing.
N = 500
W = 150


def tiny_grid(benches=("gcc", "li"), schemes=("modulo", "general-balance")):
    return expand_grid(list(benches), list(schemes), n_instructions=N, warmup=W)


def shape(value):
    """*value*'s type, recursively through containers and dataclasses:
    ``==`` cannot tell ``5`` from ``5.0``, so a lossy decoder hides."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(
            shape(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return type(value), tuple(shape(v) for v in value)
    if isinstance(value, dict):
        return dict, tuple((k, shape(v)) for k, v in value.items())
    return type(value)


class TestGridExpansion:
    def test_full_cross_product(self):
        points = expand_grid(
            ["gcc", "li"],
            ["modulo", "fifo"],
            machines=("clustered", "baseline"),
            seeds=(0, 1, 2),
            n_instructions=N,
            warmup=W,
        )
        assert len(points) == 2 * 2 * 2 * 3
        assert len(set(points)) == len(points)

    def test_points_carry_run_parameters(self):
        (point,) = expand_grid(["go"], ["fifo"], n_instructions=123, warmup=45)
        assert point.bench == "go"
        assert point.scheme == "fifo"
        assert point.machine.name == "clustered"
        assert point.n_instructions == 123
        assert point.warmup == 45

    def test_shared_trace_points_are_adjacent(self):
        """Grouping works best when (bench, seed) runs are contiguous."""
        points = expand_grid(
            ["gcc", "li"], ["modulo", "fifo"], seeds=(0, 1),
            n_instructions=N, warmup=W,
        )
        keys = [p.trace_key for p in points]
        # Each trace key appears as one contiguous block.
        blocks = [
            key for i, key in enumerate(keys) if i == 0 or keys[i - 1] != key
        ]
        assert len(blocks) == len(set(keys))

    def test_overrides_expand(self):
        points = expand_grid(
            ["gcc"],
            ["modulo"],
            overrides=((("bypass_ports", 1),), (("bypass_ports", 3),)),
            n_instructions=N,
            warmup=W,
        )
        assert [p.machine.overrides for p in points] == [
            (("bypass_ports", 1),),
            (("bypass_ports", 3),),
        ]

    def test_override_applies_to_config(self):
        point = RunSpec(
            "gcc", "modulo", MachineSpec(overrides=(("bypass_ports", 1),))
        )
        assert point.config().bypass_ports == 1

    def test_cluster_override_applies_symmetrically(self):
        point = RunSpec(
            "gcc", "modulo", MachineSpec(overrides=(("iq_size", 12),))
        )
        config = point.config()
        assert config.clusters[0].iq_size == 12
        assert config.clusters[1].iq_size == 12

    def test_unknown_machine_raises(self):
        with pytest.raises(ConfigError):
            RunSpec("gcc", "modulo", machine="quantum").config()

    def test_unknown_override_raises(self):
        with pytest.raises(ConfigError):
            RunSpec(
                "gcc", "modulo", MachineSpec(overrides=(("warp_factor", 9),))
            ).config()


class TestTraceSharing:
    def test_trace_generated_once_per_bench_seed(self):
        """The acceptance criterion: a 2-bench x 3-scheme grid decodes
        each workload trace exactly once."""
        clear_workload_cache()
        reset_trace_stats()
        points = expand_grid(
            ["gcc", "li"],
            ["modulo", "general-balance", "ldst-slice"],
            n_instructions=N,
            warmup=W,
        )
        Campaign(points).run()
        counts = trace_build_counts()
        assert counts == {("gcc", 0): 1, ("li", 0): 1}

    def test_distinct_seeds_build_distinct_traces(self):
        clear_workload_cache()
        reset_trace_stats()
        points = expand_grid(
            ["li"], ["modulo", "fifo"], seeds=(0, 3),
            n_instructions=N, warmup=W,
        )
        Campaign(points).run()
        assert trace_build_counts() == {("li", 0): 1, ("li", 3): 1}


class TestExecution:
    def test_results_align_with_points(self):
        points = tiny_grid()
        results = Campaign(points).run()
        assert len(results) == len(points)
        for point, run in zip(points, results):
            assert run.point == point
            assert run.result.benchmark == point.bench
            assert run.result.scheme == point.scheme
            assert run.result.ipc > 0

    def test_parallel_equals_serial(self):
        points = tiny_grid()
        serial = Campaign(points, workers=1).run()
        parallel = Campaign(points, workers=4).run()
        for s, p in zip(serial, parallel):
            assert s.point == p.point
            assert s.result == p.result

    def test_result_lookup(self):
        results = Campaign(tiny_grid()).run()
        result = results.result(bench="li", scheme="modulo")
        assert result.benchmark == "li"
        with pytest.raises(KeyError):
            results.result(bench="li")  # two schemes match

    def test_execute_matches_campaign(self):
        point = RunSpec("gcc", "modulo", n_instructions=N, warmup=W)
        direct = execute(point)
        via_engine = Campaign([point]).run()[0].result
        assert direct == via_engine


class TestFailureSurfacing:
    def test_serial_failure_names_the_point(self):
        points = [
            RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
            RunSpec("gcc", "no-such-scheme", n_instructions=N, warmup=W),
        ]
        with pytest.raises(CampaignError) as info:
            Campaign(points).run()
        failures = info.value.failures
        assert len(failures) == 1
        assert failures[0][0].scheme == "no-such-scheme"
        assert "no-such-scheme" in str(info.value)
        # The worker traceback is preserved for debugging.
        assert "Traceback" in failures[0][1]

    def test_parallel_failure_surfaces_from_worker(self):
        points = [
            RunSpec("gcc", "modulo", n_instructions=N, warmup=W),
            RunSpec("li", "no-such-scheme", n_instructions=N, warmup=W),
        ]
        with pytest.raises(CampaignError) as info:
            Campaign(points, workers=2).run()
        assert info.value.failures[0][0].bench == "li"

    def test_good_points_do_not_mask_failures(self):
        """A failing cell fails the campaign even with healthy siblings."""
        points = tiny_grid() + [
            RunSpec("gcc", "broken", n_instructions=N, warmup=W)
        ]
        with pytest.raises(CampaignError):
            Campaign(points).run()


class TestStores:
    @pytest.fixture(scope="class")
    def results(self):
        return Campaign(tiny_grid(schemes=("modulo", "fifo"))).run()

    def test_json_round_trip(self, results, tmp_path):
        path = str(tmp_path / "results.json")
        results.save_json(path)
        loaded = CampaignResults.load_json(path)
        assert [(r.point, r.result) for r in loaded] == [
            (r.point, r.result) for r in results
        ]

    def test_csv_round_trip(self, results, tmp_path):
        path = str(tmp_path / "results.csv")
        results.save_csv(path)
        loaded = CampaignResults.load_csv(path)
        assert [(r.point, r.result) for r in loaded] == [
            (r.point, r.result) for r in results
        ]

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_round_trip_keeps_field_types(self, results, tmp_path, ext):
        """An int field comes back an int, a tuple a tuple of its items'
        types, in the point and the result alike."""
        path = str(tmp_path / f"results.{ext}")
        results.save(path)
        loaded = CampaignResults.load(path)
        assert [(shape(r.point), shape(r.result)) for r in loaded] == [
            (shape(r.point), shape(r.result)) for r in results
        ]
        assert type(loaded[0].result.cycles) is int
        assert type(loaded[0].result.steered[0]) is int

    def test_csv_round_trip_with_overrides(self, tmp_path):
        points = [
            RunSpec(
                "li",
                "modulo",
                MachineSpec(overrides=(("bypass_ports", 1),)),
                n_instructions=N,
                warmup=W,
            )
        ]
        results = Campaign(points).run()
        path = str(tmp_path / "o.csv")
        results.save_csv(path)
        loaded = CampaignResults.load_csv(path)
        assert loaded[0].point == points[0]
        assert loaded[0].result == results[0].result

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_nested_override_round_trip(self, tmp_path, ext):
        """Regression: dotted (nested) overrides must survive both
        stores byte-exactly — resume keys on full point equality, so a
        lossy round trip would silently re-simulate every such point."""
        points = [
            RunSpec(
                "li",
                "modulo",
                MachineSpec(overrides=(
                    ("clusters.0.iq_size", 128),
                    ("l1d.size_kb", 32),
                    ("bypass_latency", 2),
                )),
                n_instructions=N,
                warmup=W,
            )
        ]
        results = Campaign(points).run()
        store = str(tmp_path / f"nested.{ext}")
        results.save(store)
        loaded = CampaignResults.load(store)
        assert loaded[0].point == points[0]
        assert loaded[0].point.machine.overrides == points[0].machine.overrides
        assert loaded[0].result == results[0].result
        # And the store serves the point on resume without re-simulating.
        rerun = run_campaign(points, store=store, resume=True)
        assert rerun.n_simulated == 0
        assert rerun.n_cached == 1


#: Stores written by ``run_campaign(pinned_grid(), store=...json)`` and
#: ``save_csv`` before campaign points were run specs; the store format
#: must not move under a refactor.
PINNED = os.path.join(os.path.dirname(__file__), "stores")


def pinned_grid():
    """The points the stores under ``tests/stores/`` hold, in order."""
    return expand_grid(
        ["gcc"], ["modulo", "general-balance"],
        overrides=({"clusters.0.iq_size": 24, "bypass_latency": 2},),
        n_instructions=300, warmup=100,
    ) + expand_grid(
        ["li"], ["fifo"], machines=("bypass-latency-2",), seeds=(1,),
        n_instructions=300, warmup=100,
    )


class TestPinnedStoreFormats:
    def test_json_and_csv_hold_the_same_runs(self):
        json_runs = CampaignResults.load(os.path.join(PINNED, "campaign.json"))
        csv_runs = CampaignResults.load(os.path.join(PINNED, "campaign.csv"))
        assert [r.point for r in json_runs] == pinned_grid()
        assert [(r.point, r.result) for r in json_runs] == [
            (r.point, r.result) for r in csv_runs
        ]
        assert all(r.elapsed_seconds for r in json_runs)
        assert all(r.timing for r in json_runs)
        assert all(r.elapsed_seconds for r in csv_runs)

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_resaves_byte_for_byte(self, tmp_path, ext):
        pinned = os.path.join(PINNED, f"campaign.{ext}")
        copy = str(tmp_path / f"copy.{ext}")
        CampaignResults.load(pinned).save(copy)
        assert filecmp.cmp(pinned, copy, shallow=False)

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_resume_serves_every_point(self, tmp_path, ext):
        store = str(tmp_path / f"store.{ext}")
        shutil.copy(os.path.join(PINNED, f"campaign.{ext}"), store)
        run = run_campaign(pinned_grid(), store=store, resume=True)
        assert (run.n_cached, run.n_simulated) == (3, 0)
        assert filecmp.cmp(
            os.path.join(PINNED, f"campaign.{ext}"), store, shallow=False
        )


class TestAggregation:
    def test_multi_seed_mean_and_std(self):
        points = expand_grid(
            ["li"], ["modulo"], seeds=(0, 1, 2), n_instructions=N, warmup=W
        )
        results = Campaign(points).run()
        (agg,) = results.aggregate()
        ipcs = [run.result.ipc for run in results]
        assert agg.n_seeds == 3
        assert agg.seeds == (0, 1, 2)
        assert agg.ipc == pytest.approx(sum(ipcs) / 3)
        assert agg.ipc_std > 0  # different seeds, different traces

    def test_single_seed_aggregates_losslessly(self):
        results = Campaign(tiny_grid()).run()
        aggs = results.aggregate()
        assert len(aggs) == len(results)
        for agg, run in zip(aggs, results):
            assert agg.ipc == run.result.ipc
            assert agg.ipc_std == 0.0


class TestIncrementalCampaigns:
    def test_no_store_matches_plain_campaign(self):
        points = tiny_grid()
        run = run_campaign(points)
        plain = Campaign(points).run()
        assert run.n_cached == 0
        assert run.n_simulated == len(points)
        assert [(r.point, r.result) for r in run.results] == [
            (r.point, r.result) for r in plain
        ]

    def test_resume_skips_stored_points(self, tmp_path):
        store = str(tmp_path / "store.json")
        first = run_campaign(tiny_grid(), store=store)
        assert first.n_simulated == len(tiny_grid())
        again = run_campaign(tiny_grid(), store=store, resume=True)
        assert again.n_cached == len(tiny_grid())
        assert again.n_simulated == 0
        assert [(r.point, r.result) for r in again.results] == [
            (r.point, r.result) for r in first.results
        ]

    def test_resume_simulates_only_missing_points(self, tmp_path):
        store = str(tmp_path / "store.json")
        run_campaign(tiny_grid(schemes=("modulo",)), store=store)
        grown = tiny_grid(schemes=("modulo", "fifo"))
        run = run_campaign(grown, store=store, resume=True)
        assert run.n_cached == 2  # the two modulo points
        assert run.n_simulated == 2  # the two fifo points
        assert len(run.results) == 4
        # And the order still follows the requested grid.
        assert [r.point for r in run.results] == grown

    def test_changed_point_is_resimulated(self, tmp_path):
        """Lookup is by full point equality: changing the window size
        invalidates the stored result instead of reusing it."""
        store = str(tmp_path / "store.json")
        run_campaign(tiny_grid(schemes=("modulo",)), store=store)
        wider = expand_grid(
            ["gcc", "li"], ["modulo"], n_instructions=N + 100, warmup=W
        )
        run = run_campaign(wider, store=store, resume=True)
        assert run.n_cached == 0
        assert run.n_simulated == 2

    def test_store_accumulates_across_grids(self, tmp_path):
        store = str(tmp_path / "store.json")
        run_campaign(tiny_grid(schemes=("modulo",)), store=store, resume=True)
        run_campaign(tiny_grid(schemes=("fifo",)), store=store, resume=True)
        stored = CampaignResults.load(store)
        assert {r.point.scheme for r in stored} == {"modulo", "fifo"}
        # A third run over the union simulates nothing.
        union = tiny_grid(schemes=("modulo", "fifo"))
        run = run_campaign(union, store=store, resume=True)
        assert run.n_simulated == 0

    def test_csv_store_round_trips(self, tmp_path):
        store = str(tmp_path / "store.csv")
        run_campaign(tiny_grid(schemes=("modulo",)), store=store)
        run = run_campaign(
            tiny_grid(schemes=("modulo",)), store=store, resume=True
        )
        assert run.n_simulated == 0

    def test_resume_without_store_raises(self):
        with pytest.raises(ConfigError, match="store"):
            run_campaign(tiny_grid(), resume=True)

    def test_unknown_store_extension_raises(self, tmp_path):
        with pytest.raises(ConfigError, match=".json or .csv"):
            run_campaign(
                tiny_grid(), store=str(tmp_path / "store.parquet")
            )

    def test_resume_with_missing_store_runs_everything(self, tmp_path):
        store = str(tmp_path / "fresh.json")
        run = run_campaign(tiny_grid(), store=store, resume=True)
        assert run.n_cached == 0
        assert run.n_simulated == len(tiny_grid())


class TestSweepIntegration:
    def test_sweep_routes_through_campaign(self):
        from repro.analysis import Sweep

        s = Sweep("bypass_ports", [1, 3], bench="li",
                  n_instructions=N, warmup=W)
        points = s.campaign_points()
        assert [p.machine.overrides for p in points] == [
            (("bypass_ports", 1),),
            (("bypass_ports", 3),),
        ]
        assert set(s.run()) == {1, 3}

    def test_sweep_rejects_unknown_param_before_running(self):
        from repro.analysis import Sweep

        with pytest.raises(ConfigError):
            Sweep("warp_factor", [1], bench="li",
                  n_instructions=N, warmup=W).campaign_points()


class TestExperimentRunnerIntegration:
    def test_runner_sweep_parallel_equals_serial(self):
        from repro.analysis import ExperimentRunner

        kwargs = dict(n_instructions=N, warmup=W, benchmarks=("gcc", "li"))
        serial = ExperimentRunner(workers=1, **kwargs)
        parallel = ExperimentRunner(workers=2, **kwargs)
        assert serial.sweep("modulo") == parallel.sweep("modulo")

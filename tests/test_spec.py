"""Tests for the declarative spec layer (repro.spec).

Covers the machine registry, dotted-path overrides with eager schema
validation, the MachineSpec/RunSpec/SuiteSpec serialisation round trips,
and the repro.run facade.
"""

import pytest

import repro
from repro.errors import ConfigError, SpecError
from repro.pipeline import ProcessorConfig
from repro.spec import (
    MachineSpec,
    RunSpec,
    SuiteSpec,
    apply_override,
    available_machine_families,
    available_machines,
    machine_config,
    machine_description,
    normalize_overrides,
    parse_override,
    register_machine,
    unregister_machine,
)

N = 500
W = 150


# ----------------------------------------------------------------------
# Machine registry
# ----------------------------------------------------------------------
class TestMachineRegistry:
    def test_table2_machines_registered(self):
        names = available_machines()
        for name in ("clustered", "baseline", "upper-bound"):
            assert name in names

    def test_factories_match_config_constructors(self):
        assert machine_config("clustered") == ProcessorConfig.default()
        assert machine_config("baseline") == ProcessorConfig.baseline()
        assert machine_config("upper-bound") == ProcessorConfig.upper_bound()

    def test_parametric_bypass_latency(self):
        config = machine_config("bypass-latency-3")
        assert config.bypass_latency == 3
        assert config.name == "bypass-latency-3"

    def test_parametric_bypass_ports(self):
        assert machine_config("bypass-ports-1").bypass_ports == 1

    def test_parametric_iq_is_symmetric(self):
        config = machine_config("iq-32")
        assert config.clusters[0].iq_size == 32
        assert config.clusters[1].iq_size == 32

    def test_parametric_families_listed(self):
        assert "bypass-latency" in available_machine_families()

    def test_unknown_machine_lists_known_names(self):
        with pytest.raises(ConfigError, match="clustered"):
            machine_config("quantum")

    def test_parametric_value_validated(self):
        # iq-0 parses but violates the cluster config invariants.
        with pytest.raises(ConfigError):
            machine_config("iq-0")

    def test_descriptions_exist(self):
        for name in available_machines():
            assert machine_description(name)

    def test_register_and_unregister(self):
        register_machine(
            "test-tiny",
            lambda: apply_override(
                ProcessorConfig.default(), "iq_size", 8
            ),
            "test machine",
        )
        try:
            assert machine_config("test-tiny").clusters[0].iq_size == 8
            with pytest.raises(ConfigError, match="already registered"):
                register_machine("test-tiny", ProcessorConfig.default)
        finally:
            unregister_machine("test-tiny")
        with pytest.raises(ConfigError):
            machine_config("test-tiny")

    def test_registered_machine_resolves_in_campaign_point(self):
        register_machine(
            "test-wide",
            lambda: apply_override(
                ProcessorConfig.default(), "issue_width", 6
            ),
        )
        try:
            point = RunSpec("gcc", "modulo", machine="test-wide")
            assert point.config().clusters[0].issue_width == 6
        finally:
            unregister_machine("test-wide")


# ----------------------------------------------------------------------
# Dotted-path overrides
# ----------------------------------------------------------------------
class TestDottedOverrides:
    def config(self):
        return ProcessorConfig.default()

    def test_top_level_field(self):
        assert apply_override(self.config(), "bypass_latency", 2).bypass_latency == 2

    def test_single_cluster(self):
        config = apply_override(self.config(), "clusters.0.iq_size", 128)
        assert config.clusters[0].iq_size == 128
        assert config.clusters[1].iq_size == 64

    def test_cache_field(self):
        assert apply_override(self.config(), "l1d.size_kb", 32).l1d.size_kb == 32

    def test_legacy_flat_form_is_symmetric(self):
        config = apply_override(self.config(), "iq_size", 48)
        assert config.clusters[0].iq_size == 48
        assert config.clusters[1].iq_size == 48

    def test_unknown_key_names_path_and_fields(self):
        with pytest.raises(ConfigError) as info:
            apply_override(self.config(), "clusters.0.warp", 9)
        assert "clusters.0.warp" in str(info.value)
        assert "valid fields" in str(info.value)
        assert "iq_size" in str(info.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="warp_factor"):
            apply_override(self.config(), "warp_factor", 9)

    def test_bad_cluster_index_names_path(self):
        with pytest.raises(ConfigError) as info:
            apply_override(self.config(), "clusters.7.iq_size", 1)
        assert "clusters.7.iq_size" in str(info.value)
        assert "out of range" in str(info.value)

    def test_non_integer_cluster_index(self):
        with pytest.raises(ConfigError, match="clusters.left.iq_size"):
            apply_override(self.config(), "clusters.left.iq_size", 1)

    def test_type_mismatch_names_path(self):
        with pytest.raises(ConfigError) as info:
            apply_override(self.config(), "clusters.0.iq_size", "big")
        assert "clusters.0.iq_size" in str(info.value)
        assert "expected int" in str(info.value)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="bypass_ports"):
            apply_override(self.config(), "bypass_ports", True)

    def test_int_is_not_a_bool(self):
        with pytest.raises(ConfigError, match="allow_copies"):
            apply_override(self.config(), "allow_copies", 1)

    def test_path_stopping_at_nested_config(self):
        with pytest.raises(ConfigError, match="nested config"):
            apply_override(self.config(), "l1d", 3)

    def test_path_through_scalar_field(self):
        with pytest.raises(ConfigError, match="scalar field"):
            apply_override(self.config(), "bypass_latency.x", 1)

    def test_domain_invariants_still_enforced(self):
        # Eager schema validation does not bypass __post_init__ checks.
        with pytest.raises(ConfigError):
            apply_override(self.config(), "clusters.0.iq_size", -4)
        with pytest.raises(ConfigError):
            apply_override(self.config(), "l1d.size_kb", -1)

    def test_normalize_accepts_dict_and_pairs(self):
        as_dict = normalize_overrides({"clusters.0.iq_size": 128})
        as_pairs = normalize_overrides([("clusters.0.iq_size", 128)])
        assert as_dict == as_pairs == (("clusters.0.iq_size", 128),)

    def test_normalize_rejects_container_values(self):
        with pytest.raises(ConfigError, match="scalar"):
            normalize_overrides({"clusters": [1, 2]})

    def test_duplicate_paths_collapse_to_last(self):
        """Same-path repeats keep only the final write (at its position)
        — identical semantics to applying them in order, and it keeps
        the mapping wire form lossless."""
        from repro.spec import apply_overrides

        raw = (
            ("iq_size", 64),
            ("clusters.0.iq_size", 32),
            ("iq_size", 16),
        )
        normalized = normalize_overrides(raw)
        assert normalized == (
            ("clusters.0.iq_size", 32),
            ("iq_size", 16),
        )
        # The collapsed form computes the same machine as the raw order.
        config = ProcessorConfig.default()
        assert apply_overrides(config, normalized) == apply_overrides(
            config, raw
        )

    def test_parse_override_cli_form(self):
        assert parse_override("clusters.0.iq_size=128") == (
            "clusters.0.iq_size",
            128,
        )
        assert parse_override("allow_copies=false") == ("allow_copies", False)
        assert parse_override("allow_copies=True") == ("allow_copies", True)
        assert parse_override("name=foo") == ("name", "foo")
        with pytest.raises(ConfigError, match="PATH=VALUE"):
            parse_override("no-equals-sign")


# ----------------------------------------------------------------------
# Eager validation at grid expansion
# ----------------------------------------------------------------------
class TestEagerGridValidation:
    def test_unknown_override_fails_at_expansion(self):
        from repro.analysis.campaign import expand_grid

        with pytest.raises(ConfigError, match="clusters.7.iq_size"):
            expand_grid(
                ["gcc"],
                ["modulo"],
                overrides=({"clusters.7.iq_size": 1},),
            )

    def test_unknown_machine_fails_at_expansion(self):
        from repro.analysis.campaign import expand_grid

        with pytest.raises(ConfigError, match="quantum"):
            expand_grid(["gcc"], ["modulo"], machines=("quantum",))

    def test_dict_overrides_expand_to_tuples(self):
        from repro.analysis.campaign import expand_grid

        (point,) = expand_grid(
            ["gcc"],
            ["modulo"],
            overrides=({"clusters.0.iq_size": 128},),
            n_instructions=N,
            warmup=W,
        )
        assert point.machine.overrides == (("clusters.0.iq_size", 128),)
        assert point.config().clusters[0].iq_size == 128


# ----------------------------------------------------------------------
# MachineSpec / RunSpec
# ----------------------------------------------------------------------
class TestMachineSpec:
    def test_resolve_applies_overrides(self):
        spec = MachineSpec("clustered", {"clusters.0.iq_size": 128})
        assert spec.resolve().clusters[0].iq_size == 128

    def test_round_trip(self):
        spec = MachineSpec("bypass-latency-2", {"l1d.size_kb": 32})
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    def test_from_bare_name(self):
        assert MachineSpec.from_dict("baseline") == MachineSpec("baseline")

    def test_label(self):
        assert MachineSpec("clustered").label == "clustered"
        assert (
            MachineSpec("clustered", {"iq_size": 32}).label
            == "clustered[iq_size=32]"
        )

    def test_resolve_validates_eagerly(self):
        with pytest.raises(ConfigError, match="warp"):
            MachineSpec("clustered", {"warp": 9}).resolve()

    def test_duplicate_override_paths_round_trip(self):
        spec = MachineSpec(
            "clustered", (("iq_size", 64), ("iq_size", 32))
        )
        assert spec.overrides == (("iq_size", 32),)
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_raises_spec_error(self):
        with pytest.raises(SpecError, match="overides"):
            MachineSpec.from_dict(
                {"name": "clustered", "overides": {"iq_size": 32}}
            )


class TestRunSpec:
    def spec(self):
        return RunSpec(
            bench="gcc",
            scheme="modulo",
            machine=MachineSpec("clustered", {"clusters.0.iq_size": 32}),
            n_instructions=N,
            warmup=W,
        )

    def test_dict_round_trip(self):
        spec = self.spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_machine_string_coerces(self):
        spec = RunSpec(bench="gcc", machine="baseline")
        assert spec.machine == MachineSpec("baseline")

    def test_missing_bench_raises_spec_error(self):
        with pytest.raises(SpecError, match="bench"):
            RunSpec.from_dict({"scheme": "modulo"})

    def test_unknown_key_raises_spec_error(self):
        with pytest.raises(SpecError, match="instrs"):
            RunSpec.from_dict({"bench": "gcc", "instrs": 5})

    def test_validate_rejects_bad_scheme(self):
        with pytest.raises(ConfigError, match="no-such"):
            RunSpec(bench="gcc", scheme="no-such").validate()


# ----------------------------------------------------------------------
# The repro.run facade
# ----------------------------------------------------------------------
class TestRunFacade:
    def test_runspec_matches_simulate(self):
        spec = RunSpec(
            bench="gcc", scheme="modulo", n_instructions=N, warmup=W
        )
        assert repro.run(spec) == repro.simulate(
            "gcc", steering="modulo", n_instructions=N, warmup=W
        )

    def test_override_changes_the_run(self):
        plain = repro.run(
            RunSpec(bench="li", scheme="modulo", n_instructions=N, warmup=W)
        )
        squeezed = repro.run(
            RunSpec(
                bench="li",
                scheme="modulo",
                machine=MachineSpec("clustered", {"iq_size": 4}),
                n_instructions=N,
                warmup=W,
            )
        )
        assert squeezed.ipc < plain.ipc

    def test_dict_run_spec(self):
        result = repro.run(
            {"bench": "gcc", "scheme": "modulo",
             "n_instructions": N, "warmup": W}
        )
        assert result.ipc > 0

    def test_suite_spec_runs_as_campaign(self, tmp_path):
        suite = SuiteSpec(
            name="t",
            description="facade test",
            benches=("gcc",),
            schemes=("modulo", "general-balance"),
            n_instructions=N,
            warmup=W,
        )
        store = str(tmp_path / "store.json")
        run = repro.run(suite, store=store)
        assert run.n_simulated == 2
        again = repro.run(suite, store=store, resume=True)
        assert again.n_simulated == 0
        assert again.n_cached == 2

    def test_campaign_controls_rejected_for_single_runs(self):
        with pytest.raises(ConfigError, match="suite"):
            repro.run(RunSpec(bench="gcc"), store="x.json")

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigError, match="RunSpec"):
            repro.run(42)

    def test_campaign_point_routes_through_facade(self):
        from repro.analysis.campaign import Campaign

        spec = RunSpec(
            "gcc",
            "modulo",
            MachineSpec("clustered", (("clusters.0.iq_size", 32),)),
            n_instructions=N,
            warmup=W,
        )
        assert Campaign([spec]).run()[0].result == repro.run(spec)


# ----------------------------------------------------------------------
# SuiteSpec data files
# ----------------------------------------------------------------------
class TestSuiteSpec:
    def suite(self):
        return SuiteSpec(
            name="ablate",
            description="2x2 ablation",
            benches=("gcc", "li"),
            schemes=("modulo",),
            machines=("clustered", "bypass-latency-2"),
            overrides=({}, {"clusters.0.iq_size": 128}),
            seeds=(0, 1),
            n_instructions=N,
            warmup=W,
        )

    def test_dict_round_trip(self):
        suite = self.suite()
        assert SuiteSpec.from_dict(suite.to_dict()) == suite

    def test_file_round_trip(self, tmp_path):
        suite = self.suite()
        path = str(tmp_path / "ablate.json")
        suite.save(path)
        assert SuiteSpec.load(path) == suite

    def test_points_match_expand_grid(self):
        from repro.analysis.campaign import expand_grid

        suite = self.suite()
        assert suite.points() == expand_grid(
            list(suite.benches),
            list(suite.schemes),
            machines=suite.machines,
            overrides=suite.overrides,
            seeds=suite.seeds,
            n_instructions=N,
            warmup=W,
        )

    def test_validate_rejects_bad_override(self):
        suite = SuiteSpec(
            name="bad",
            description="",
            benches=("gcc",),
            schemes=("modulo",),
            overrides=({"clusters.9.iq_size": 1},),
        )
        with pytest.raises(ConfigError, match="clusters.9.iq_size"):
            suite.validate()

    def test_load_validates(self, tmp_path):
        path = str(tmp_path / "bad.json")
        SuiteSpec(
            name="bad",
            description="",
            benches=("gcc",),
            schemes=("no-such-scheme",),
        ).save(path)
        with pytest.raises(ConfigError, match="no-such-scheme"):
            SuiteSpec.load(path)

    def test_malformed_file_raises_spec_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="JSON"):
            SuiteSpec.load(str(path))

    def test_missing_keys_raise_spec_error(self):
        with pytest.raises(SpecError, match="schemes"):
            SuiteSpec.from_dict(
                {"format": "repro-suite", "name": "x", "benches": ["gcc"]}
            )

    def test_future_version_rejected(self):
        data = self.suite().to_dict()
        data["version"] = 99
        with pytest.raises(SpecError, match="version 99"):
            SuiteSpec.from_dict(data)

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(SpecError, match="format"):
            SuiteSpec.from_dict({"format": "not-a-suite"})

    def test_typo_key_rejected(self):
        """A typo in a suite data file must fail loudly rather than
        silently fall back to a default grid parameter."""
        data = self.suite().to_dict()
        data["n_instruction"] = data.pop("n_instructions")
        with pytest.raises(SpecError, match="n_instruction"):
            SuiteSpec.from_dict(data)

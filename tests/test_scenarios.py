"""Scenario corpus tests: rtrace round trips, registry, suites, cache keys."""

import dataclasses
import zlib

import pytest

from repro import simulate
from repro.errors import ScenarioError, WorkloadError
from repro.scenarios import (
    WorkloadFamily,
    available_families,
    available_suites,
    corpus_members,
    export_trace,
    family_of,
    get_family,
    get_suite,
    import_trace,
    read_meta,
    register_family,
    register_suite,
    register_trace,
    run_suite,
    unregister_trace,
)
from repro.scenarios.registry import _FAMILIES
from repro.scenarios.rtrace import MAGIC, FrozenTrace
from repro.scenarios.suites import _SUITES
from repro.spec import SuiteSpec
from repro.workloads import (
    clear_workload_cache,
    get_profile,
    register_profile,
    reset_trace_stats,
    trace_build_counts,
    unregister_profile,
    workload,
    workload_for_profile,
)

#: Tiny windows: these tests exercise plumbing, not timing.
N = 600
W = 200


# ----------------------------------------------------------------------
# Portable traces
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def test_records_survive_byte_identically(self, tmp_path):
        wl = workload("li")
        path = str(tmp_path / "li.rtrace")
        export_trace(wl, path, 1500, cushion=0)
        imported = import_trace(path)
        originals = [wl.shared_trace().record(i) for i in range(1500)]
        replayed = [imported.shared_trace().record(i) for i in range(1500)]
        assert [
            (r.inst.pc, r.taken, r.mem_addr) for r in originals
        ] == [(r.inst.pc, r.taken, r.mem_addr) for r in replayed]

    def test_replayed_ipc_identical_without_regeneration(self, tmp_path):
        """The acceptance criterion: export, wipe every cache, re-import,
        and the simulated IPC matches without any program/trace rebuild."""
        live = simulate("li", steering="general-balance",
                        n_instructions=N, warmup=W)
        path = str(tmp_path / "li.rtrace")
        export_trace(workload("li"), path, N + W)
        clear_workload_cache()
        reset_trace_stats()
        imported = import_trace(path)
        replayed = simulate(imported, steering="general-balance",
                            n_instructions=N, warmup=W)
        assert replayed.ipc == live.ipc
        assert replayed.cycles == live.cycles
        assert trace_build_counts() == {}  # nothing was decoded

    def test_program_reconstruction_is_structural(self, tmp_path):
        wl = workload("gcc")
        path = str(tmp_path / "gcc.rtrace")
        export_trace(wl, path, 100, cushion=0)
        imported = import_trace(path)
        assert imported.program is not wl.program
        assert imported.program.num_instructions == (
            wl.program.num_instructions
        )
        assert imported.profile == wl.profile
        assert imported.seed == wl.seed

    def test_meta_reports_shape(self, tmp_path):
        path = str(tmp_path / "go.rtrace")
        export_trace(workload("go"), path, 1000, cushion=24)
        meta = read_meta(path)
        assert meta.name == "go"
        assert meta.n_records == 1024
        assert meta.has_profile
        assert "go" in meta.describe()

    def test_frozen_trace_refuses_to_extend(self, tmp_path):
        path = str(tmp_path / "li.rtrace")
        export_trace(workload("li"), path, 200, cushion=0)
        imported = import_trace(path)
        trace = imported.shared_trace()
        assert isinstance(trace, FrozenTrace)
        assert len(trace) == 200
        trace.record(199)  # in range
        with pytest.raises(ScenarioError, match="re-export"):
            trace.record(200)

    def test_import_rename(self, tmp_path):
        path = str(tmp_path / "li.rtrace")
        export_trace(workload("li"), path, 50, cushion=0)
        assert import_trace(path, name="li-variant").name == "li-variant"


class TestTraceFileFormat:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "fake.rtrace"
        path.write_bytes(b"NOTATRACE" + b"\x00" * 32)
        with pytest.raises(ScenarioError, match="magic"):
            import_trace(str(path))

    def test_corrupt_body_rejected(self, tmp_path):
        path = tmp_path / "corrupt.rtrace"
        path.write_bytes(MAGIC + b"\x00garbage\xff")
        with pytest.raises(ScenarioError, match="corrupt"):
            import_trace(str(path))

    def test_future_version_rejected(self, tmp_path):
        import json

        body = json.dumps({"format": "rtrace", "version": 99})
        path = tmp_path / "future.rtrace"
        path.write_bytes(MAGIC + zlib.compress(body.encode()))
        with pytest.raises(ScenarioError, match="newer"):
            import_trace(str(path))

    def test_checksum_mismatch_rejected(self, tmp_path):
        import json

        good = str(tmp_path / "good.rtrace")
        export_trace(workload("li"), good, 50, cushion=0)
        with open(good, "rb") as fh:
            fh.read(len(MAGIC))
            doc = json.loads(zlib.decompress(fh.read()))
        doc["records"]["addr"][0] ^= 4  # flip one address
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(
            MAGIC + zlib.compress(json.dumps(doc).encode())
        )
        with pytest.raises(ScenarioError, match="checksum"):
            import_trace(str(bad))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestFamilyRegistry:
    def test_builtin_families_present(self):
        names = available_families()
        for expected in (
            "specint95",
            "pointer-chase",
            "branch-hostile",
            "streaming",
            "high-ilp",
            "memory-stress",
            "rtrace",
        ):
            assert expected in names

    def test_duplicate_family_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register_family(
                WorkloadFamily(
                    name="specint95", description="dup", members=()
                )
            )

    def test_unknown_family_error_lists_available(self):
        with pytest.raises(ScenarioError, match="specint95"):
            get_family("no-such-family")

    def test_members_resolve_as_workloads(self):
        for family_name in ("pointer-chase", "high-ilp"):
            member = get_family(family_name).members[0]
            wl = workload(member)
            assert wl.name == member
            assert wl.program.num_instructions > 0

    def test_family_make_rejects_foreign_member(self):
        with pytest.raises(ScenarioError, match="no member"):
            get_family("pointer-chase").make("gcc")

    def test_family_of(self):
        assert family_of("gcc") == "specint95"
        assert family_of("pchase-heavy") == "pointer-chase"
        assert family_of("nope") is None

    def test_corpus_members_covers_every_family(self):
        corpus = corpus_members()
        assert set(corpus) == set(available_families())
        assert "gcc" in corpus["specint95"]

    def test_custom_family_roundtrip(self):
        profile = dataclasses.replace(
            get_profile("perl"), name="perl-variant"
        )
        register_profile(profile)
        family = register_family(
            WorkloadFamily(
                name="test-family",
                description="one doctored perl",
                members=("perl-variant",),
            )
        )
        try:
            wl = family.make("perl-variant")
            assert wl.profile == profile
            assert workload("perl-variant") is wl  # same cache entry
        finally:
            _FAMILIES.pop("test-family")
            unregister_profile("perl-variant")

    def test_specint_names_are_reserved(self):
        with pytest.raises(WorkloadError, match="reserved"):
            register_profile(get_profile("gcc"))


class TestTraceRegistration:
    def test_registered_trace_resolves_by_name(self, tmp_path):
        path = str(tmp_path / "li.rtrace")
        export_trace(workload("li"), path, N + W)
        registered = register_trace(path, name="li-recorded")
        try:
            assert workload("li-recorded") is registered
            assert family_of("li-recorded") == "rtrace"
            assert "li-recorded" in get_family("rtrace").members
            result = simulate("li-recorded", steering="modulo",
                              n_instructions=N, warmup=W)
            assert result.ipc > 0
        finally:
            unregister_trace("li-recorded")
        with pytest.raises(WorkloadError):
            workload("li-recorded")

    def test_seed_mismatch_rejected(self, tmp_path):
        """A trace is one recorded execution: replaying it under another
        seed must fail loudly, not alias the same records per seed."""
        path = str(tmp_path / "li.rtrace")
        export_trace(workload("li", seed=0), path, 50, cushion=0)
        register_trace(path, name="li-seeded")
        try:
            assert workload("li-seeded", seed=0).seed == 0
            with pytest.raises(ScenarioError, match="recorded at seed 0"):
                workload("li-seeded", seed=3)
        finally:
            unregister_trace("li-seeded")

    def test_duplicate_and_shadowing_names_rejected(self, tmp_path):
        path = str(tmp_path / "li.rtrace")
        export_trace(workload("li"), path, 50, cushion=0)
        with pytest.raises(ScenarioError, match="SpecInt95"):
            register_trace(path)  # recorded name "li" shadows Table 1
        register_trace(path, name="li-once")
        try:
            with pytest.raises(ScenarioError, match="already registered"):
                register_trace(path, name="li-once")
            with pytest.raises(ScenarioError, match="already registered"):
                register_trace(path, name="pchase-heavy")
        finally:
            unregister_trace("li-once")


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
class TestSuites:
    def test_builtin_suites_present(self):
        names = available_suites()
        for expected in (
            "paper-table1",
            "branchy",
            "stress-memory",
            "comm-bound",
            "high-ilp",
            "smoke",
        ):
            assert expected in names

    def test_points_expand_full_grid(self):
        suite = get_suite("smoke")
        points = suite.points()
        assert len(points) == len(suite.benches) * len(suite.schemes)
        assert {p.bench for p in points} == set(suite.benches)
        assert all(p.n_instructions == suite.n_instructions for p in points)

    def test_points_accept_overrides(self):
        points = get_suite("smoke").points(
            n_instructions=N, warmup=W, seeds=(0, 1)
        )
        assert len(points) == 2 * len(get_suite("smoke").points())
        assert all(p.n_instructions == N and p.warmup == W for p in points)

    def test_points_honour_zero_warmup(self):
        """warmup=0 is a legitimate cold-start request, not 'use the
        suite default'."""
        points = get_suite("smoke").points(n_instructions=N, warmup=0)
        assert all(p.warmup == 0 for p in points)

    def test_unknown_suite_error_lists_available(self):
        with pytest.raises(ScenarioError, match="smoke"):
            get_suite("no-such-suite")

    def test_duplicate_suite_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register_suite(
                SuiteSpec(
                    name="smoke",
                    description="dup",
                    benches=("gcc",),
                    schemes=("modulo",),
                )
            )

    def test_run_suite_produces_populated_store(self, tmp_path):
        store = str(tmp_path / "smoke.json")
        run = run_suite("smoke", n_instructions=N, warmup=W, store=store)
        assert run.n_simulated == len(get_suite("smoke").points())
        assert run.n_cached == 0
        assert all(r.result.ipc > 0 for r in run.results)
        from repro.analysis import CampaignResults

        stored = CampaignResults.load(store)
        assert len(stored) == len(run.results)

    def test_run_suite_resume_skips_everything(self, tmp_path):
        store = str(tmp_path / "smoke.json")
        run_suite("smoke", n_instructions=N, warmup=W, store=store)
        again = run_suite(
            "smoke", n_instructions=N, warmup=W, store=store, resume=True
        )
        assert again.n_simulated == 0
        assert again.n_cached == len(get_suite("smoke").points())

    def test_suites_reference_known_corpus_and_schemes(self):
        """Every built-in suite must expand to resolvable points."""
        from repro.core.steering import available_schemes

        schemes = set(available_schemes())
        corpus = {
            member
            for members in corpus_members().values()
            for member in members
        }
        for name in available_suites():
            suite = get_suite(name)
            assert set(suite.schemes) <= schemes, name
            assert set(suite.benches) <= corpus, name


# ----------------------------------------------------------------------
# Workload cache identity (satellite fix)
# ----------------------------------------------------------------------
class TestWorkloadCacheIdentity:
    def test_same_name_different_profile_not_conflated(self):
        """A profile reusing a benchmark name must not be served the
        stale cached program of the other profile."""
        base = workload("go")
        doctored = dataclasses.replace(
            get_profile("go"), avg_block_size=10.0, n_blocks=24
        )
        variant = workload_for_profile(doctored)
        assert variant.name == "go"
        assert variant is not base
        assert variant.program.num_instructions != (
            base.program.num_instructions
        )
        # And the original is still cached untouched.
        assert workload("go") is base

    def test_registered_profile_reuses_cache_by_identity(self):
        profile = dataclasses.replace(
            get_profile("li"), name="li-cachetest"
        )
        register_profile(profile)
        try:
            first = workload("li-cachetest")
            assert workload("li-cachetest") is first
            # Replacing the registration invalidates resolution, not the
            # old entry: the new profile maps to a fresh workload.
            doctored = dataclasses.replace(profile, dep_distance=2.0)
            register_profile(doctored, replace=True)
            second = workload("li-cachetest")
            assert second is not first
            assert second.profile == doctored
        finally:
            unregister_profile("li-cachetest")

    def test_seed_still_part_of_key(self):
        assert workload("gcc", seed=1) is not workload("gcc", seed=0)
        assert workload("gcc", seed=1) is workload("gcc", seed=1)


# ----------------------------------------------------------------------
# Suite smoke through the CLI surface
# ----------------------------------------------------------------------
class TestScenariosCLI:
    def test_scenarios_list_and_suite_run(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "pointer-chase" in out
        assert "paper-table1" in out

        store = str(tmp_path / "cli.json")
        args = [
            "suite", "run", "smoke",
            "-n", str(N), "-w", str(W), "--json", store,
        ]
        assert main(args) == 0
        assert "wrote" in capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        assert "reused 4 stored point(s)" in capsys.readouterr().out

    def test_trace_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "m88ksim.rtrace")
        assert main([
            "trace", "export", "-b", "m88ksim", "-o", path, "-r", "800",
        ]) == 0
        assert main(["trace", "info", path]) == 0
        assert "m88ksim" in capsys.readouterr().out
        assert main([
            "trace", "import", path, "--name", "m88ksim-cli", "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "replay check" in out
        unregister_trace("m88ksim-cli")

    def test_resume_without_store_is_an_error(self, capsys):
        from repro.cli import main

        code = main([
            "suite", "run", "smoke", "-n", str(N), "-w", str(W),
            "--resume",
        ])
        assert code == 2
        assert "--resume needs a store" in capsys.readouterr().out

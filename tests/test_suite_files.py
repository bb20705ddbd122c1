"""Tests for data-file suites and the new registry/suite CLI commands."""

import json

import pytest

import repro.scenarios as scenarios
from repro.analysis.campaign import CampaignResults
from repro.cli import main
from repro.spec import SuiteSpec
from repro.workloads import FIGURE_ORDER

N = "400"
W = "120"


# ----------------------------------------------------------------------
# Checked-in data-file suites
# ----------------------------------------------------------------------
class TestDataFileSuites:
    def test_data_dir_found(self):
        assert scenarios.suite_data_dir() is not None

    def test_paper_table1_loaded_from_file(self):
        suite = scenarios.get_suite("paper-table1")
        assert suite.benches == FIGURE_ORDER
        assert "modulo" in suite.schemes
        assert suite.n_instructions == 10000

    def test_smoke_loaded_from_file(self):
        suite = scenarios.get_suite("smoke")
        assert suite.benches == ("gcc", "pchase-heavy")
        assert len(suite.points()) == 4

    def test_registered_suite_equals_its_file(self):
        directory = scenarios.suite_data_dir()
        for name in scenarios.DATA_FILE_SUITES:
            loaded = scenarios.load_suite_file(f"{directory}/{name}.json")
            assert loaded == scenarios.get_suite(name)

    def test_export_round_trips(self, tmp_path):
        path = str(tmp_path / "exported.json")
        suite = scenarios.export_suite("paper-table1", path)
        assert SuiteSpec.load(path) == suite
        # The file is plain JSON a human can diff and edit.
        with open(path) as f:
            data = json.load(f)
        assert data["format"] == "repro-suite"
        assert data["benches"] == list(FIGURE_ORDER)

    def test_exported_suite_expands_identically(self, tmp_path):
        path = str(tmp_path / "pt1.json")
        scenarios.export_suite("paper-table1", path)
        assert (
            SuiteSpec.load(path).points()
            == scenarios.get_suite("paper-table1").points()
        )

    def test_register_suite_file(self, tmp_path):
        path = str(tmp_path / "custom.json")
        SuiteSpec(
            name="custom-suite-file-test",
            description="registered from a file",
            benches=("gcc",),
            schemes=("modulo",),
            overrides=({"clusters.0.iq_size": 128},),
        ).save(path)
        suite = scenarios.register_suite_file(path)
        try:
            assert scenarios.get_suite("custom-suite-file-test") is suite
            (point,) = suite.points(n_instructions=500, warmup=100)
            assert point.machine.overrides == (("clusters.0.iq_size", 128),)
        finally:
            scenarios.suites._SUITES.pop("custom-suite-file-test", None)


# ----------------------------------------------------------------------
# CLI: machines/schemes listings
# ----------------------------------------------------------------------
class TestListingCommands:
    def test_machines_list(self, capsys):
        assert main(["machines", "list"]) == 0
        out = capsys.readouterr().out
        assert "clustered" in out
        assert "baseline" in out
        assert "bypass-latency-<N>" in out
        # one-line descriptions present
        assert "Table 2" in out

    def test_schemes_list(self, capsys):
        assert main(["schemes", "list"]) == 0
        out = capsys.readouterr().out
        assert "general-balance:" in out
        assert "modulo:" in out
        # Descriptions come from the scheme docstrings.
        for line in out.splitlines():
            if line.strip().startswith("modulo:"):
                assert len(line.split(":", 1)[1].strip()) > 0


# ----------------------------------------------------------------------
# CLI: suite export / run, nested overrides end to end
# ----------------------------------------------------------------------
class TestSuiteCli:
    def test_export_then_run_resumes_identically(self, tmp_path, capsys):
        suite_file = str(tmp_path / "smoke-export.json")
        store = str(tmp_path / "store.json")
        assert main(["suite", "export", "smoke", "-o", suite_file]) == 0
        # First run from the registered suite, by name.
        assert main(
            ["suite", "run", "smoke", "-n", N, "-w", W, "--json", store]
        ) == 0
        capsys.readouterr()
        # Re-running from the exported data file reuses every point.
        assert main(
            ["suite", "run", suite_file, "-n", N, "-w", W,
             "--json", store, "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "reused 4 stored point(s), simulated 0" in out

    def test_suite_run_unknown_file(self, tmp_path):
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            main(["suite", "run", str(tmp_path / "missing.json")])

    def test_dist_package_missing_json_is_a_file_error(self, tmp_path):
        """A missing ``*.json`` argument is read as a suite file, so it
        fails as one, not as an unknown suite name."""
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            main(["dist", "package", "missing.json",
                  "--job-dir", str(tmp_path / "job")])

    def test_campaign_nested_override_from_cli(self, tmp_path, capsys):
        store = str(tmp_path / "o.json")
        assert main(
            ["campaign", "-b", "gcc", "-s", "modulo",
             "-O", "clusters.0.iq_size=16", "-n", N, "-w", W,
             "--json", store]
        ) == 0
        (run,) = CampaignResults.load_json(store)
        assert run.point.machine.overrides == (("clusters.0.iq_size", 16),)

    def test_run_nested_override_from_cli(self, capsys):
        assert main(
            ["run", "-b", "gcc", "-s", "modulo",
             "-O", "clusters.0.iq_size=16", "-n", N, "-w", W]
        ) == 0
        assert "scheme IPC" in capsys.readouterr().out

    def test_suite_file_nested_override_runs(self, tmp_path, capsys):
        """A nested override is expressible from a suite data file."""
        suite_file = str(tmp_path / "ablate.json")
        store = str(tmp_path / "ablate-store.json")
        SuiteSpec(
            name="ablate-cli",
            description="nested override via data file",
            benches=("gcc",),
            schemes=("modulo",),
            overrides=({"clusters.0.iq_size": 16},),
            n_instructions=400,
            warmup=120,
        ).save(suite_file)
        assert main(["suite", "run", suite_file, "--json", store]) == 0
        (run,) = CampaignResults.load_json(store)
        assert run.point.machine.overrides == (("clusters.0.iq_size", 16),)

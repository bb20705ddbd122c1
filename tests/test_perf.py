"""Tests for the perf-profile ledger subsystem (repro.perf).

The acceptance anchors: a synthetic 2x slowdown must be flagged, pure
noise at 15% std must pass, an improvement must never fail the gate,
and labels *removed* from the candidate must be reported explicitly
(the vanished-label regression the legacy gate's callers hit).  The
statistical kernels are pinned against reference values computed with
scipy (not available in CI, hence the pure-python implementations).
"""

from __future__ import annotations

import json
import random

import pytest

from repro import perf
from repro.errors import ConfigError, PerfError
from repro.perf.detect import DetectorConfig
from repro.perf.stats import (
    mann_whitney_u,
    student_t_sf,
    welch_t,
)

COMMIT_A = "a" * 40
COMMIT_B = "b" * 40
COMMIT_C = "c" * 40


def gauss(seed: int, mean: float, std: float, n: int):
    rng = random.Random(seed)
    return tuple(rng.gauss(mean, std) for _ in range(n))


def metric(label="ipc", samples=(1.0,), **kwargs):
    return perf.Metric(label=label, samples=tuple(samples), **kwargs)


def profile(metrics, suite="core", commit=COMMIT_A, when="2026-08-01", **kw):
    return perf.Profile(
        suite=suite,
        metrics=tuple(metrics),
        provenance=perf.Provenance(
            commit=commit, recorded_at=f"{when}T00:00:00Z", host="test",
            **kw,
        ),
    )


class TestStats:
    """Pinned against scipy reference values (see module docstring)."""

    A = (1.02, 0.98, 1.05, 0.99, 1.01, 0.97, 1.03, 1.00)
    B = (1.11, 1.09, 1.14, 1.08, 1.12, 1.10, 1.13, 1.07)

    def test_welch_matches_scipy_reference(self):
        t, p = welch_t(self.A, self.B)
        assert t == pytest.approx(-7.709610576293408, rel=1e-9)
        assert p == pytest.approx(2.1998521912936034e-06, rel=1e-6)

    def test_welch_small_sample_reference(self):
        t, p = welch_t((1.0, 2.0, 3.0, 4.0), (1.5, 2.5, 3.5, 4.5))
        assert t == pytest.approx(-0.5477225575051662, rel=1e-9)
        assert p == pytest.approx(0.6036450565101362, rel=1e-9)

    def test_mann_whitney_matches_scipy_reference(self):
        u, p = mann_whitney_u(self.A, self.B)
        assert u == 0.0
        assert p == pytest.approx(0.0009391056991171899, rel=1e-9)

    def test_mann_whitney_tie_correction(self):
        a = (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
        b = (1.0, 2.0, 2.0, 3.0, 3.0, 3.0)
        u, p = mann_whitney_u(a, b)
        assert u == 14.0
        assert p == pytest.approx(0.5504668540589887, rel=1e-9)

    def test_student_t_sf_reference(self):
        assert student_t_sf(2.0, 5.0) == pytest.approx(
            0.050969739414929174, rel=1e-9
        )

    def test_degenerate_inputs(self):
        # Identical zero-variance samples: exact equality, p = 1.
        assert welch_t((2.0, 2.0), (2.0, 2.0))[1] == 1.0
        # Zero variance, different means: exact difference, p = 0.
        assert welch_t((2.0, 2.0), (3.0, 3.0))[1] == 0.0
        # All-tied ranks: no evidence either way.
        assert mann_whitney_u((1.0, 1.0), (1.0, 1.0))[1] == 1.0


class TestDetector:
    def compare(self, base_samples, cand_samples, config=None, **metric_kw):
        baseline = profile([metric(samples=base_samples, **metric_kw)])
        candidate = profile(
            [metric(samples=cand_samples, **metric_kw)],
            commit=COMMIT_B, when="2026-08-02",
        )
        comparison = perf.compare_profiles(baseline, candidate, config)
        return comparison, comparison.deltas[0]

    def test_2x_regression_is_flagged(self):
        # The acceptance anchor: a synthetic 2x slowdown (half the
        # instr/sec) must fail the gate.
        comparison, delta = self.compare(
            gauss(1, 1.0, 0.05, 10), gauss(2, 0.5, 0.025, 10)
        )
        assert delta.verdict == "degraded"
        assert delta.method == "mannwhitney"
        assert delta.fails
        assert not comparison.ok

    def test_noise_at_15pct_std_passes(self):
        # Same distribution, std = 15% of mean — the BENCH_core.json
        # noise level the old 30%-ratio gate could trip on.
        comparison, delta = self.compare(
            gauss(3, 1.0, 0.15, 10), gauss(4, 1.0, 0.15, 10)
        )
        assert delta.verdict == "stable"
        assert comparison.ok

    def test_improvement_never_fails(self):
        comparison, delta = self.compare(
            gauss(5, 1.0, 0.05, 10), gauss(6, 2.0, 0.05, 10)
        )
        assert delta.verdict == "improved"
        assert not delta.fails
        assert comparison.ok

    def test_min_effect_floor_passes_tiny_significant_shifts(self):
        # 1% worse with near-zero variance: overwhelmingly significant,
        # but below the 5% minimum-effect floor -> must not fail.
        comparison, delta = self.compare(
            gauss(7, 1.0, 0.001, 20), gauss(8, 0.99, 0.001, 20)
        )
        assert delta.p_value < 0.01
        assert delta.verdict == "stable"
        assert comparison.ok

    def test_welch_used_for_small_repeat_counts(self):
        _, delta = self.compare(
            gauss(9, 1.0, 0.02, 3), gauss(10, 0.5, 0.01, 3)
        )
        assert delta.method == "welch"
        assert delta.verdict == "degraded"

    def test_ratio_fallback_for_sample_starved_labels(self):
        _, degraded = self.compare((1.0,), (0.5,))
        assert degraded.method == "ratio"
        assert degraded.verdict == "degraded"
        assert degraded.fails
        _, mild = self.compare((1.0,), (0.9,))
        assert mild.verdict == "stable"
        _, improved = self.compare((1.0,), (2.0,))
        assert improved.verdict == "improved"

    def test_direction_lower_is_better(self):
        # Wall-clock seconds: a higher candidate mean is the regression.
        _, delta = self.compare(
            gauss(11, 1.0, 0.02, 8), gauss(12, 2.0, 0.04, 8),
            direction="lower", label="seconds",
        )
        assert delta.verdict == "degraded"
        _, delta = self.compare(
            gauss(13, 2.0, 0.04, 8), gauss(14, 1.0, 0.02, 8),
            direction="lower", label="seconds",
        )
        assert delta.verdict == "improved"

    def test_new_label_reported_never_gated(self):
        baseline = profile([metric("old", (1.0,))])
        candidate = profile(
            [metric("old", (1.0,)), metric("fresh", (5.0,))],
            commit=COMMIT_B,
        )
        comparison = perf.compare_profiles(baseline, candidate)
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["fresh"].verdict == "new"
        assert not by_label["fresh"].fails
        assert comparison.ok

    def test_vanished_label_fails_the_gate(self):
        # Regression test: the legacy checker reported fresh-only labels
        # but a label *removed* from the candidate must fail explicitly,
        # not read as a pass.
        baseline = profile([metric("kept", (1.0,)), metric("gone", (1.0,))])
        candidate = profile([metric("kept", (1.0,))], commit=COMMIT_B)
        comparison = perf.compare_profiles(baseline, candidate)
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["gone"].verdict == "vanished"
        assert by_label["gone"].fails
        assert not comparison.ok
        assert "vanished" in perf.render_comparison(comparison)

    def test_vanished_can_be_ignored_explicitly(self):
        baseline = profile([metric("kept", (1.0,)), metric("gone", (1.0,))])
        candidate = profile([metric("kept", (1.0,))], commit=COMMIT_B)
        comparison = perf.compare_profiles(
            baseline, candidate, DetectorConfig(ignore_vanished=True)
        )
        assert comparison.ok

    def test_vanished_report_metric_never_fails(self):
        baseline = profile([
            metric("kept", (1.0,)),
            metric("context", (1.0,), gate="report"),
        ])
        candidate = profile([metric("kept", (1.0,))], commit=COMMIT_B)
        comparison = perf.compare_profiles(baseline, candidate)
        assert comparison.ok

    def test_absolute_metrics_gated_only_on_request(self):
        baseline = profile([metric("raw", (100.0,), gate="absolute")])
        candidate = profile(
            [metric("raw", (10.0,), gate="absolute")], commit=COMMIT_B
        )
        assert perf.compare_profiles(baseline, candidate).ok
        gated = perf.compare_profiles(
            baseline, candidate, DetectorConfig(gate_absolute=True)
        )
        assert not gated.ok

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            DetectorConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            DetectorConfig(max_regression=0.0)
        with pytest.raises(ConfigError):
            DetectorConfig(method="bayes")


class TestCompoundGroups:
    """The campaign suite's serial-relative + raw throughput pairs."""

    def build(self, rel_cand, raw_cand):
        base = profile([
            metric("w rel", gauss(1, 2.0, 0.05, 8), gate="gated", group="w"),
            metric("w raw", gauss(2, 100.0, 2.0, 8), gate="absolute",
                   group="w"),
        ], suite="campaign")
        cand = profile([
            metric("w rel", rel_cand, gate="gated", group="w"),
            metric("w raw", raw_cand, gate="absolute", group="w"),
        ], suite="campaign", commit=COMMIT_B)
        return perf.compare_profiles(base, cand)

    def test_relative_drop_alone_does_not_fail(self):
        # Serial alone sped up: the relative ratio halves, the raw
        # number holds -> legacy compound semantics say pass.
        comparison = self.build(
            gauss(3, 1.0, 0.02, 8), gauss(4, 100.0, 2.0, 8)
        )
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["w rel"].verdict == "degraded"
        assert not by_label["w rel"].fails
        assert "compound" in by_label["w rel"].note
        assert comparison.ok

    def test_both_dropping_fails(self):
        comparison = self.build(
            gauss(5, 1.0, 0.02, 8), gauss(6, 50.0, 1.0, 8)
        )
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["w rel"].fails
        assert not comparison.ok

    def test_gate_absolute_bypasses_compound_softening(self):
        base = profile([
            metric("w rel", gauss(1, 2.0, 0.05, 8), gate="gated", group="w"),
            metric("w raw", gauss(2, 100.0, 2.0, 8), gate="absolute",
                   group="w"),
        ], suite="campaign")
        cand = profile([
            metric("w rel", gauss(3, 1.0, 0.02, 8), gate="gated", group="w"),
            metric("w raw", gauss(4, 100.0, 2.0, 8), gate="absolute",
                   group="w"),
        ], suite="campaign", commit=COMMIT_B)
        comparison = perf.compare_profiles(
            base, cand, DetectorConfig(gate_absolute=True)
        )
        assert not comparison.ok


class TestProfileModel:
    def test_document_round_trip(self):
        original = profile([
            metric("a", (1.0, 2.0), unit="ratio"),
            metric("b", (3.0,), gate="absolute", group="g",
                   direction="lower"),
        ])
        decoded = perf.Profile.from_document(
            json.loads(json.dumps(original.to_document()))
        )
        assert decoded == original

    def test_unknown_format_rejected(self):
        with pytest.raises(PerfError):
            perf.Profile.from_document({"format": "repro-perf-profile/99"})

    def test_unknown_document_rejected(self):
        with pytest.raises(PerfError):
            perf.profile_from_document({"benchmark": "mystery"})

    def test_bad_samples_name_the_metric(self):
        with pytest.raises(ConfigError, match="ipc"):
            metric("ipc", ())
        with pytest.raises(ConfigError, match="ipc"):
            metric("ipc", (1.0, "fast"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            profile([metric("a", (1.0,)), metric("a", (2.0,))])

    def test_bad_direction_and_gate_rejected(self):
        with pytest.raises(ConfigError, match="direction"):
            metric("a", (1.0,), direction="sideways")
        with pytest.raises(ConfigError, match="gate"):
            metric("a", (1.0,), gate="sometimes")


class TestLegacyConversion:
    def core_doc(self, with_samples=True):
        event = {"instr_per_sec": 40000.0}
        scan = {"instr_per_sec": 20000.0}
        if with_samples:
            event["seconds"] = [0.2, 0.21, 0.19]
            scan["seconds"] = [0.4, 0.42, 0.38]
        return {
            "benchmark": "core-scheduler",
            "n_instructions": 8000,
            "points": [{
                "bench": "gcc", "scheme": "modulo", "machine": "clustered",
                "event": event, "scan": scan, "speedup_vs_scan": 2.0,
            }],
        }

    def test_core_conversion_pairs_raw_repeats(self):
        converted = perf.profile_from_document(self.core_doc())
        assert converted.suite == "core"
        by_label = converted.by_label()
        speedup = by_label["gcc/modulo/clustered speedup_vs_scan"]
        assert speedup.samples == (
            pytest.approx(2.0), pytest.approx(2.0), pytest.approx(2.0)
        )
        assert speedup.gate == "gated"
        ips = by_label["gcc/modulo/clustered event instr/s"]
        assert ips.gate == "absolute"
        assert ips.samples == (
            pytest.approx(40000.0), pytest.approx(8000 / 0.21),
            pytest.approx(8000 / 0.19),
        )

    def test_core_conversion_without_samples_falls_back(self):
        converted = perf.profile_from_document(self.core_doc(False))
        speedup = converted.by_label()[
            "gcc/modulo/clustered speedup_vs_scan"
        ]
        assert speedup.samples == (2.0,)

    def test_campaign_conversion_builds_compound_groups(self):
        document = {
            "benchmark": "campaign-backends",
            "n_points": 4,
            "backends": {
                "serial": {
                    "points_per_second": 16.0, "seconds": [0.25, 0.26, 0.24],
                },
                "worker-warm": {
                    "points_per_second": 2000.0,
                    "seconds": [0.002, 0.0021, 0.0019],
                },
            },
        }
        converted = perf.profile_from_document(document)
        assert converted.suite == "campaign"
        by_label = converted.by_label()
        assert "serial points/s vs serial" not in by_label
        raw = by_label["worker-warm points/s"]
        assert raw.gate == "absolute" and raw.group == "worker-warm"
        rel = by_label["worker-warm points/s vs serial"]
        assert rel.gate == "gated" and rel.group == "worker-warm"
        assert rel.samples == (
            pytest.approx(0.25 / 0.002), pytest.approx(0.26 / 0.0021),
            pytest.approx(0.24 / 0.0019),
        )

    def test_checked_in_baselines_convert(self):
        core = perf.load_profile("BENCH_core.json")
        campaign = perf.load_profile("BENCH_campaign.json")
        assert core.suite == "core" and core.metrics
        assert campaign.suite == "campaign" and campaign.metrics


class TestProvenance:
    def test_collect_in_this_checkout(self):
        stamp = perf.collect(".")
        assert len(stamp.commit) == 40
        assert isinstance(stamp.dirty, bool)
        assert stamp.recorded_at[4] == "-"
        assert stamp.python

    def test_validation_names_the_offending_field(self):
        good = perf.Provenance(
            commit=COMMIT_A, recorded_at="2026-08-01T00:00:00Z"
        ).to_document()
        perf.Provenance.from_document(good)  # sanity: valid stamp decodes
        for field, value in (
            ("commit", "not hex!"),
            ("commit", ""),
            ("dirty", "yes"),
            ("branch", 7),
            ("recorded_at", "today"),
        ):
            broken = dict(good, **{field: value})
            with pytest.raises(ConfigError, match=f"provenance.{field}"):
                perf.Provenance.from_document(broken)

    def test_dirty_trees_get_their_own_ledger_key(self):
        clean = perf.Provenance(commit=COMMIT_A)
        dirty = perf.Provenance(commit=COMMIT_A, dirty=True)
        assert clean.key != dirty.key


class TestLedger:
    def seed(self, tmp_path):
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        first = profile([metric("m", (1.0,))], commit=COMMIT_A,
                        when="2026-08-01")
        second = profile([metric("m", (1.1,))], commit=COMMIT_B,
                         when="2026-08-02")
        ledger.append(first)
        ledger.append(second)
        return ledger, first, second

    def test_append_lookup_log(self, tmp_path):
        ledger, first, second = self.seed(tmp_path)
        assert ledger.suites() == ["core"]
        assert [p.provenance.commit for p in ledger.log("core")] == [
            COMMIT_B, COMMIT_A
        ]
        assert ledger.lookup("core").provenance.commit == COMMIT_B
        assert ledger.lookup("core", "aaaa").provenance.commit == COMMIT_A

    def test_append_refuses_silent_overwrite(self, tmp_path):
        ledger, first, _ = self.seed(tmp_path)
        with pytest.raises(PerfError, match="overwrite"):
            ledger.append(first)
        replaced = profile([metric("m", (9.0,))], commit=COMMIT_A,
                           when="2026-08-01")
        ledger.append(replaced, overwrite=True)
        assert ledger.lookup("core", "aaaa").metrics[0].samples == (9.0,)

    def test_lookup_errors(self, tmp_path):
        ledger, _, _ = self.seed(tmp_path)
        with pytest.raises(PerfError, match="no 'core' profile"):
            ledger.lookup("core", "dddd")
        with pytest.raises(PerfError, match="no 'campaign' profiles"):
            ledger.lookup("campaign")
        third = profile([metric("m", (1.0,))], commit="ab" + "c" * 38,
                        when="2026-08-03")
        ledger.append(third)
        with pytest.raises(PerfError, match="ambiguous"):
            ledger.lookup("core", "a")

    def test_baseline_for_skips_the_candidate_commit(self, tmp_path):
        ledger, first, second = self.seed(tmp_path)
        baseline = ledger.baseline_for("core", second)
        assert baseline.provenance.commit == COMMIT_A
        only = perf.Ledger(str(tmp_path / "solo"))
        only.append(second)
        assert only.baseline_for("core", second) is None

    def test_prune_keeps_the_newest(self, tmp_path):
        ledger, _, _ = self.seed(tmp_path)
        third = profile([metric("m", (1.2,))], commit=COMMIT_C,
                        when="2026-08-03")
        ledger.append(third)
        removed = ledger.prune("core", keep=2)
        assert len(removed) == 1
        assert [p.provenance.commit for p in ledger.log("core")] == [
            COMMIT_C, COMMIT_B
        ]
        with pytest.raises(PerfError):
            ledger.prune("core", keep=0)

    def test_entries_are_valid_documents_on_disk(self, tmp_path):
        ledger, first, _ = self.seed(tmp_path)
        with open(ledger.path_for(first), "r", encoding="utf-8") as fh:
            document = json.load(fh)
        assert document["format"] == perf.PROFILE_FORMAT


class TestPerfCli:
    """The repro-sim perf record|check|diff|log|prune surface."""

    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def ledger_args(self, tmp_path):
        return ("--ledger", str(tmp_path / "BENCH_history"))

    def seed_pair(self, tmp_path, cand_factor=1.0, drop_label=False):
        """A two-commit ledger: baseline, then a scaled candidate."""
        base = profile(
            [metric("ipc", gauss(1, 1.0, 0.02, 8)),
             metric("extra", gauss(2, 1.0, 0.02, 8))],
            commit=COMMIT_A, when="2026-08-01",
        )
        metrics = [metric(
            "ipc", tuple(cand_factor * s for s in gauss(3, 1.0, 0.02, 8))
        )]
        if not drop_label:
            metrics.append(metric("extra", gauss(4, 1.0, 0.02, 8)))
        cand = profile(metrics, commit=COMMIT_B, when="2026-08-02")
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        ledger.append(base)
        ledger.append(cand)
        return ledger

    def test_record_from_json_and_log(self, tmp_path, capsys):
        document = {
            "benchmark": "campaign-backends",
            "n_points": 2,
            "backends": {"serial": {"points_per_second": 10.0}},
        }
        source = self.write(tmp_path, "BENCH_campaign.json", document)
        out_profile = str(tmp_path / "campaign.profile.json")
        assert self.run_cli(
            "perf", "record", "--from-json", source, "-o", out_profile,
            *self.ledger_args(tmp_path),
        ) == 0
        out = capsys.readouterr().out
        assert "recorded campaign" in out
        recorded = perf.load_profile(out_profile)
        assert recorded.suite == "campaign"
        assert recorded.provenance.recorded_at  # stamped on record
        assert self.run_cli(
            "perf", "log", *self.ledger_args(tmp_path)
        ) == 0
        assert "campaign: 1 recorded profile(s)" in capsys.readouterr().out

    def test_record_refuses_duplicate_without_overwrite(self, tmp_path):
        document = {
            "benchmark": "campaign-backends",
            "n_points": 2,
            "backends": {"serial": {"points_per_second": 10.0}},
        }
        source = self.write(tmp_path, "BENCH_campaign.json", document)
        args = ("perf", "record", "--from-json", source,
                *self.ledger_args(tmp_path))
        assert self.run_cli(*args) == 0
        assert self.run_cli(*args) == 1  # same commit, no --overwrite
        assert self.run_cli(*args, "--overwrite") == 0

    def test_check_passes_on_stable_history(self, tmp_path, capsys):
        self.seed_pair(tmp_path, cand_factor=1.0)
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 0
        assert "perf check ok" in capsys.readouterr().out

    def test_check_flags_2x_slowdown(self, tmp_path, capsys):
        self.seed_pair(tmp_path, cand_factor=0.5)
        report = str(tmp_path / "report.txt")
        assert self.run_cli(
            "perf", "check", "-o", report, *self.ledger_args(tmp_path)
        ) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out and "perf check FAILED" in out
        assert "DEGRADED" in open(report).read()

    def test_check_improvement_passes(self, tmp_path, capsys):
        self.seed_pair(tmp_path, cand_factor=2.0)
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 0
        assert "improved" in capsys.readouterr().out

    def test_check_reports_vanished_labels(self, tmp_path, capsys):
        # Regression test: a label dropped from the candidate must fail
        # loudly, not silently disappear from the report.
        self.seed_pair(tmp_path, drop_label=True)
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 1
        out = capsys.readouterr().out
        assert "VANISHED" in out
        assert self.run_cli(
            "perf", "check", "--ignore-vanished",
            *self.ledger_args(tmp_path),
        ) == 0

    def test_check_with_explicit_candidate_file(self, tmp_path, capsys):
        self.seed_pair(tmp_path)
        cand = profile(
            [metric("ipc", gauss(5, 0.5, 0.01, 8)),
             metric("extra", gauss(6, 1.0, 0.02, 8))],
            commit=COMMIT_C, when="2026-08-03",
        )
        path = self.write(tmp_path, "cand.json", cand.to_document())
        assert self.run_cli(
            "perf", "check", "--candidate", path,
            *self.ledger_args(tmp_path),
        ) == 1

    def test_check_single_entry_has_nothing_to_compare(
        self, tmp_path, capsys
    ):
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        ledger.append(profile([metric("ipc", (1.0,))]))
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 0
        assert "nothing older" in capsys.readouterr().out

    def test_diff_latest_pair_and_refs(self, tmp_path, capsys):
        self.seed_pair(tmp_path, cand_factor=0.5)
        assert self.run_cli(
            "perf", "diff", *self.ledger_args(tmp_path)
        ) == 0
        out = capsys.readouterr().out
        assert "aaaaaaaaaaaa" in out and "bbbbbbbbbbbb" in out
        assert "degraded" in out.lower()
        assert self.run_cli(
            "perf", "diff", "bbbb", "aaaa", "--suite", "core",
            *self.ledger_args(tmp_path),
        ) == 0
        assert "improved" in capsys.readouterr().out

    def test_diff_across_suites_rejected(self, tmp_path, capsys):
        core = profile([metric("m", (1.0,))])
        campaign = profile([metric("m", (1.0,))], suite="campaign",
                           commit=COMMIT_B)
        a = self.write(tmp_path, "a.json", core.to_document())
        b = self.write(tmp_path, "b.json", campaign.to_document())
        assert self.run_cli(
            "perf", "diff", a, b, *self.ledger_args(tmp_path)
        ) == 1
        assert "across suites" in capsys.readouterr().out

    def test_prune(self, tmp_path, capsys):
        self.seed_pair(tmp_path)
        assert self.run_cli(
            "perf", "prune", "--keep", "1", *self.ledger_args(tmp_path)
        ) == 0
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        assert len(ledger.entries("core")) == 1


class TestCheckedInLedger:
    """The seeded BENCH_history/ entries must stay readable and gated."""

    def test_seeded_entries_load(self):
        ledger = perf.Ledger("BENCH_history")
        suites = ledger.suites()
        assert "core" in suites and "campaign" in suites
        for suite in suites:
            latest = ledger.lookup(suite)
            assert latest.metrics
            assert latest.provenance.commit != "unknown"

    def test_fresh_measurement_would_gate_against_seed(self):
        # The CI flow in miniature: the checked-in legacy documents
        # (converted, as CI converts a fresh run) compare cleanly
        # against the seeded ledger entries recorded from them.
        ledger = perf.Ledger("BENCH_history")
        for name, suite in (
            ("BENCH_core.json", "core"),
            ("BENCH_campaign.json", "campaign"),
        ):
            candidate = perf.load_profile(name).with_provenance(
                perf.Provenance(
                    commit=COMMIT_C, recorded_at="2026-08-07T00:00:00Z"
                )
            )
            baseline = ledger.baseline_for(suite, candidate)
            assert baseline is not None
            comparison = perf.compare_profiles(baseline, candidate)
            assert comparison.ok, perf.render_comparison(comparison)

    def test_retired_dispatch_labels_vanish_against_their_entry(self):
        # The entry recorded while the object dispatch path existed
        # still carries its columnar-vs-object labels; the current
        # document has none, so they vanish, and the gated ratios fail
        # unless vanished labels are ignored.
        ledger = perf.Ledger("BENCH_history")
        old = ledger.lookup("core", "6fc644bb90dc")
        retired = {
            label for label in old.by_label()
            if "dispatch" in label or "columnar" in label
        }
        assert len(retired) == 6
        candidate = perf.load_profile("BENCH_core.json")
        comparison = perf.compare_profiles(old, candidate)
        vanished = {
            d.label for d in comparison.deltas if d.verdict == "vanished"
        }
        assert vanished == retired
        assert {d.label for d in comparison.failures} == {
            label for label in retired if "speedup_vs_object" in label
        }
        lenient = perf.compare_profiles(
            old, candidate, DetectorConfig(ignore_vanished=True)
        )
        assert not any(d.verdict == "vanished" for d in lenient.failures)

    def test_core_baseline_covers_exactly_the_current_points(self):
        ledger = perf.Ledger("BENCH_history")
        candidate = perf.load_profile("BENCH_core.json").with_provenance(
            perf.Provenance(
                commit=COMMIT_C, recorded_at="2026-08-07T00:00:00Z"
            )
        )
        baseline = ledger.baseline_for("core", candidate)
        assert set(baseline.by_label()) == set(candidate.by_label())
        assert not any(
            "dispatch" in label or "columnar" in label
            for label in baseline.by_label()
        )


class TestSparkline:
    def seed(self, tmp_path):
        """Three commits with a rising metric; one entry misses a label."""
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        ledger.append(profile(
            [metric("ipc", (1.0,)), metric("instr/s", (1000.0,), unit="instr/s")],
            commit=COMMIT_A, when="2026-08-01",
        ))
        ledger.append(profile(
            [metric("ipc", (1.5,))],
            commit=COMMIT_B, when="2026-08-02",
        ))
        ledger.append(profile(
            [metric("ipc", (2.0,)), metric("instr/s", (2400.0,), unit="instr/s")],
            commit=COMMIT_C, when="2026-08-03",
        ))
        return ledger

    def test_sparkline_shape(self):
        assert perf.sparkline([1.0, 2.0, 3.0]) == "▁▄█"
        assert perf.sparkline([2.0, None, 2.0]) == "▅·▅"
        assert perf.sparkline([None, None]) == "··"

    def test_label_history_renders_trajectory(self, tmp_path):
        ledger = self.seed(tmp_path)
        text = perf.render_label_history(ledger, "core", "ipc")
        assert "▁▄█" in text
        assert "1 -> 2" in text
        assert "+100.0%" in text

    def test_label_history_gap_for_missing_entries(self, tmp_path):
        ledger = self.seed(tmp_path)
        text = perf.render_label_history(ledger, "core", "instr/s")
        assert "▁·█" in text
        assert "instr/s" in text
        assert "+140.0%" in text

    def test_substring_match_covers_label_family(self, tmp_path):
        ledger = self.seed(tmp_path)
        text = perf.render_label_history(ledger, "core", "I")
        # Case-insensitive substring: both 'ipc' and 'instr/s' match.
        assert "ipc" in text and "instr/s" in text

    def test_unknown_label_names_the_recorded_ones(self, tmp_path):
        ledger = self.seed(tmp_path)
        with pytest.raises(PerfError, match="ipc"):
            perf.render_label_history(ledger, "core", "nonexistent")

    def test_limit_trims_oldest_entries(self, tmp_path):
        ledger = self.seed(tmp_path)
        text = perf.render_label_history(ledger, "core", "ipc", limit=2)
        assert "2 profile(s)" in text
        assert "1.5 -> 2" in text

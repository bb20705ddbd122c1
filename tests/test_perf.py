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
import os
import random
import shutil

import pytest

from repro import perf
from repro.errors import ConfigError, PerfError
from repro.perf.detect import DetectorConfig
from repro.perf.stats import (
    mann_whitney_u,
    student_t_sf,
    welch_t,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

COMMIT_A = "a" * 40
COMMIT_B = "b" * 40
COMMIT_C = "c" * 40


def gauss(seed: int, mean: float, std: float, n: int):
    rng = random.Random(seed)
    return tuple(rng.gauss(mean, std) for _ in range(n))


def metric(label="ipc", samples=(1.0,), **kwargs):
    return perf.Metric(label=label, samples=tuple(samples), **kwargs)


def profile(metrics, suite="core", commit=COMMIT_A, when="2026-08-01",
            host="test", **kw):
    return perf.Profile(
        suite=suite,
        metrics=tuple(metrics),
        provenance=perf.Provenance(
            commit=commit, recorded_at=f"{when}T00:00:00Z", host=host,
            **kw,
        ),
    )


def benchmark_metrics(mode):
    """``(name, unit)`` of every metric of *mode* in BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return [(e["name"], e["unit"]) for e in json.load(fh)[mode]]


def write_run(path, values, mode="end_to_end", failed=0, extra=None):
    """Saved perfbench stdout: one line per metric, then the result line.

    *values* maps a metric name to its value; every other metric of
    *mode* reads 0, as perfbench prints a metric its workload does not
    measure.
    """
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in benchmark_metrics(mode)
    }
    metrics.update(extra or {})
    lines = [
        f"core-columnar  {name:<36s} {m['value']:>16.6f} {m['unit']}"
        for name, m in metrics.items()
    ]
    lines.append(json.dumps({
        "correct": failed == 0, "attempted": 12, "failed": failed,
        "metrics": metrics,
    }))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def end_to_end(instr_per_s=60000.0, peak_rss_mb=40.0):
    return {
        "sim_instr_per_s": instr_per_s,
        "sweep_points_per_s": instr_per_s / 13000.0,
        "point_s_p50": 13000.0 / instr_per_s,
        "point_s_p75": 14000.0 / instr_per_s,
        "setup_s": 0.25,
        "peak_rss_mb": peak_rss_mb,
    }


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
        # Same distribution, std = 15% of mean — the retired core suite's
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

    def absolute_pair(self, cand_host="test", base_host="test", paired=True):
        baseline = profile(
            [metric("raw", gauss(15, 100.0, 2.0, 8), gate="absolute"),
             metric("gone", (1.0,), gate="absolute")],
            host=base_host,
        )
        candidate = profile(
            [metric("raw", gauss(16, 50.0, 1.0, 8), gate="absolute")],
            commit=COMMIT_B, host=cand_host,
        )
        comparison = perf.compare_profiles(
            baseline, candidate, paired=paired
        )
        return comparison, {d.label: d for d in comparison.deltas}

    def test_absolute_labels_gate_in_a_paired_same_host_ab(self):
        comparison, by_label = self.absolute_pair()
        assert by_label["raw"].verdict == "degraded"
        assert by_label["raw"].fails and by_label["gone"].fails
        assert "gated: a paired A/B, both profiles recorded on host " \
            "'test'" in perf.render_comparison(comparison)

    def test_absolute_labels_are_reported_unless_paired(self):
        # Two sessions on one host are not an A/B: host drift between
        # them moves instr/s as much as a real regression.
        comparison, by_label = self.absolute_pair(paired=False)
        assert by_label["raw"].verdict == "degraded"
        assert comparison.ok
        for delta in by_label.values():
            assert "not one paired A/B run" in delta.note
        assert "absolute labels not gated" in (
            perf.render_comparison(comparison)
        )

    def test_absolute_labels_are_reported_across_hosts(self):
        comparison, by_label = self.absolute_pair(cand_host="runner-2")
        assert by_label["raw"].verdict == "degraded"
        assert by_label["gone"].verdict == "vanished"
        assert comparison.ok
        for delta in by_label.values():
            assert "different hosts ('test' vs 'runner-2')" in delta.note
        assert "absolute labels not gated" in (
            perf.render_comparison(comparison)
        )

    def test_absolute_labels_are_reported_without_a_host(self):
        for base_host, cand_host in (("", ""), ("test", ""), ("", "test")):
            comparison, by_label = self.absolute_pair(cand_host, base_host)
            assert comparison.ok
            assert "does not name its host" in by_label["raw"].note

    def test_gated_labels_gate_across_hosts(self):
        baseline = profile([metric("ratio", gauss(17, 2.0, 0.05, 8))])
        candidate = profile(
            [metric("ratio", gauss(18, 1.0, 0.02, 8))],
            commit=COMMIT_B, host="runner-2",
        )
        assert not perf.compare_profiles(baseline, candidate).ok

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            DetectorConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            DetectorConfig(max_regression=0.0)
        with pytest.raises(ConfigError):
            DetectorConfig(method="bayes")


class TestProfileModel:
    def test_document_round_trip(self):
        original = profile([
            metric("a", (1.0, 2.0), unit="ratio"),
            metric("b", (3.0,), gate="absolute", direction="lower"),
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
            perf.Profile.from_document({"benchmark": "mystery"})

    def test_stored_group_key_is_ignored(self):
        # The retired campaign suite's entries carry compound-group keys.
        document = profile([metric("a", (1.0,))]).to_document()
        document["metrics"][0]["group"] = "g"
        decoded = perf.Profile.from_document(document)
        assert decoded == profile([metric("a", (1.0,))])
        assert "group" not in decoded.to_document()["metrics"][0]

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


class TestPerfbenchImport:
    """Profiles built from saved perfbench/run.py output."""

    @pytest.fixture(scope="class")
    def spec(self):
        return perf.Benchmark.load(BENCHMARK_JSON)

    def runs(self, tmp_path, values_list, mode="end_to_end", tag="run"):
        return [
            write_run(tmp_path / f"{tag}{i}.out", values, mode)
            for i, values in enumerate(values_list)
        ]

    def test_units_and_directions_come_from_benchmark_json(
        self, tmp_path, spec
    ):
        paths = self.runs(tmp_path, [
            end_to_end(60000.0), end_to_end(62000.0), end_to_end(61000.0),
        ])
        built = perf.profile_from_runs("core-columnar", paths, spec)
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            declared = json.load(fh)["end_to_end"]
        by_label = built.by_label()
        assert [m.label for m in built.metrics] == [e["name"] for e in declared]
        for entry in declared:
            recorded = by_label[entry["name"]]
            assert recorded.unit == entry["unit"]
            assert recorded.direction == entry["better"]
            assert recorded.gate == "absolute"
        # One sample per run, in the order the files were given.
        assert by_label["sim_instr_per_s"].samples == (
            60000.0, 62000.0, 61000.0
        )
        assert built.suite == "core-columnar"
        assert built.meta["runs"] == {"end_to_end": 3, "per_layer": 0}

    def test_rising_peak_rss_reads_degraded(self, tmp_path, spec):
        base = perf.profile_from_runs("core-fifo", self.runs(
            tmp_path, [end_to_end(50000.0 + i, 40.0 + 0.1 * i)
                       for i in range(6)], tag="base",
        ), spec)
        cand = perf.profile_from_runs("core-fifo", self.runs(
            tmp_path, [end_to_end(50000.0 - i, 60.0 + 0.1 * i)
                       for i in range(6)], tag="cand",
        ), spec)
        stamp = perf.Provenance(host="runner", recorded_at="2026-10-17")
        comparison = perf.compare_profiles(
            base.with_provenance(stamp), cand.with_provenance(stamp),
            paired=True,
        )
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["peak_rss_mb"].verdict == "degraded"
        assert by_label["peak_rss_mb"].fails
        assert by_label["sim_instr_per_s"].verdict == "stable"

    def test_traced_and_untraced_runs_merge_into_one_profile(
        self, tmp_path, spec
    ):
        layers = {
            "pipeline.dispatch_ns_per_instr": 5000.0,
            "pipeline.step_ns_per_instr": 18000.0,
        }
        paths = self.runs(
            tmp_path, [end_to_end()] * 3, tag="plain"
        ) + self.runs(tmp_path, [layers] * 3, mode="per_layer", tag="traced")
        built = perf.profile_from_runs("core-columnar", paths, spec)
        by_label = built.by_label()
        assert by_label["sim_instr_per_s"].gate == "absolute"
        dispatch = by_label["pipeline.dispatch_ns_per_instr"]
        assert dispatch.gate == "report" and dispatch.n == 3
        assert dispatch.unit == "ns" and dispatch.direction == "lower"
        assert built.meta["runs"] == {"end_to_end": 3, "per_layer": 3}

    def test_all_zero_per_layer_labels_are_left_out(
        self, tmp_path, spec
    ):
        paths = self.runs(tmp_path, [
            {"pipeline.step_ns_per_instr": 18000.0,
             "dist.result_cache_hits": 0.0},
            {"pipeline.step_ns_per_instr": 18100.0,
             "dist.result_cache_hits": 2.0},
            {"pipeline.step_ns_per_instr": 17900.0},
        ], mode="per_layer")
        by_label = perf.profile_from_runs(
            "core-columnar", paths, spec
        ).by_label()
        assert set(by_label) == {
            "pipeline.step_ns_per_instr", "dist.result_cache_hits"
        }
        assert by_label["dist.result_cache_hits"].samples == (0.0, 2.0, 0.0)

    def test_last_line_not_a_result_object_is_refused(
        self, tmp_path, spec
    ):
        paths = self.runs(tmp_path, [end_to_end()] * 3)
        crashed = tmp_path / "crashed.out"
        crashed.write_text("core-columnar  setup\nTraceback (most recent)\n")
        with pytest.raises(PerfError, match="crashed.out: the last line"):
            perf.profile_from_runs(
                "core-columnar", paths + [str(crashed)], spec
            )
        crashed.write_text(json.dumps({"failed": 0, "metrics": {}}) + "\n")
        with pytest.raises(PerfError, match="crashed.out: the last line"):
            perf.profile_from_runs("core-columnar", [str(crashed)], spec)

    def test_failed_run_is_refused(self, tmp_path, spec):
        paths = self.runs(tmp_path, [end_to_end()] * 3)
        failed = write_run(tmp_path / "failed.out", end_to_end(), failed=2)
        with pytest.raises(PerfError, match=r"failed.out: .*failed=2"):
            perf.profile_from_runs(
                "core-columnar", paths + [failed], spec
            )

    def test_metric_missing_from_benchmark_json_is_refused(
        self, tmp_path, spec
    ):
        stray = write_run(
            tmp_path / "stray.out", end_to_end(),
            extra={"sim_bogo_per_s": {"value": 1.0, "unit": "1/s"}},
        )
        with pytest.raises(
            PerfError, match="stray.out: .*sim_bogo_per_s.*not in BENCHMARK"
        ):
            perf.profile_from_runs("core-columnar", [stray], spec)

    def test_run_mixing_modes_is_refused(self, tmp_path, spec):
        mixed = write_run(
            tmp_path / "mixed.out", end_to_end(),
            extra={"pipeline.ipc": {"value": 1.5, "unit": "1/cycle"}},
        )
        with pytest.raises(PerfError, match="mixed.out: .*mixes"):
            perf.profile_from_runs("core-columnar", [mixed], spec)

    def test_mode_with_fewer_than_three_runs_is_refused(
        self, tmp_path, spec
    ):
        plain = self.runs(tmp_path, [end_to_end()] * 3, tag="plain")
        traced = self.runs(
            tmp_path, [{"pipeline.ipc": 1.5}] * 2, mode="per_layer",
            tag="traced",
        )
        with pytest.raises(PerfError, match=r"traced1.out: 2 per-layer run"):
            perf.profile_from_runs("core-columnar", plain + traced, spec)
        with pytest.raises(PerfError, match=r"plain1.out: 2 end-to-end run"):
            perf.profile_from_runs("core-columnar", plain[:2], spec)

    def test_workload_must_be_in_benchmark_json(self, tmp_path, spec):
        paths = self.runs(tmp_path, [end_to_end()] * 3)
        with pytest.raises(PerfError, match="core-columnar, core-fifo"):
            perf.profile_from_runs("core", paths, spec)


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

    def perfbench_runs(self, tmp_path, n=3):
        """A checkout-like directory: BENCHMARK.json plus n saved runs."""
        shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
        return [
            write_run(tmp_path / f"run{i}.out", end_to_end(60000.0 + i))
            for i in range(n)
        ]

    def test_record_perfbench_runs_and_log(self, tmp_path, capsys):
        runs = self.perfbench_runs(tmp_path)
        out_profile = str(tmp_path / "core-columnar.json")
        assert self.run_cli(
            "perf", "record", "--suite", "core-columnar", *runs,
            "-o", out_profile, *self.ledger_args(tmp_path),
        ) == 0
        out = capsys.readouterr().out
        assert "recorded core-columnar" in out
        recorded = perf.load_profile(out_profile)
        assert recorded.suite == "core-columnar"
        assert recorded.by_label()["sim_instr_per_s"].n == 3
        assert recorded.provenance.recorded_at  # stamped on record
        assert recorded.provenance.host
        assert self.run_cli(
            "perf", "log", *self.ledger_args(tmp_path)
        ) == 0
        assert "core-columnar: 1 recorded profile(s)" in (
            capsys.readouterr().out
        )

    def test_record_refuses_duplicate_without_overwrite(self, tmp_path):
        runs = self.perfbench_runs(tmp_path)
        args = ("perf", "record", "--suite", "core-fifo", *runs,
                *self.ledger_args(tmp_path))
        assert self.run_cli(*args) == 0
        assert self.run_cli(*args) == 1  # same commit, no --overwrite
        assert self.run_cli(*args, "--overwrite") == 0

    def test_record_reports_the_bad_run(self, tmp_path, capsys):
        runs = self.perfbench_runs(tmp_path)
        failed = write_run(tmp_path / "bad.out", end_to_end(), failed=1)
        assert self.run_cli(
            "perf", "record", "--suite", "sweep-cold", *runs, failed,
            *self.ledger_args(tmp_path),
        ) == 1
        out = capsys.readouterr().out
        assert "perf record failed" in out and "bad.out" in out
        assert not perf.Ledger(str(tmp_path / "BENCH_history")).suites()

    def test_record_suites_are_the_benchmark_workloads(
        self, tmp_path, capsys
    ):
        runs = self.perfbench_runs(tmp_path)
        assert self.run_cli(
            "perf", "record", "--suite", "core", *runs,
            *self.ledger_args(tmp_path),
        ) == 1
        assert "core-columnar, core-fifo, sweep-cold" in (
            capsys.readouterr().out
        )

    def test_record_needs_benchmark_json_beside_the_ledger(
        self, tmp_path, capsys
    ):
        runs = self.perfbench_runs(tmp_path)
        assert self.run_cli(
            "perf", "record", "--suite", "core-columnar", *runs,
            "--ledger", str(tmp_path / "elsewhere" / "BENCH_history"),
        ) == 1
        assert "BENCHMARK.json" in capsys.readouterr().out

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

    def absolute_profiles(self, tmp_path):
        """A ledger entry and a file, each with a halved absolute label."""
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        base = profile([metric("raw", gauss(1, 100.0, 2.0, 8),
                               gate="absolute")], suite="core-fifo")
        cand = profile([metric("raw", gauss(2, 50.0, 1.0, 8),
                               gate="absolute")],
                       suite="core-fifo", commit=COMMIT_B, when="2026-08-02")
        ledger.append(base)
        ledger.append(cand)
        return (self.write(tmp_path, "base.json", base.to_document()),
                self.write(tmp_path, "cand.json", cand.to_document()))

    def test_check_against_the_ledger_reports_absolute_labels(
        self, tmp_path, capsys
    ):
        self.absolute_profiles(tmp_path)
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" not in out and "degraded" in out
        assert "absolute labels not gated: the profiles are not one " \
            "paired A/B run" in out

    def test_check_of_two_profile_files_gates_absolute_labels(
        self, tmp_path, capsys
    ):
        base, cand = self.absolute_profiles(tmp_path)
        assert self.run_cli(
            "perf", "check", "--baseline", base, "--candidate", cand,
            *self.ledger_args(tmp_path),
        ) == 1
        assert "DEGRADED" in capsys.readouterr().out
        # A ledger baseline is another session, even with a file
        # candidate.
        assert self.run_cli(
            "perf", "check", "--baseline", "aaaa", "--candidate", cand,
            *self.ledger_args(tmp_path),
        ) == 0

    def test_diff_of_two_profile_files_gates_absolute_labels(
        self, tmp_path, capsys
    ):
        base, cand = self.absolute_profiles(tmp_path)
        self.run_cli("perf", "diff", base, cand, *self.ledger_args(tmp_path))
        assert "GATE: 1 label(s) fail" in capsys.readouterr().out
        self.run_cli("perf", "diff", *self.ledger_args(tmp_path))
        assert "GATE: ok" in capsys.readouterr().out

    def test_check_single_entry_has_nothing_to_compare(
        self, tmp_path, capsys
    ):
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        ledger.append(profile([metric("ipc", (1.0,))]))
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 0
        assert "nothing older" in capsys.readouterr().out

    def test_check_on_an_empty_ledger_fails(self, tmp_path, capsys):
        assert self.run_cli(
            "perf", "check", *self.ledger_args(tmp_path)
        ) == 1
        assert "no recorded profiles" in capsys.readouterr().out

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

    def test_committed_history_logs_and_diffs(self, capsys):
        from repro.cli import main

        assert main(["perf", "log"]) == 0
        assert main(["perf", "log", "--suite", "campaign",
                     "--label", "serial"]) == 0
        assert main(["perf", "diff", "--suite", "core"]) == 0
        assert main(["perf", "diff", "--suite", "campaign",
                     "8745a1ff", "8745a1ff"]) == 0
        out = capsys.readouterr().out
        assert "core: 5 recorded profile(s)" in out
        assert "4ebddc740326" in out and "da44765403c0" in out

    def test_committed_history_passes_check(self, capsys):
        # Consecutive entries from one host still differ by more than
        # the effect floor in instr/s; unpaired, that is reported only.
        from repro.cli import main

        assert main(["perf", "check"]) == 0
        assert "not one paired A/B run" in capsys.readouterr().out

    def test_retired_dispatch_labels_vanish_against_their_entry(self):
        # The entry recorded while the object dispatch path existed
        # still carries its columnar-vs-object labels; a later entry has
        # none, so they vanish.  Two ledger entries are not a paired
        # A/B, so only the gated speedup ratios fail.
        ledger = perf.Ledger("BENCH_history")
        old = ledger.lookup("core", "6fc644bb90dc")
        new = ledger.lookup("core", "da44765403c0")
        retired = {
            label for label in old.by_label()
            if "dispatch" in label or "columnar" in label
        }
        assert len(retired) == 6
        comparison = perf.compare_profiles(old, new)
        vanished = {
            d.label for d in comparison.deltas if d.verdict == "vanished"
        }
        assert vanished == retired
        ratios = {label for label in retired if "speedup_vs_object" in label}
        assert len(ratios) == 3
        assert {d.label for d in comparison.failures} == ratios
        # Both were recorded on host 'vm': taken as a paired A/B, the
        # absolute instr/s labels gate too; across hosts they do not.
        paired = perf.compare_profiles(old, new, paired=True)
        assert {d.label for d in paired.failures} == retired
        elsewhere = new.with_provenance(
            perf.Provenance(commit=new.provenance.commit, host="runner")
        )
        assert {
            d.label
            for d in perf.compare_profiles(
                old, elsewhere, paired=True
            ).failures
        } == ratios
        lenient = perf.compare_profiles(
            old, new, DetectorConfig(ignore_vanished=True)
        )
        assert not any(d.verdict == "vanished" for d in lenient.failures)


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

"""Tests for the perf-profile ledger subsystem (repro.perf).

The acceptance anchors: a synthetic 2x slowdown must be flagged, pure
noise at 15% std must pass, an improvement must never fail the gate,
and labels *removed* from the candidate must be reported explicitly
(the vanished-label regression the legacy gate's callers hit).  Every
metric carries at least 3 samples and gate ``absolute`` or ``report``.  The
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
from repro.perf.detect import CHECK_ALPHA, DIFF_ALPHA
from repro.perf.provenance import is_ancestor
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


def metric(label="ipc", samples=(1.0, 1.0, 1.0), gate="absolute", **kwargs):
    return perf.Metric(
        label=label, samples=tuple(samples), gate=gate, **kwargs
    )


def const(value, n=3):
    """*n* identical samples."""
    return (value,) * n


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
    def compare(self, base_samples, cand_samples, alpha=CHECK_ALPHA,
                **metric_kw):
        """One label, compared as a paired same-host A/B."""
        baseline = profile([metric(samples=base_samples, **metric_kw)])
        candidate = profile(
            [metric(samples=cand_samples, **metric_kw)],
            commit=COMMIT_B, when="2026-08-02",
        )
        comparison = perf.compare_profiles(
            baseline, candidate, alpha, paired=True
        )
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
        # Same distribution, std = 15% of mean — the noise level a
        # 30%-ratio gate could trip on.
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
        # A significant shift just past the floor fails.
        _, delta = self.compare(
            gauss(7, 1.0, 0.001, 20), gauss(8, 0.94, 0.001, 20)
        )
        assert delta.verdict == "degraded"

    def test_welch_below_six_samples_mann_whitney_from_six(self):
        _, delta = self.compare(
            gauss(9, 1.0, 0.02, 3), gauss(10, 0.5, 0.01, 3)
        )
        assert delta.method == "welch"
        assert delta.verdict == "degraded"
        _, delta = self.compare(
            gauss(9, 1.0, 0.02, 5), gauss(10, 0.5, 0.01, 6)
        )
        assert delta.method == "welch"
        _, delta = self.compare(
            gauss(9, 1.0, 0.02, 6), gauss(10, 0.5, 0.01, 6)
        )
        assert delta.method == "mannwhitney"

    def test_diff_alpha_names_a_shift_the_check_alpha_passes(self):
        # 8% slower on 3 runs a side: Welch's p is about 0.07.
        base, cand = (100.0, 104.0, 96.0), (92.0, 96.0, 88.0)
        checked, delta = self.compare(base, cand)
        assert 0.05 < delta.p_value < 0.1
        assert delta.verdict == "stable" and checked.ok
        diffed, delta = self.compare(base, cand, alpha=DIFF_ALPHA)
        assert delta.verdict == "degraded" and not diffed.ok
        assert "alpha=0.1, min-effect=5%" in perf.render_comparison(diffed)

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
        baseline = profile([metric("old")])
        candidate = profile(
            [metric("old"), metric("fresh", const(5.0))],
            commit=COMMIT_B,
        )
        comparison = perf.compare_profiles(baseline, candidate, paired=True)
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["fresh"].verdict == "new"
        assert not by_label["fresh"].fails
        assert comparison.ok

    def test_vanished_label_fails_the_gate(self):
        # Regression test: the legacy checker reported fresh-only labels
        # but a label *removed* from the candidate must fail explicitly,
        # not read as a pass.
        baseline = profile([metric("kept"), metric("gone")])
        candidate = profile([metric("kept")], commit=COMMIT_B)
        comparison = perf.compare_profiles(baseline, candidate, paired=True)
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["gone"].verdict == "vanished"
        assert by_label["gone"].fails
        assert not comparison.ok
        assert "vanished" in perf.render_comparison(comparison)

    def test_report_labels_never_fail(self):
        baseline = profile([
            metric("kept"),
            metric("context", gate="report"),
            metric("layer", gauss(19, 1.0, 0.01, 6), gate="report"),
        ])
        candidate = profile([
            metric("kept"),
            metric("layer", gauss(20, 0.5, 0.01, 6), gate="report"),
        ], commit=COMMIT_B)
        comparison = perf.compare_profiles(baseline, candidate, paired=True)
        by_label = {d.label: d for d in comparison.deltas}
        assert by_label["context"].verdict == "vanished"
        assert by_label["layer"].verdict == "degraded"
        assert comparison.ok

    def absolute_pair(self, cand_host="test", base_host="test", paired=True):
        baseline = profile(
            [metric("raw", gauss(15, 100.0, 2.0, 8)), metric("gone")],
            host=base_host,
        )
        candidate = profile(
            [metric("raw", gauss(16, 50.0, 1.0, 8))],
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


class TestProfileModel:
    def test_document_round_trip(self):
        original = profile([
            metric("a", (1.0, 2.0, 3.0), unit="ratio", gate="report"),
            metric("b", const(3.0), direction="lower"),
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

    def test_unknown_metric_keys_are_ignored(self):
        document = profile([metric("a")]).to_document()
        document["metrics"][0]["group"] = "g"
        decoded = perf.Profile.from_document(document)
        assert decoded == profile([metric("a")])
        assert "group" not in decoded.to_document()["metrics"][0]

    def test_gated_label_or_too_few_samples_is_refused(self, tmp_path):
        good = profile([metric("ipc"), metric("setup_s")]).to_document()
        for broken, reason in (
            ({"gate": "gated"}, "gate must be one of"),
            ({"gate": None}, "gate must be one of"),
            ({"samples": [1.0, 2.0]}, "2 sample"),
            ({"samples": []}, "0 sample"),
        ):
            document = json.loads(json.dumps(good))
            document["metrics"][1].update(broken)
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(document))
            with pytest.raises(
                ConfigError, match=rf"metric 'setup_s': .*{reason}"
            ):
                perf.load_profile(str(path))

    def test_bad_samples_name_the_metric(self):
        with pytest.raises(ConfigError, match="ipc"):
            metric("ipc", ())
        with pytest.raises(ConfigError, match="ipc"):
            metric("ipc", (1.0, 2.0, "fast"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            profile([metric("a"), metric("a", const(2.0))])

    def test_bad_direction_and_gate_rejected(self):
        with pytest.raises(ConfigError, match="direction"):
            metric("a", direction="sideways")
        with pytest.raises(ConfigError, match="gate"):
            metric("a", gate="sometimes")
        with pytest.raises(ConfigError, match="gate"):
            metric("a", gate="gated")


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

    def test_is_ancestor_needs_both_commits_known(self, tmp_path):
        head = perf.collect(ROOT).commit
        assert is_ancestor(head, head, ROOT)
        assert not is_ancestor(COMMIT_A, head, ROOT)
        assert not is_ancestor(head, COMMIT_A, ROOT)
        assert not is_ancestor(head, head, str(tmp_path))


class TestLedger:
    def seed(self, tmp_path):
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        first = profile([metric("m", const(1.0))], commit=COMMIT_A,
                        when="2026-08-01")
        second = profile([metric("m", const(1.1))], commit=COMMIT_B,
                         when="2026-08-02")
        ledger.append(first)
        ledger.append(second)
        return ledger, first, second

    def commits(self, ledger, suite="core"):
        return [p.provenance.commit for p in ledger.entries(suite)]

    def test_append_lookup_entries(self, tmp_path):
        ledger, first, second = self.seed(tmp_path)
        assert ledger.suites() == ["core"]
        assert self.commits(ledger) == [COMMIT_B, COMMIT_A]
        assert ledger.lookup("core").provenance.commit == COMMIT_B
        assert ledger.lookup("core", "aaaa").provenance.commit == COMMIT_A

    def test_append_refuses_silent_overwrite(self, tmp_path):
        ledger, first, _ = self.seed(tmp_path)
        with pytest.raises(PerfError, match="overwrite"):
            ledger.append(first)
        replaced = profile([metric("m", const(9.0))], commit=COMMIT_A,
                           when="2026-08-01")
        ledger.append(replaced, overwrite=True)
        assert ledger.lookup("core", "aaaa").metrics[0].samples == const(9.0)

    def test_lookup_errors(self, tmp_path):
        ledger, _, _ = self.seed(tmp_path)
        with pytest.raises(PerfError, match="no 'core' profile"):
            ledger.lookup("core", "dddd")
        with pytest.raises(PerfError, match="no 'sweep-cold' profiles"):
            ledger.lookup("sweep-cold")
        third = profile([metric("m")], commit="ab" + "c" * 38,
                        when="2026-08-03")
        ledger.append(third)
        with pytest.raises(PerfError, match="ambiguous"):
            ledger.lookup("core", "a")

    def test_change_recorded_in_the_parents_second_lists_first(
        self, tmp_path
    ):
        """The parent's commit key sorts higher and its whole-second
        stamp reads as text after any sub-second stamp of that second;
        neither may make it the newest entry."""
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        parent = profile([metric("m", const(1.0))]).with_provenance(
            perf.Provenance(
                commit=COMMIT_C, recorded_at="2026-10-19T05:04:34Z"
            )
        )
        change = profile([metric("m", const(1.1))]).with_provenance(
            perf.Provenance(
                commit=COMMIT_A, recorded_at="2026-10-19T05:04:34.600000Z"
            )
        )
        ledger.append(parent)
        ledger.append(change)
        assert self.commits(ledger) == [COMMIT_A, COMMIT_C]

    def test_collected_stamps_order_within_one_second(self, tmp_path):
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        first, second = perf.collect("."), perf.collect(".")
        assert first.recorded_at[19] == "."
        assert first.recorded_at < second.recorded_at
        parent = profile([metric("m", const(1.0))]).with_provenance(
            perf.Provenance(commit=COMMIT_C, recorded_at=first.recorded_at)
        )
        change = profile([metric("m", const(1.1))]).with_provenance(
            perf.Provenance(commit=COMMIT_A, recorded_at=second.recorded_at)
        )
        ledger.append(parent)
        ledger.append(change)
        assert self.commits(ledger) == [COMMIT_A, COMMIT_C]

    def test_stamps_of_every_precision_sort_by_time(self, tmp_path):
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        stamps = [
            "2026-10-18",
            "2026-10-17T23:59:59.999999Z",
            "2026-10-17T00:00:01Z",
            "2026-10-17T00:00:00.500000Z",
            "2026-10-17T00:00:00Z",
            "2026-10-16",
        ]
        for index, stamp in enumerate(stamps):
            ledger.append(profile([metric("m")]).with_provenance(
                perf.Provenance(commit=f"{index:x}" * 40, recorded_at=stamp)
            ))
        assert [
            p.provenance.recorded_at for p in ledger.entries("core")
        ] == stamps

    def test_equal_stamps_of_unknown_commits_keep_key_order(self, tmp_path):
        # Outside any checkout that knows the commits, the higher key
        # lists first, and a dirty re-record before its clean entry.
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        for commit, dirty in ((COMMIT_A, False), (COMMIT_C, False),
                              (COMMIT_B, False), (COMMIT_B, True)):
            ledger.append(profile([metric("m")]).with_provenance(
                perf.Provenance(commit=commit, dirty=dirty,
                                recorded_at="2026-10-19T05:04:34Z")
            ))
        assert [p.provenance.key for p in ledger.entries("core")] == [
            "c" * 12, "b" * 12 + "-dirty", "b" * 12, "a" * 12
        ]

    def test_equal_stamps_order_by_ancestry(self):
        """``c9657856e497`` and its child ``706161d63ee5`` were recorded
        in the same whole second in every suite; the key order alone
        would list the parent as newer."""
        parent = "c9657856e497"
        child = "706161d63ee5"
        if not is_ancestor(parent, child, ROOT):
            pytest.skip("this checkout does not know both commits")
        ledger = perf.Ledger(os.path.join(ROOT, "BENCH_history"))
        for suite in ledger.suites():
            entries = ledger.entries(suite)
            keys = [p.provenance.key for p in entries]
            by_key = dict(zip(keys, entries))
            assert (by_key[parent].provenance.recorded_at
                    == by_key[child].provenance.recorded_at)
            assert keys.index(child) < keys.index(parent), suite

    def test_prune_keeps_the_newest(self, tmp_path):
        ledger, _, _ = self.seed(tmp_path)
        third = profile([metric("m", const(1.2))], commit=COMMIT_C,
                        when="2026-08-03")
        ledger.append(third)
        removed = ledger.prune("core", keep=2)
        assert len(removed) == 1
        assert self.commits(ledger) == [COMMIT_C, COMMIT_B]
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

    def pair(self, tmp_path, cand_factor=1.0, drop_label=False,
             cand_host="test"):
        """A baseline and a scaled candidate: two ledger entries, and
        the same two profiles as files."""
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
        cand = profile(metrics, commit=COMMIT_B, when="2026-08-02",
                       host=cand_host)
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        ledger.append(base)
        ledger.append(cand)
        return (self.write(tmp_path, "base.json", base.to_document()),
                self.write(tmp_path, "cand.json", cand.to_document()))

    def check(self, base, cand, *extra):
        return self.run_cli(
            "perf", "check", "--baseline", base, "--candidate", cand, *extra
        )

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

    def test_check_passes_on_a_stable_pair(self, tmp_path, capsys):
        assert self.check(*self.pair(tmp_path, cand_factor=1.0)) == 0
        out = capsys.readouterr().out
        assert "perf check ok" in out
        assert "GATE: ok (alpha=0.05, min-effect=5%)" in out

    def test_check_flags_2x_slowdown(self, tmp_path, capsys):
        report = str(tmp_path / "report.txt")
        assert self.check(
            *self.pair(tmp_path, cand_factor=0.5), "-o", report
        ) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out and "perf check FAILED" in out
        with open(report) as f:
            assert "DEGRADED" in f.read()

    def test_check_improvement_passes(self, tmp_path, capsys):
        assert self.check(*self.pair(tmp_path, cand_factor=2.0)) == 0
        assert "improved" in capsys.readouterr().out

    def test_check_reports_vanished_labels(self, tmp_path, capsys):
        # Regression test: a label dropped from the candidate must fail
        # loudly, not silently disappear from the report.
        assert self.check(*self.pair(tmp_path, drop_label=True)) == 1
        assert "VANISHED" in capsys.readouterr().out

    def test_check_across_hosts_reports_absolute_labels(
        self, tmp_path, capsys
    ):
        assert self.check(
            *self.pair(tmp_path, cand_factor=0.5, cand_host="runner-2")
        ) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" not in out and "degraded" in out
        assert "absolute labels not gated: recorded on different hosts" \
            in out

    def test_check_needs_both_profile_files(self, tmp_path, capsys):
        base, cand = self.pair(tmp_path)
        for argv in ((), ("--baseline", base), ("--candidate", cand)):
            with pytest.raises(SystemExit) as exit_info:
                self.run_cli("perf", "check", *argv)
            assert exit_info.value.code == 2
        # check reads two files, never the ledger.
        with pytest.raises(SystemExit):
            self.check(base, cand, *self.ledger_args(tmp_path))
        capsys.readouterr()
        assert self.check(base, str(tmp_path / "missing.json")) == 1
        assert "cannot read profile" in capsys.readouterr().out

    def test_check_across_suites_rejected(self, tmp_path, capsys):
        base = profile([metric("m")])
        other = profile([metric("m")], suite="sweep-cold", commit=COMMIT_B)
        assert self.check(
            self.write(tmp_path, "a.json", base.to_document()),
            self.write(tmp_path, "b.json", other.to_document()),
        ) == 1
        assert "across suites" in capsys.readouterr().out

    def test_check_refuses_a_gated_label(self, tmp_path, capsys):
        base, cand = self.pair(tmp_path)
        with open(cand) as fh:
            document = json.load(fh)
        document["metrics"][0]["gate"] = "gated"
        cand = self.write(tmp_path, "gated.json", document)
        assert self.check(base, cand) == 2
        assert "metric 'ipc': gate must be one of" in (
            capsys.readouterr().out
        )

    def test_diff_of_two_profile_files_gates_absolute_labels(
        self, tmp_path, capsys
    ):
        base, cand = self.pair(tmp_path, cand_factor=0.5)
        assert self.run_cli(
            "perf", "diff", base, cand, *self.ledger_args(tmp_path)
        ) == 0
        out = capsys.readouterr().out
        assert "GATE: 1 label(s) fail (alpha=0.1, min-effect=5%)" in out
        assert self.run_cli("perf", "diff", *self.ledger_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "GATE: ok" in out
        assert "absolute labels not gated: the profiles are not one " \
            "paired A/B run" in out

    def test_diff_of_a_file_and_a_ledger_entry_is_not_paired(
        self, tmp_path, capsys
    ):
        # A ledger entry is another session, even beside a file.
        base, _ = self.pair(tmp_path, cand_factor=0.5)
        assert self.run_cli(
            "perf", "diff", base, "bbbb", "--suite", "core",
            *self.ledger_args(tmp_path),
        ) == 0
        out = capsys.readouterr().out
        assert "degraded" in out and "DEGRADED" not in out
        assert "not one paired A/B run" in out

    def test_diff_one_ref_against_the_latest_entry(self, tmp_path, capsys):
        self.pair(tmp_path, cand_factor=0.5)
        assert self.run_cli(
            "perf", "diff", "aaaa", "--suite", "core",
            *self.ledger_args(tmp_path),
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("core: ")
        assert "aaaaaaaaaaaa.json (aaaaaaaaaaaa" in out
        assert "-> bbbbbbbbbbbb (bbbbbbbbbbbb" in out
        assert "degraded" in out

    def test_diff_latest_pair_and_refs(self, tmp_path, capsys):
        self.pair(tmp_path, cand_factor=0.5)
        assert self.run_cli(
            "perf", "diff", *self.ledger_args(tmp_path)
        ) == 0
        out = capsys.readouterr().out
        assert "aaaaaaaaaaaa" in out and "bbbbbbbbbbbb" in out
        assert "degraded" in out
        assert self.run_cli(
            "perf", "diff", "bbbb", "aaaa", "--suite", "core",
            *self.ledger_args(tmp_path),
        ) == 0
        assert "improved" in capsys.readouterr().out

    def test_diff_across_suites_rejected(self, tmp_path, capsys):
        core = profile([metric("m")])
        other = profile([metric("m")], suite="sweep-cold", commit=COMMIT_B)
        a = self.write(tmp_path, "a.json", core.to_document())
        b = self.write(tmp_path, "b.json", other.to_document())
        assert self.run_cli(
            "perf", "diff", a, b, *self.ledger_args(tmp_path)
        ) == 1
        assert "across suites" in capsys.readouterr().out

    def test_prune(self, tmp_path, capsys):
        self.pair(tmp_path)
        assert self.run_cli(
            "perf", "prune", "--keep", "1", *self.ledger_args(tmp_path)
        ) == 0
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        assert len(ledger.entries("core")) == 1


class TestCheckedInLedger:
    """The committed BENCH_history/ entries stay readable and render."""

    def ledger(self):
        return perf.Ledger(os.path.join(ROOT, "BENCH_history"))

    def test_committed_entries_load(self):
        ledger = self.ledger()
        assert ledger.suites() == ["core-columnar", "core-fifo", "sweep-cold"]
        for suite in ledger.suites():
            entries = ledger.entries(suite)
            assert len(entries) >= 2
            for entry in entries:
                assert entry.suite == suite
                assert entry.metrics
                assert entry.provenance.commit != "unknown"
                assert {m.gate for m in entry.metrics} <= {
                    "absolute", "report"
                }

    def test_committed_history_logs(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(ROOT)
        ledger = self.ledger()
        assert main(["perf", "log"]) == 0
        out = capsys.readouterr().out
        for suite in ledger.suites():
            assert f"{suite}: {len(ledger.entries(suite))} recorded " \
                "profile(s)" in out
        assert main(["perf", "log", "--label", "sim_instr_per_s"]) == 0
        out = capsys.readouterr().out
        for suite in ledger.suites():
            assert f"{suite}: {len(ledger.entries(suite))} profile(s)" in out

    def test_committed_history_diffs_without_gating(
        self, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(ROOT)
        newest, previous = self.ledger().entries("core-columnar")[:2]
        assert main(["perf", "diff", "--suite", "core-columnar"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            f"core-columnar: {previous.provenance.key} "
        )
        assert f"-> {newest.provenance.key} " in out
        assert "sim_instr_per_s" in out
        # Two ledger entries are two sessions, not a paired A/B.
        assert "absolute labels not gated: the profiles are not one " \
            "paired A/B run" in out
        assert "GATE: ok (alpha=0.1, min-effect=5%)" in out

    @pytest.mark.parametrize(
        "suite", ["core-columnar", "core-fifo", "sweep-cold"]
    )
    def test_committed_pair_check_names_a_slowdown_and_a_lost_label(
        self, suite, tmp_path, capsys
    ):
        """The committed ``ff46fc6d492e`` -> ``8ed145ed0ebf`` pair was one
        paired A/B: as recorded it passes; with the change's instr/s cut
        by a fifth and ``setup_s`` dropped, it fails on exactly those two
        labels."""
        from repro.cli import main

        history = os.path.join(ROOT, "BENCH_history", suite)
        base = os.path.join(history, "ff46fc6d492e.json")
        cand = os.path.join(history, "8ed145ed0ebf.json")
        assert main(["perf", "check", "--baseline", base,
                     "--candidate", cand]) == 0
        with open(cand, encoding="utf-8") as fh:
            document = json.load(fh)
        metrics = []
        for entry in document["metrics"]:
            if entry["label"] == "sim_instr_per_s":
                entry["samples"] = [0.8 * x for x in entry["samples"]]
            if entry["label"] != "setup_s":
                metrics.append(entry)
        document["metrics"] = metrics
        slower = tmp_path / "slower.json"
        slower.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["perf", "check", "--baseline", base,
                     "--candidate", str(slower)]) == 1
        out = capsys.readouterr().out
        assert "GATE: 2 label(s) fail (alpha=0.05, min-effect=5%):\n" \
            "  sim_instr_per_s: degraded\n  setup_s: vanished\n" in out


class TestSparkline:
    def seed(self, tmp_path):
        """Three commits with a rising metric; one entry misses a label."""
        ledger = perf.Ledger(str(tmp_path / "BENCH_history"))
        ledger.append(profile(
            [metric("ipc", const(1.0)),
             metric("instr/s", const(1000.0), unit="instr/s")],
            commit=COMMIT_A, when="2026-08-01",
        ))
        ledger.append(profile(
            [metric("ipc", const(1.5))],
            commit=COMMIT_B, when="2026-08-02",
        ))
        ledger.append(profile(
            [metric("ipc", const(2.0)),
             metric("instr/s", const(2400.0), unit="instr/s")],
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

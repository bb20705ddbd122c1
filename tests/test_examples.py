"""Smoke tests: every example script runs and produces its key output."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    """Run one example as a subprocess and return its stdout."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py", "li")
    assert "speed-up" in out
    assert "16-way upper bound" in out
    assert "replicated" in out


def test_steering_comparison():
    out = run_example("steering_comparison.py", "li", "2500")
    assert "general-balance" in out
    assert "modulo" in out
    assert "fifo" in out


def test_balance_study():
    out = run_example("balance_study.py", "li")
    assert "ready-count difference" in out
    assert "modulo" in out


def test_custom_scheme():
    out = run_example("custom_scheme.py", "li")
    assert "sticky-affinity" in out
    assert "general-balance" in out


def test_scenario_corpus():
    out = run_example("scenario_corpus.py", "smoke", "900")
    assert "corpus extremes" in out
    assert "reused 4 point(s) from the store" in out
    assert "identical — the trace is the workload" in out


def test_spec_api():
    out = run_example("spec_api.py", "li", "900")
    assert "machine variants" in out
    assert "bypass-latency-3" in out
    assert "clustered[clusters.0.iq_size=16]" in out
    assert "loaded == original: True" in out
    assert "reused 2 from the store" in out


def test_distributed_campaign():
    out = run_example("distributed_campaign.py", "smoke", "900")
    assert "packaged 4 point(s), 2 trace(s)" in out
    assert "4/4 completed" in out
    assert "identical to the serial run" in out


def test_slice_analysis():
    out = run_example("slice_analysis.py", "li")
    assert "static slices" in out
    assert "runtime LdSt slice discovery" in out

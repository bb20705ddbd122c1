"""Shared fixtures: small deterministic workloads and fast simulations."""

from __future__ import annotations

import pytest

from repro import ProcessorConfig, simulate, simulate_baseline
from repro.workloads import workload

#: Window sizes for integration tests: big enough for steady state,
#: small enough to keep the suite fast.
FAST_N = 3000
FAST_WARMUP = 1000


@pytest.fixture(scope="session")
def gcc_workload():
    """The gcc stand-in program (session-scoped; programs are immutable)."""
    return workload("gcc")


@pytest.fixture(scope="session")
def li_workload():
    """The li stand-in program."""
    return workload("li")


@pytest.fixture(scope="session")
def tiny_program(gcc_workload):
    """A static program for structural tests."""
    return gcc_workload.program


def _fast_sim(bench, scheme, **kwargs):
    """Short simulation with uniform fast parameters."""
    kwargs.setdefault("n_instructions", FAST_N)
    kwargs.setdefault("warmup", FAST_WARMUP)
    return simulate(bench, steering=scheme, **kwargs)


def _fast_base(bench, **kwargs):
    """Short baseline simulation."""
    kwargs.setdefault("n_instructions", FAST_N)
    kwargs.setdefault("warmup", FAST_WARMUP)
    return simulate_baseline(bench, **kwargs)


@pytest.fixture(scope="session")
def fast_sim():
    """The short-simulation helper, exposed as a fixture.

    Test modules must not import from conftest (pytest collects them as
    top-level modules, so relative imports fail); they request this
    fixture and call it like the plain function it wraps.
    """
    return _fast_sim


@pytest.fixture(scope="session")
def fast_base():
    """The short-baseline helper, exposed as a fixture (see fast_sim)."""
    return _fast_base


@pytest.fixture(scope="session")
def gcc_general_result():
    """One shared general-balance run on gcc (used by several tests)."""
    return _fast_sim("gcc", "general-balance")


@pytest.fixture(scope="session")
def gcc_base_result():
    """One shared baseline run on gcc."""
    return _fast_base("gcc")


@pytest.fixture()
def default_config():
    """A fresh clustered-machine configuration."""
    return ProcessorConfig.default()

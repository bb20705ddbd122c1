"""Committed-path golden digests and the trace extension contract.

``tests/golden/traces.json`` pins one sha256 per (workload, seed) over
the first :data:`N_RECORDS` records' ``(pc, flags, addr)`` columns, for
every registered workload: the SpecInt95 stand-ins and the stress
families.  Any change to how traces are generated must leave these
digests unchanged; only an intended change to the workload model is
re-blessed (``python tests/golden/regenerate.py --traces``).

The other tests pin what the digests cannot see: that a trace extended
in odd-sized steps, extended mid-simulation, or shipped through an
``.rtrace`` round trip holds the same columns as one built in a single
step.
"""

import hashlib
import json
import os

import pytest

from repro.core.steering import make_steering
from repro.pipeline import Processor, ProcessorConfig
from repro.scenarios.rtrace import export_trace_bytes, import_trace_bytes
from repro.workloads import SPECINT95, registered_profiles, workload

import repro.scenarios  # noqa: F401 — registers the stress families

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "traces.json")

#: Records per digest, and the seeds every workload is pinned at.
N_RECORDS = 20_000
SEEDS = (0, 1, 7)


def workload_names():
    """Every registered workload name: SpecInt95 first, then the
    stress families' members, each in sorted order."""
    return sorted(SPECINT95) + sorted(registered_profiles())


def golden_key(name: str, seed: int) -> str:
    return f"{name}/{seed}"


def columns_digest(columns, n: int = N_RECORDS) -> str:
    """sha256 over the first *n* records' pc, flags and address columns."""
    doc = [columns.pcs[:n], columns.flags[:n], columns.mem_addrs[:n]]
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def trace_digest(name: str, seed: int) -> str:
    """The digest of a freshly generated (*name*, *seed*) trace."""
    shared = workload(name, seed=seed, fresh=True).shared_trace()
    shared.ensure(N_RECORDS)
    return columns_digest(shared.columns())


def all_digests() -> dict:
    return {
        golden_key(name, seed): trace_digest(name, seed)
        for name in workload_names()
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_registered_workload(golden):
    assert sorted(golden) == sorted(
        golden_key(name, seed) for name in workload_names() for seed in SEEDS
    )


@pytest.mark.parametrize("name", workload_names())
def test_trace_digests_match_golden(golden, name):
    for seed in SEEDS:
        assert trace_digest(name, seed) == golden[golden_key(name, seed)], (
            f"committed path of {name} seed {seed} changed"
        )


def fresh_columns(name: str, seed: int, steps):
    """Columns of a fresh trace grown by ``ensure`` at each of *steps*."""
    shared = workload(name, seed=seed, fresh=True).shared_trace()
    for n in steps:
        shared.ensure(n)
    return shared.columns()


def same_prefix(a, b, n: int) -> None:
    assert a.pcs[:n] == b.pcs[:n]
    assert a.flags[:n] == b.flags[:n]
    assert a.mem_addrs[:n] == b.mem_addrs[:n]
    assert a.insts[:n] == b.insts[:n]


@pytest.mark.parametrize("name", ["gcc", "compress", "pchase-heavy"])
def test_ensure_in_odd_steps_matches_one_big_ensure(name):
    n = 5000
    whole = fresh_columns(name, 1, [n])
    steps, total = [], 0
    for step in (1, 1, 7, 1, 1000, 3, 13, 999, 1, 64):
        total += step
        steps.append(total)
    while total < n:
        total += 977
        steps.append(total)
    stepped = fresh_columns(name, 1, steps)
    assert len(stepped) >= n
    same_prefix(stepped, whole, n)
    # Each step materialises at least what it asked for, and stops
    # within one basic block of it.
    for target in steps:
        grown = fresh_columns(name, 1, [target])
        longest = max(len(block) for block in grown.program.blocks)
        assert target <= len(grown) < target + longest


def test_mid_run_extension_matches_pre_ensured_run():
    """A simulation that grows its trace while it runs must see the
    same records, and the same line-id caches, as one given the whole
    trace up front."""
    n, warmup = 3000, 500
    config = ProcessorConfig.default()

    lazy_wl = workload("gcc", seed=7, fresh=True)
    lazy_wl.shared_trace().ensure(1)
    lazy = Processor(lazy_wl, config, make_steering("general-balance"))
    lazy_result = lazy.run(n, warmup=warmup)
    lazy_cols = lazy_wl.shared_trace().columns()
    assert len(lazy_cols) > n + warmup
    # The fetch unit's cached line ids, extended with every fill.
    line_bytes = config.l1i.line_bytes
    assert lazy_cols.line_ids(line_bytes) == [
        pc // line_bytes for pc in lazy_cols.pcs
    ]

    eager_wl = workload("gcc", seed=7, fresh=True)
    eager_wl.shared_trace().ensure(len(lazy_cols) + 10_000)
    eager = Processor(eager_wl, config, make_steering("general-balance"))
    assert eager.run(n, warmup=warmup) == lazy_result
    same_prefix(lazy_cols, eager_wl.shared_trace().columns(), len(lazy_cols))


@pytest.mark.parametrize("name", ["go", "stream-hot"])
def test_rtrace_round_trip_gives_equal_columns(name):
    wl = workload(name, seed=1, fresh=True)
    data, _ = export_trace_bytes(wl, 3000, cushion=100)
    imported = import_trace_bytes(data, origin=name).shared_trace().columns()
    original = wl.shared_trace().columns()
    assert len(imported) == 3100
    same_prefix(imported, original, 3100)

"""Property-based tests (hypothesis) on core data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BypassNetwork, FifoIssueQueue, IssueQueue
from repro.core.balance import ImbalanceEstimator
from repro.frontend import CombinedPredictor, TwoBitCounterTable
from repro.isa import DynInst, Instruction, Opcode
from repro.memory import SetAssocCache
from repro.rename import FreeList


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
@given(
    addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_cache_counters_always_consistent(addrs):
    cache = SetAssocCache(1024, 2, 32)
    for addr in addrs:
        cache.access(addr)
    assert cache.hits + cache.misses == len(addrs)
    assert 0.0 <= cache.miss_rate <= 1.0


@given(
    addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_cache_repeat_of_recent_access_hits(addrs):
    """Accessing the same address twice in a row always hits the second
    time (the line was just made MRU)."""
    cache = SetAssocCache(512, 2, 32)
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr)


@given(
    addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100),
    assoc=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=30, deadline=None)
def test_cache_set_occupancy_bounded(addrs, assoc):
    cache = SetAssocCache(2048, assoc, 32)
    for addr in addrs:
        cache.access(addr)
    for ways in cache._sets:
        assert len(ways) <= assoc
        assert len(set(ways)) == len(ways)  # no duplicate tags


# ----------------------------------------------------------------------
# Predictors
# ----------------------------------------------------------------------
@given(
    outcomes=st.lists(st.booleans(), min_size=1, max_size=300),
    pc=st.integers(0, 1 << 20).map(lambda x: x * 4),
)
@settings(max_examples=50, deadline=None)
def test_counter_table_stays_saturated(outcomes, pc):
    table = TwoBitCounterTable(256)
    for outcome in outcomes:
        table.update(pc >> 2, outcome)
        assert 0 <= table.counter(pc >> 2) <= 3


@given(
    outcomes=st.lists(st.booleans(), min_size=10, max_size=500),
)
@settings(max_examples=30, deadline=None)
def test_predictor_accuracy_accounting(outcomes):
    predictor = CombinedPredictor()
    for outcome in outcomes:
        predictor.predict_and_update(0x4000, outcome)
    assert predictor.predictions == len(outcomes)
    assert 0 <= predictor.mispredictions <= predictor.predictions
    assert 0.0 <= predictor.accuracy <= 1.0


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_constant_branch_eventually_perfect(data):
    """Any constant-outcome branch must converge to 100% prediction."""
    outcome = data.draw(st.booleans())
    predictor = CombinedPredictor()
    for _ in range(16):
        predictor.predict_and_update(0x8000, outcome)
    assert predictor.predict(0x8000) == outcome


# ----------------------------------------------------------------------
# Free lists
# ----------------------------------------------------------------------
@given(
    ops=st.lists(st.integers(1, 5), min_size=1, max_size=100),
)
@settings(max_examples=50, deadline=None)
def test_free_list_conservation(ops):
    """Alternating allocate/release keeps 0 <= used <= total."""
    fl = FreeList(64, initially_used=16)
    outstanding = []
    for n in ops:
        if fl.can_allocate(n):
            fl.allocate(n)
            outstanding.append(n)
        elif outstanding:
            fl.release(outstanding.pop())
        assert 0 <= fl.free <= fl.total
        assert fl.free + fl.used == fl.total


# ----------------------------------------------------------------------
# Imbalance estimator
# ----------------------------------------------------------------------
@given(
    events=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 12), st.integers(0, 12)),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=50, deadline=None)
def test_imbalance_estimator_never_crashes_and_signs_agree(events):
    est = ImbalanceEstimator(window=4, threshold=8)
    for cluster, r0, r1 in events:
        est.on_steer(cluster)
        est.on_cycle([r0, r1])
    # Whatever happened, the derived views must be consistent.
    if est.counter > 0:
        assert est.overloaded_cluster == 0
        assert est.preferred_cluster == 1
    else:
        assert est.overloaded_cluster == 1
        assert est.preferred_cluster == 0


@given(
    ready=st.tuples(st.integers(0, 20), st.integers(0, 20)),
)
@settings(max_examples=100, deadline=None)
def test_instant_imbalance_sign_matches_loads(ready):
    est = ImbalanceEstimator()
    sample = est.instant_imbalance(list(ready))
    r0, r1 = ready
    if sample > 0:
        assert r0 > r1
    elif sample < 0:
        assert r1 > r0


# ----------------------------------------------------------------------
# Windows
# ----------------------------------------------------------------------
def _dyn(seq):
    return DynInst(seq, Instruction(0x1000, Opcode.ADD, 5, (1,)))


@given(
    n_ops=st.integers(1, 120),
)
@settings(max_examples=30, deadline=None)
def test_issue_queue_occupancy_invariant(n_ops):
    iq = IssueQueue(64)
    inserted = []
    rng = random.Random(n_ops)
    for seq in range(n_ops):
        if iq.can_accept() and rng.random() < 0.7:
            dyn = _dyn(seq)
            iq.insert(dyn)
            inserted.append(dyn)
        elif inserted:
            iq.remove(inserted.pop(rng.randrange(len(inserted))))
        assert 0 <= len(iq) <= iq.capacity
        ages = [d.seq for d in iq.entries_oldest_first()]
        assert ages == sorted(ages)


@given(
    chain_spec=st.lists(st.booleans(), min_size=1, max_size=80),
)
@settings(max_examples=30, deadline=None)
def test_fifo_queue_chains_stay_in_order(chain_spec):
    """Within any FIFO, sequence numbers must increase head to tail."""
    iq = FifoIssueQueue(n_fifos=4, depth=8)
    last = None
    for seq, dependent in enumerate(chain_spec):
        dyn = _dyn(seq)
        if dependent and last is not None:
            dyn.providers = [last]
        if iq.placement_for(dyn) is None:
            break
        assert iq.insert(dyn)
        last = dyn
    for fifo in iq._fifos:
        seqs = [d.seq for d in fifo]
        assert seqs == sorted(seqs)


@given(
    claims=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 1)),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=50, deadline=None)
def test_bypass_never_exceeds_ports_per_cycle(claims):
    bypass = BypassNetwork(ports_per_direction=3)
    granted = {}
    for cycle, direction in sorted(claims):
        if bypass.claim(cycle, direction):
            granted[(cycle, direction)] = granted.get((cycle, direction), 0) + 1
    assert all(count <= 3 for count in granted.values())


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 3))
@settings(max_examples=4, deadline=None)
def test_simulation_deterministic_for_seed(seed):
    from repro import simulate

    a = simulate(
        "li", "general-balance", n_instructions=800, warmup=200, seed=seed
    )
    b = simulate(
        "li", "general-balance", n_instructions=800, warmup=200, seed=seed
    )
    assert a.ipc == b.ipc
    assert a.cycles == b.cycles
    assert a.copies_issued == b.copies_issued

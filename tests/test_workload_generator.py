"""Unit tests for the synthetic program generator."""

from collections import Counter

import pytest

from repro.isa import InstrClass
from repro.workloads import (
    SPECINT95,
    generate_program,
    get_profile,
    workload,
)
from repro.workloads.generator import (
    ADDR_REGS,
    COND_REGS,
    DATA_REGS,
    INDEX_REGS,
)


def test_register_partitions_are_disjoint():
    pools = [set(ADDR_REGS), set(INDEX_REGS), set(COND_REGS), set(DATA_REGS)]
    union = set().union(*pools)
    assert len(union) == sum(len(p) for p in pools)
    assert 0 not in union  # r0 reserved


def test_generation_is_deterministic():
    a = generate_program(get_profile("gcc"), seed=3)
    b = generate_program(get_profile("gcc"), seed=3)
    assert [i.pc for i in a.all_instructions()] == [
        i.pc for i in b.all_instructions()
    ]
    assert [i.opcode for i in a.all_instructions()] == [
        i.opcode for i in b.all_instructions()
    ]


def test_different_seeds_differ():
    a = generate_program(get_profile("gcc"), seed=0)
    b = generate_program(get_profile("gcc"), seed=1)
    ops_a = [i.opcode for i in a.all_instructions()]
    ops_b = [i.opcode for i in b.all_instructions()]
    assert ops_a != ops_b


def test_different_benchmarks_differ():
    a = generate_program(get_profile("gcc"))
    b = generate_program(get_profile("li"))
    assert [i.opcode for i in a.all_instructions()] != [
        i.opcode for i in b.all_instructions()
    ]


@pytest.mark.parametrize("bench", sorted(SPECINT95))
def test_program_is_structurally_valid(bench):
    """StaticProgram's own validation passes for every benchmark."""
    program = generate_program(get_profile(bench))
    assert program.num_instructions > 50
    # Every conditional has a behaviour, every memory op has one (checked
    # by the constructor); also check closedness of the CFG.
    for block in program.blocks:
        if block.terminator is None:
            assert block.fall_succ is not None


@pytest.mark.parametrize("bench", ["gcc", "li", "ijpeg"])
def test_branch_targets_match_successors(bench):
    """Terminator targets must point at the taken successor's first pc."""
    program = generate_program(get_profile(bench))
    for block in program.blocks:
        term = block.terminator
        if term is not None and block.taken_succ is not None:
            target_block = program.blocks[block.taken_succ]
            assert term.target == target_block.start_pc


def test_instruction_mix_tracks_profile():
    """Dynamic mix should be within sane bounds of the profile's intent."""
    shared = workload("gcc").shared_trace()
    shared.ensure(30000)
    records = shared.columns().to_records()[:30000]
    counts = Counter(r.inst.cls for r in records)
    total = len(records)
    mem_frac = (counts[InstrClass.LOAD] + counts[InstrClass.STORE]) / total
    branch_frac = counts[InstrClass.BRANCH] / total
    assert 0.15 < mem_frac < 0.45
    assert 0.03 < branch_frac < 0.2
    assert counts[InstrClass.FP] == 0  # SpecInt has no FP


def test_cold_blocks_rarely_execute():
    """Cold-path pollution blocks must be dynamically rare."""
    wl = workload("gcc")
    program = wl.program
    shared = wl.shared_trace()
    shared.ensure(40000)
    records = shared.columns().to_records()[:40000]
    executed = Counter(program.block_of(r.inst.pc).block_id for r in records)
    # Identify cold blocks structurally: blocks whose *only* predecessors
    # are fall-through edges of branches biased 0.97 taken.
    cold_candidates = set()
    for block in program.blocks:
        term = block.terminator
        if term is None or not term.is_conditional:
            continue
        behavior = program.branch_behaviors[term.pc]
        if behavior.kind == "biased" and behavior.taken_prob >= 0.95:
            cold_candidates.add(block.fall_succ)
    assert cold_candidates, "generator should produce cold paths"
    total = sum(executed.values())
    cold_fraction = (
        sum(executed.get(b, 0) for b in cold_candidates) / total
    )
    assert cold_fraction < 0.08


def test_pcs_are_dense_and_aligned():
    program = generate_program(get_profile("m88ksim"))
    pcs = [i.pc for i in program.all_instructions()]
    assert all(pc % 4 == 0 for pc in pcs)
    assert pcs == sorted(pcs)
    assert pcs[-1] - pcs[0] == (len(pcs) - 1) * 4  # contiguous layout

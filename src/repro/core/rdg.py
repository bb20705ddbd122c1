"""Register dependence graph and offline backward slices (paper §3.1).

The RDG has one node per static instruction and an edge for every true
register dependence.  Memory instructions are special: following the
paper, only their *address* sources create incoming edges (the store's
data operand is not part of the address computation), while a load's
destination links the memory value into downstream computation — which is
what makes pointer-chasing code put loads inside the LdSt slice.

Building a static RDG requires knowing which definitions reach each use
across the CFG, so this module implements a classic iterative
reaching-definitions analysis and derives def-use edges from it.  The
result feeds the *static* partitioning comparator (§3.3 / Figure 3,
after Sastry, Palacharla & Smith) and the offline analyses in tests and
examples.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Set, Tuple

from ..isa import Instruction, InstrClass
from ..workloads.program import StaticProgram

if TYPE_CHECKING:  # networkx is imported by the functions that build graphs
    import networkx as nx


def _incoming_regs(inst: Instruction) -> Tuple[int, ...]:
    """Source registers that create RDG edges into *inst*."""
    if inst.cls is InstrClass.STORE or inst.cls is InstrClass.LOAD:
        return inst.issue_srcs
    return inst.srcs


def reaching_definitions(
    program: StaticProgram,
) -> Dict[int, Dict[int, FrozenSet[int]]]:
    """Definitions reaching each *block entry*.

    Returns ``{block_id: {register: frozenset of defining PCs}}``.  The
    analysis is the standard forward may-analysis with union meet,
    iterated to a fixpoint over the closed CFG.
    """
    blocks = program.blocks
    # GEN/KILL summaries: last definition of each register inside a block.
    gen: Dict[int, Dict[int, int]] = {}
    for block in blocks:
        defs: Dict[int, int] = {}
        for inst in block:
            if inst.dst is not None:
                defs[inst.dst] = inst.pc
        gen[block.block_id] = defs

    preds: Dict[int, Set[int]] = {b.block_id: set() for b in blocks}
    for block in blocks:
        for succ in (block.taken_succ, block.fall_succ):
            if succ is not None:
                preds[succ].add(block.block_id)

    in_sets: Dict[int, Dict[int, FrozenSet[int]]] = {
        b.block_id: {} for b in blocks
    }
    out_sets: Dict[int, Dict[int, FrozenSet[int]]] = {
        b.block_id: {} for b in blocks
    }
    changed = True
    while changed:
        changed = False
        for block in blocks:
            bid = block.block_id
            new_in: Dict[int, Set[int]] = {}
            for pred in preds[bid]:
                for reg, pcs in out_sets[pred].items():
                    new_in.setdefault(reg, set()).update(pcs)
            frozen_in = {reg: frozenset(pcs) for reg, pcs in new_in.items()}
            if frozen_in != in_sets[bid]:
                in_sets[bid] = frozen_in
                changed = True
            new_out = dict(frozen_in)
            for reg, pc in gen[bid].items():
                new_out[reg] = frozenset((pc,))
            if new_out != out_sets[bid]:
                out_sets[bid] = new_out
                changed = True
    return in_sets


def build_rdg(program: StaticProgram) -> nx.DiGraph:
    """Build the register dependence graph of *program*.

    Nodes are instruction PCs (with the static :class:`Instruction` as a
    ``inst`` attribute); a directed edge ``u -> v`` means *v* may consume
    a value produced by *u*.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for inst in program.all_instructions():
        graph.add_node(inst.pc, inst=inst)
    entry_defs = reaching_definitions(program)
    for block in program.blocks:
        live: Dict[int, FrozenSet[int]] = dict(entry_defs[block.block_id])
        for inst in block:
            for reg in _incoming_regs(inst):
                for def_pc in live.get(reg, ()):  # may be undefined
                    graph.add_edge(def_pc, inst.pc)
            if inst.dst is not None:
                live[inst.dst] = frozenset((inst.pc,))
    return graph


#: One RDG per live program: reaching definitions dominate the cost of
#: static steering setup, and the graph is immutable once built, so every
#: scheme steering the same program can share it.  Weak keys let programs
#: (and their graphs) be collected when no workload holds them any more.
_RDG_CACHE: "weakref.WeakKeyDictionary[StaticProgram, nx.DiGraph]" = (
    weakref.WeakKeyDictionary()
)
_RDG_STATS = {"builds": 0, "hits": 0}


def cached_rdg(program: StaticProgram) -> nx.DiGraph:
    """The RDG of *program*, built at most once per live program object."""
    graph = _RDG_CACHE.get(program)
    if graph is None:
        graph = build_rdg(program)
        _RDG_CACHE[program] = graph
        _RDG_STATS["builds"] += 1
    else:
        _RDG_STATS["hits"] += 1
    return graph


def rdg_cache_stats() -> Dict[str, int]:
    """Snapshot of ``{"builds": ..., "hits": ...}`` since the last reset."""
    return dict(_RDG_STATS)


def reset_rdg_stats() -> None:
    """Zero the build/hit counters (test isolation)."""
    _RDG_STATS["builds"] = 0
    _RDG_STATS["hits"] = 0


def backward_slice(graph: nx.DiGraph, pc: int) -> Set[int]:
    """Nodes from which *pc* is reachable, including *pc* (paper §3.1)."""
    import networkx as nx

    if pc not in graph:
        raise KeyError(f"pc {pc:#x} not in RDG")
    nodes = set(nx.ancestors(graph, pc))
    nodes.add(pc)
    return nodes


def _slice_union(
    program: StaticProgram,
    graph: nx.DiGraph,
    classes: Iterable[InstrClass],
) -> Set[int]:
    targets = [
        inst.pc
        for inst in program.all_instructions()
        if inst.cls in tuple(classes)
    ]
    result: Set[int] = set()
    for pc in targets:
        result |= backward_slice(graph, pc)
    return result


def ldst_slice(program: StaticProgram, graph: nx.DiGraph = None) -> Set[int]:
    """Static LdSt slice: union of backward slices of address computations."""
    graph = graph if graph is not None else cached_rdg(program)
    return _slice_union(
        program, graph, (InstrClass.LOAD, InstrClass.STORE)
    )


def br_slice(program: StaticProgram, graph: nx.DiGraph = None) -> Set[int]:
    """Static Br slice: union of backward slices of branches."""
    graph = graph if graph is not None else cached_rdg(program)
    return _slice_union(program, graph, (InstrClass.BRANCH,))


def extend_with_neighbors(
    graph: nx.DiGraph, slice_pcs: Set[int], hops: int = 1
) -> Set[int]:
    """Sastry-style slice extension: add forward neighbours.

    The static partitioning of [18] extends the LdSt slice with nearby
    instructions to improve workload balance; *hops* successive layers of
    RDG successors are folded in.
    """
    result = set(slice_pcs)
    frontier = set(slice_pcs)
    for _ in range(max(0, hops)):
        nxt: Set[int] = set()
        for pc in frontier:
            nxt.update(graph.successors(pc))
        nxt -= result
        if not nxt:
            break
        result |= nxt
        frontier = nxt
    return result

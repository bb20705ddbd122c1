#!/usr/bin/env python3
"""Slice anatomy: offline RDG analysis vs runtime slice detection.

Builds the register dependence graph of a synthetic benchmark (paper
§3.1), computes the *static* LdSt and Br slices with the reaching-
definitions analysis the static comparator uses, then replays the
dynamic instruction stream through the paper's runtime tables (Figure 10
hardware) and reports how the dynamically-discovered slice converges —
and stays smaller than the conservative static one, which is the paper's
argument for dynamic partitioning (Figure 3).

Run:  python examples/slice_analysis.py [benchmark]
"""

import sys

from repro.core.rdg import br_slice, build_rdg, ldst_slice
from repro.core.slices import ParentTable, SliceFlagTable
from repro.isa import DynInst
from repro.workloads import workload


def main() -> None:
    bench = sys.argv[1] if len(sys.argv) > 1 else "li"
    wl = workload(bench)
    program = wl.program
    total = program.num_instructions

    graph = build_rdg(program)
    static_ldst = ldst_slice(program, graph)
    static_br = br_slice(program, graph)
    print(f"{bench}: {total} static instructions, "
          f"{graph.number_of_edges()} RDG edges")
    print(
        f"static slices: LdSt {len(static_ldst)}/{total} "
        f"({len(static_ldst) / total:.0%}), "
        f"Br {len(static_br)}/{total} ({len(static_br) / total:.0%})"
    )

    # Replay the dynamic stream through the runtime tables and sample the
    # discovered slice size as it converges.
    parents = ParentTable()
    flags = SliceFlagTable("ldst")
    checkpoints = (1000, 5000, 20000, 50000)
    shared = wl.shared_trace()
    shared.ensure(checkpoints[-1])
    insts = shared.columns().insts
    executed = 0
    print("runtime LdSt slice discovery (flag-table hardware, §3.3):")
    for limit in checkpoints:
        while executed < limit:
            dyn = DynInst(executed, insts[executed])
            flags.observe(dyn, parents)
            parents.note_decode(dyn)
            executed += 1
        discovered = sum(
            1 for inst in program.all_instructions() if flags.in_slice(inst.pc)
        )
        print(
            f"  after {limit:>6d} instructions: {discovered}/{total} "
            f"static pcs flagged ({discovered / total:.0%})"
        )
    print(
        "the dynamic table tracks only executed paths, so it stays below "
        "the conservative static slice — the effect behind Figure 3."
    )


if __name__ == "__main__":
    main()

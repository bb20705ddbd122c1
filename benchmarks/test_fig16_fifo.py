"""Figure 16: general balance vs FIFO-based steering (Palacharla et al.).

Paper: general balance (+36%) clearly beats the FIFO-based scheme (+13%);
the gap is explained by communications (0.042 vs 0.162 per instruction)
at similar workload balance.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig16_fifo(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig16"](runner))
    print()
    print(render_figure("fig16", data))
    print("\npaper: comms/instr FIFO 0.162 vs general 0.042")
    assert data["fifo_hmean"] > 0
    assert data["fifo_comms"] > data["general_comms"]

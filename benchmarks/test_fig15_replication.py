"""Figure 15: register replication under general balance steering.

Paper: only ~3.1 logical registers are mapped in both clusters on
average — far from the full-file replication of the Alpha 21264,
which is the scheme's register-file argument.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure
from repro.isa.registers import N_INT_REGS


def test_fig15_replication(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig15"](runner))
    print()
    print(render_figure("fig15", data))
    print(f"\npaper: ~3.1 registers on average (vs {N_INT_REGS} full file)")
    assert 0 < data["hmean"] < N_INT_REGS / 2

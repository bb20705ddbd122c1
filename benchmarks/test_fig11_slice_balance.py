"""Figure 11: slice balance steering speed-ups.

Paper: both variants reach ~27% (LdSt) / ~26.5% (Br), clearly above the
plain slice schemes, with fewer communications (0.07/0.08 per
instruction).
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig11_slice_balance(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig11"](runner))
    print()
    print(render_figure("fig11", data))
    print("\npaper: mean comms/instr 0.07 (LdSt) / 0.08 (Br)")
    assert data["ldst_hmean"] > 0
    assert data["br_hmean"] > 0
    # The two variants perform similarly (paper: 27% vs 26.5%).
    assert abs(data["ldst_hmean"] - data["br_hmean"]) < 0.10

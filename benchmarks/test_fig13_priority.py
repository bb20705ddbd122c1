"""Figure 13: priority slice balance steering.

Paper: keeping only *critical* slices together is slightly better than
plain slice balance (27.7%/28.8% vs 27%/26.5%) thanks to fewer critical
communications (0.050 -> 0.045 LdSt, 0.055 -> 0.043 Br).
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig13_priority(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig13"](runner))
    print()
    print(render_figure("fig13", data))
    assert data["ldst_hmean"] > 0
    assert data["br_hmean"] > 0

"""Figure 5: communications per dynamic instruction for slice steering.

Paper: per-benchmark bars split into critical and non-critical; the Br
slice generates more communications than the LdSt slice, which explains
its slightly lower performance in Figure 4.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig05_slice_comms(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig5"](runner))
    print()
    print(render_figure("fig5", data))
    print("\npaper: Br slice communicates more than LdSt slice on average")
    assert 0 < data["ldst_mean_total"] < 0.5
    assert 0 < data["br_mean_total"] < 0.5

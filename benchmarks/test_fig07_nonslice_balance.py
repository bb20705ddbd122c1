"""Figure 7: non-slice balance steering vs plain slice steering.

Paper: adding non-slice balancing helps the Br slice but hurts the LdSt
slice (it raises LdSt communications, Figure 8).
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig07_nonslice_balance(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig7"](runner))
    print()
    print(render_figure("fig7", data))
    print("\npaper: balancing helps the Br slice, hurts the LdSt slice")
    for key in (
        "ldst-slice_hmean",
        "br-slice_hmean",
        "ldst-nonslice_hmean",
        "br-nonslice_hmean",
    ):
        assert data[key] > 0

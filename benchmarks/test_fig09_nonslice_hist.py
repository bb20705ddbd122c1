"""Figure 9: balance distribution under non-slice balance steering.

Paper: the distribution improves over Figure 6 but a large fraction of
cycles still shows an overloaded integer cluster — motivating slice
balance steering.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig09_nonslice_hist(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig9"](runner))
    print()
    print(render_figure("fig9", data))
    for dist in data.values():
        assert abs(sum(dist) - 1.0) < 1e-6

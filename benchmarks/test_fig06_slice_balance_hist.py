"""Figure 6: workload-balance distribution under slice steering.

Paper: both slice schemes leave a significant fraction of cycles with one
cluster overloaded — the observation motivating the balance schemes.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig06_slice_balance_hist(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig6"](runner))
    print()
    print(render_figure("fig6", data))
    for dist in data.values():
        assert abs(sum(dist) - 1.0) < 1e-6
        center_mass = sum(dist[8:13])  # |diff| <= 2
        assert center_mass < 0.98  # real imbalance exists

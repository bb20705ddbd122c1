"""Figure 12: balance distribution — modulo vs slice balance steering.

Paper: slice balance steering matches modulo's near-ideal balance while
communicating an order of magnitude less.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def _central_mass(dist, radius=2):
    center = len(dist) // 2
    return sum(dist[center - radius : center + radius + 1])


def test_fig12_slice_balance_hist(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig12"](runner))
    print()
    print(render_figure("fig12", data))
    # Modulo is the balance reference; slice balance should be comparable.
    assert _central_mass(data["ldst"]) > 0.3 * _central_mass(data["modulo"])

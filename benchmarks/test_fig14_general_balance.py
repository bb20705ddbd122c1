"""Figure 14: general balance steering vs modulo and the 16-way bound.

Paper: general balance averages +36%, only 8% below the 16-way upper
bound; modulo manages just +2.8%.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig14_general_balance(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig14"](runner))
    print()
    print(render_figure("fig14", data))
    print("\npaper: modulo +2.8%, general +36%, UB ~+44% (H-mean)")
    assert data["modulo_hmean"] < data["general_hmean"]
    assert data["general_hmean"] <= data["upper_bound_hmean"] + 0.02
    assert data["general_hmean"] > 0.6 * data["upper_bound_hmean"]

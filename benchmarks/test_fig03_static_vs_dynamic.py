"""Figure 3: static partitioning (Sastry et al.) vs dynamic LdSt slice.

Paper: static achieves ~3% (G-mean) while the dynamic LdSt slice steering
reaches ~16%; every program except m88ksim prefers the dynamic scheme.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig03_static_vs_dynamic(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig3"](runner))
    print()
    print(render_figure("fig3", data))
    assert data["dynamic_gmean"] > data["static_gmean"]
    assert data["static_gmean"] > 0

"""Figure 4: LdSt slice steering vs Br slice steering speed-ups.

Paper: both give solid speed-ups (H-means ~16% / ~14%); Br slice trails
slightly because it generates more communications (Figure 5).
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig04_slice_steering(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig4"](runner))
    print()
    print(render_figure("fig4", data))
    print("\npaper: LdSt slice +16%, Br slice slightly lower (H-mean)")
    assert data["ldst_hmean"] > 0
    assert data["br_hmean"] > 0

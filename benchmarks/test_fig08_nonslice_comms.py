"""Figure 8: average communications for the four slice-steering variants.

Paper: non-slice balancing raises LdSt-slice communications noticeably
while leaving Br-slice communications about the same.
"""

from conftest import run_once

from repro.analysis import FIGURES, render_figure


def test_fig08_nonslice_comms(benchmark, runner):
    data = run_once(benchmark, lambda: FIGURES["fig8"](runner))
    print()
    print(render_figure("fig8", data))
    for row in data.values():
        assert row["total"] >= row["critical"] >= 0
        assert row["total"] < 0.5

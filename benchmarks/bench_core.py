#!/usr/bin/env python
"""Core-model throughput baseline: event-driven vs reference scan issue.

Times the simulator's hot path (``Processor.run``) on the smoke-suite
workloads under both issue schedulers and writes the measurements to
``BENCH_core.json`` at the repository root.  Run it from a checkout::

    PYTHONPATH=src python benchmarks/bench_core.py [--repeat 3]

The grid covers every smoke-suite (bench, scheme) point on the Table 2
clustered machine — the representative regime, where windows stay
shallow and the two schedulers should be near parity — one FIFO-window
point (gcc x fifo on ``clustered-fifo``, paper §3.9), plus the
*issue-bound* points on the ``deep-window-512`` machine (512-entry
windows, 1024-deep ROB), where the reference scan's O(window x
operands) per-cycle cost dominates and the event-driven scheduler is
expected to hold its >=1.5x advantage.

Each point records instructions/sec for both schedulers (best over
``--repeat`` timed runs, with mean/std for noise visibility) and the
``speedup_vs_scan`` ratio.  The ratio is the machine-portable signal
the CI perf gate leans on; the absolute numbers chart the trajectory on
comparable hardware.

The scan reference also takes the unfused single-instruction dispatch
helper, so ``speedup_vs_scan`` charges the fused dispatch loop's gain
to the event side as well as the scheduler's.  Per-stage costs of the
production pipeline are measured by ``perfbench/`` instead.

Each point keeps the raw per-repeat ``seconds`` vectors alongside the
summary stats, so the perf ledger (``repro-sim perf record`` reads this
document as a legacy v0 profile) can run real statistical tests instead
of single-ratio comparisons.

Not a pytest module on purpose: perf numbers belong in a recorded
artifact the next PR can diff, not in a pass/fail gate (the gate is
``repro-sim perf check`` against ``BENCH_history/``, driven by CI;
``check_regression.py`` remains as the legacy ratio shim).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from repro.core.steering import make_steering
from repro.pipeline.processor import Processor
from repro.spec import machine_config
from repro.workloads import workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Measured window per timed run (committed instructions).
N_INSTRUCTIONS = 8000
WARMUP = 1000

#: The issue-bound machine: per-cluster window / ROB scaled until the
#: issue stage dominates runtime (see the deep-window registry family).
ISSUE_BOUND_MACHINE = "deep-window-512"

#: (bench, scheme, machine, issue_bound?) measurement grid.  Benches and
#: schemes are the smoke suite's; pchase-extreme joins the issue-bound
#: points because its dependence chains actually fill a deep window
#: (pointer-chase stress family, scenario corpus).
def build_grid():
    from repro.scenarios import get_suite

    smoke = get_suite("smoke")
    grid = []
    for bench in smoke.benches:
        for scheme in smoke.schemes:
            grid.append((bench, scheme, "clustered", False))
    # The smoke suite steers only into conventional windows; one FIFO
    # point keeps the §3.9 window organisation in the ledger.
    grid.append(("gcc", "fifo", "clustered-fifo", False))
    for bench in list(smoke.benches) + ["pchase-extreme"]:
        grid.append((bench, "general-balance", ISSUE_BOUND_MACHINE, True))
    return grid


def time_point(bench, scheme, machine, scheduler, repeat,
               n_instructions=N_INSTRUCTIONS):
    """Best/mean/std wall-clock seconds over *repeat* timed runs."""
    wl = workload(bench, seed=0)  # cached: charges generation once
    times = []
    for _ in range(repeat):
        config = machine_config(machine)
        steering = make_steering(scheme)
        if getattr(steering, "requires_fifo_issue", False):
            config = config.with_fifo_issue()
        processor = Processor(wl, config, steering, scheduler=scheduler)
        start = time.perf_counter()
        processor.run(n_instructions, warmup=WARMUP)
        times.append(time.perf_counter() - start)
    # Raw per-repeat "seconds" samples ride along: the perf ledger's
    # statistical tests (repro.perf.detect) run on these, not on the
    # summary stats.
    return _summary_rows(times, n_instructions, repeat)


def _summary_rows(times, n_instructions, repeat):
    return {
        "runs": repeat,
        "seconds": [round(t, 6) for t in times],
        "seconds_best": round(min(times), 4),
        "seconds_mean": round(statistics.fmean(times), 4),
        "seconds_std": round(
            statistics.stdev(times) if len(times) > 1 else 0.0, 4
        ),
        "instr_per_sec": round(n_instructions / min(times), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--output",
        default=os.path.join(REPO_ROOT, "BENCH_core.json"),
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    points = []
    for bench, scheme, machine, issue_bound in build_grid():
        event = time_point(bench, scheme, machine, "event", args.repeat)
        scan = time_point(bench, scheme, machine, "scan", args.repeat)
        speedup = event["instr_per_sec"] / scan["instr_per_sec"]
        points.append(
            {
                "bench": bench,
                "scheme": scheme,
                "machine": machine,
                "issue_bound": issue_bound,
                "event": event,
                "scan": scan,
                "speedup_vs_scan": round(speedup, 3),
            }
        )
        tag = "issue-bound" if issue_bound else "baseline   "
        print(
            f"{tag} {bench:>14s} {scheme:<16s} {machine:<15s} "
            f"event={event['instr_per_sec']:>8.0f} i/s  "
            f"scan={scan['instr_per_sec']:>8.0f} i/s  "
            f"speedup={speedup:4.2f}x"
        )

    issue_bound_speedups = [
        p["speedup_vs_scan"] for p in points if p.get("issue_bound")
    ]
    document = {
        "benchmark": "core-scheduler",
        "suite": "smoke",
        "n_instructions": N_INSTRUCTIONS,
        "warmup": WARMUP,
        "python": platform.python_version(),
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "points": points,
        "summary": {
            "max_issue_bound_speedup": max(issue_bound_speedups),
            "min_speedup": min(p["speedup_vs_scan"] for p in points),
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

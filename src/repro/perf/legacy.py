"""The legacy v0 ratio gate, retained for the transition to the ledger.

This is the original ``benchmarks/check_regression.py`` logic — a
single fractional-ratio threshold over the ``BENCH_*.json`` summary
numbers — moved under :mod:`repro.perf` so the script can stay as a
thin shim while downstream callers migrate to ``repro-sim perf check``
(raw-sample statistical tests against the ``BENCH_history/`` ledger).

The schema is detected from the document's ``benchmark`` field:

* ``core-scheduler`` — every (bench, scheme, machine) point's
  ``speedup_vs_scan`` ratio is compared (machine-portable: both
  schedulers run on the same host, so the ratio cancels hardware), and
  the event scheduler's absolute ``instr_per_sec`` is reported for
  context but only gated when ``--gate-absolute`` is passed.
* ``campaign-backends`` — each backend label is gated on a *compound*
  signal: its throughput relative to the same run's serial number
  (cancelling host speed) AND its raw points/sec must both drop beyond
  the threshold before the gate fires.

Metrics present only in the fresh run are reported as ``new (ungated)``
rather than silently skipped; metrics missing from the fresh run are
gated failures.  Known blind spot, accepted for cross-host portability:
a *uniform* slowdown of everything passes the ratio gates; same-host
runs can add ``--gate-absolute``.  The statistical checker inherits all
of these semantics (see :mod:`repro.perf.detect`) and adds raw-sample
tests on top.
"""

from __future__ import annotations

import argparse
import json
from typing import Iterator, Tuple

#: (name, baseline value, fresh value, gated?)
Metric = Tuple[str, float, float, bool]


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def core_metrics(baseline: dict, fresh: dict, gate_absolute: bool
                 ) -> Iterator[Metric]:
    def by_point(doc):
        return {
            (p["bench"], p["scheme"], p["machine"]): p
            for p in doc["points"]
        }

    def rows(name, point):
        return (
            (f"{name} speedup_vs_scan", point["speedup_vs_scan"], True),
            (f"{name} event instr/s",
             point["event"]["instr_per_sec"], gate_absolute),
        )

    base_points, fresh_points = by_point(baseline), by_point(fresh)
    for key, base in sorted(base_points.items()):
        new = fresh_points.get(key)
        name = "/".join(key)
        if new is None:
            yield (f"{name} [missing from fresh run]",
                   base["speedup_vs_scan"], 0.0, True)
            continue
        for (label, base_value, gated), (_, new_value, _unused) in zip(
            rows(name, base), rows(name, new)
        ):
            yield (label, base_value, new_value, gated)
    for key, new in sorted(fresh_points.items()):
        if key in base_points:
            continue
        label, value, _ = rows("/".join(key), new)[0]
        yield (f"{label} [new in fresh run]", 0.0, value, False)


def campaign_metrics(baseline: dict, fresh: dict, gate_absolute: bool
                     ) -> Iterator[Metric]:
    base_backends = baseline["backends"]
    fresh_backends = fresh["backends"]
    base_serial = base_backends["serial"]["points_per_second"]
    fresh_serial = fresh_backends["serial"]["points_per_second"]
    for label, base in sorted(base_backends.items()):
        new = fresh_backends.get(label)
        if new is None:
            yield (f"{label} [missing from fresh run]",
                   base["points_per_second"], 0.0, True)
            continue
        rel_ratio = (
            (new["points_per_second"] / fresh_serial)
            / (base["points_per_second"] / base_serial)
        )
        raw_ratio = new["points_per_second"] / base["points_per_second"]
        # Compound gate: the serial-relative ratio cancels host speed but
        # also moves when *serial alone* gets faster, and the raw number
        # moves with runner hardware.  Only the combination — this
        # backend slower both relative to serial AND in absolute terms —
        # is strong evidence of a real backend regression, so the gated
        # value is the better of the two ratios.
        yield (f"{label} points/s (rel&raw)",
               1.0, max(rel_ratio, raw_ratio), label != "serial")
        yield (f"{label} points/s",
               base["points_per_second"], new["points_per_second"],
               gate_absolute)
    # Labels only the fresh run has: not comparable (no baseline), but a
    # new backend must show up in the report instead of shipping
    # invisible to the gate — record the baseline the next run inherits.
    for label, new in sorted(fresh_backends.items()):
        if label in base_backends:
            continue
        yield (f"{label} points/s [new in fresh run]",
               0.0, new["points_per_second"], False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--fresh", required=True)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="fractional drop that fails the gate (default 0.30 = 30%%)",
    )
    parser.add_argument(
        "--gate-absolute",
        action="store_true",
        help="also gate raw throughput numbers (same-host comparisons)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    kind = baseline.get("benchmark")
    if fresh.get("benchmark") != kind:
        print(
            f"schema mismatch: baseline is {kind!r}, "
            f"fresh is {fresh.get('benchmark')!r}"
        )
        return 1
    if kind == "core-scheduler":
        metrics = core_metrics(baseline, fresh, args.gate_absolute)
    elif kind == "campaign-backends":
        metrics = campaign_metrics(baseline, fresh, args.gate_absolute)
    else:
        print(f"unknown benchmark schema {kind!r}")
        return 1

    failed = 0
    floor = 1.0 - args.max_regression
    for name, base, new, gated in metrics:
        if base <= 0:
            # No baseline to ratio against (a metric new in the fresh
            # run): report it so it is visible, never gate it.
            print(
                f"{'new (ungated)':>20s}  {name:<55s} "
                f"baseline={base:10.2f} fresh={new:10.2f}"
            )
            continue
        ratio = new / base
        status = "ok"
        if ratio < floor:
            status = "REGRESSION" if gated else "regressed (ungated)"
            failed += gated
        print(
            f"{status:>20s}  {name:<55s} "
            f"baseline={base:10.2f} fresh={new:10.2f} ({ratio:5.2f}x)"
        )
    if failed:
        print(
            f"\n{failed} metric(s) regressed more than "
            f"{args.max_regression:.0%} vs {args.baseline}"
        )
        return 1
    print(f"\nno gated metric regressed more than {args.max_regression:.0%}")
    return 0

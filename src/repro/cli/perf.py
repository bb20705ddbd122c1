"""The ``repro-sim perf`` surface: record | check | diff | log | prune.

The ledger workflow::

    for seed in 1 2 3 4 5 6; do
        python3 perfbench/run.py --workload core-columnar --seed $seed \
            --seconds 3 --trace 0 > runs/core-columnar.$seed.out
    done
    repro-sim perf record --suite core-columnar runs/core-columnar.*.out
    git add BENCH_history && git commit
    repro-sim perf diff --suite core-columnar   # previous vs latest
    repro-sim perf log --suite core-columnar

The same-session A/B that gates host speed::

    repro-sim perf record --suite core-columnar --no-append \
        -o base.json base-runs/*.out
    repro-sim perf record --suite core-columnar --no-append \
        -o change.json change-runs/*.out
    repro-sim perf check --baseline base.json --candidate change.json

``perf record`` reads saved ``perfbench/run.py`` output (one file per
run), builds one profile of the workload with one sample per run (see
:mod:`repro.perf.perfbench`), stamps it with provenance and appends it
to ``BENCH_history/``.  It checks every run: a run whose ``failed`` is
not 0 is refused.

``perf check`` is the CI gate: it compares two profile files, one
paired A/B, with the statistical detector at alpha 0.05 and exits 1
when any ``absolute`` label degrades or vanishes.  Those labels measure
host speed, so they gate only when both files name the same host: the
same-session A/B, whose alternating runs cancel the host's drift.
``perf diff`` only reports, at alpha 0.1: any two recorded profiles
(commit prefixes or file paths) side by side with per-label verdicts.
Against ledger entries, recorded in other sessions, its ``absolute``
labels are reported as not gated.
"""

from __future__ import annotations

import argparse
import json
import os

from ..errors import ConfigError, PerfError


def _add_ledger_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="DIR",
        help="profile ledger directory (default BENCH_history)",
    )


def add_parser(sub) -> None:
    perf = sub.add_parser(
        "perf",
        help="perf-profile ledger: record history, detect degradations",
    )
    perf.set_defaults(handler=cmd_perf)
    psub = perf.add_subparsers(dest="perf_cmd", required=True)

    record = psub.add_parser(
        "record",
        help="build a workload's profile from saved perfbench runs and "
        "append it to the ledger",
    )
    record.add_argument(
        "--suite", required=True, metavar="WORKLOAD",
        help="the perfbench workload the runs measured (a workload name "
        "in the BENCHMARK.json next to the ledger)",
    )
    record.add_argument(
        "files", nargs="+", metavar="FILE",
        help="saved standard output of one perfbench/run.py run each; "
        "at least 3 per mode (--trace 0 / --trace 1)",
    )
    record.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="also write the recorded profile document to this file",
    )
    record.add_argument(
        "--no-append", action="store_true",
        help="do not write the profile into the ledger",
    )
    record.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing ledger entry for the same commit",
    )
    _add_ledger_arg(record)

    check = psub.add_parser(
        "check",
        help="gate a candidate profile on its baseline from one paired "
        "A/B (the CI gate; exit 1 on degradation)",
    )
    check.add_argument(
        "--baseline", required=True, metavar="FILE",
        help="baseline profile document",
    )
    check.add_argument(
        "--candidate", required=True, metavar="FILE",
        help="candidate profile document, recorded in the same A/B "
        "session as the baseline",
    )
    check.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="also write the rendered report to this file",
    )

    diff = psub.add_parser(
        "diff",
        help="render two recorded profiles side by side with per-label "
        "verdicts",
    )
    diff.add_argument(
        "refs", nargs="*", metavar="REF",
        help="two profiles: commit prefixes or file paths (default: the "
        "suite's previous and latest ledger entries)",
    )
    diff.add_argument(
        "--suite", default=None,
        help="suite for commit-prefix refs (default: the ledger's only "
        "suite)",
    )
    diff.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="also write the rendered diff to this file",
    )
    _add_ledger_arg(diff)

    log = psub.add_parser("log", help="list recorded profiles, newest first")
    log.add_argument(
        "--suite", default="all",
        help="suite to list, or 'all' (default: all)",
    )
    log.add_argument(
        "--limit", type=int, default=0,
        help="show at most this many entries per suite (0 = all)",
    )
    log.add_argument(
        "--label", default=None, metavar="LABEL",
        help="sparkline the history of this metric label (exact match, "
        "else case-insensitive substring) instead of listing entries",
    )
    _add_ledger_arg(log)

    prune = psub.add_parser(
        "prune", help="drop the oldest ledger entries beyond --keep"
    )
    prune.add_argument(
        "--suite", default="all",
        help="suite to prune, or 'all' (default: all)",
    )
    prune.add_argument(
        "--keep", type=int, required=True,
        help="newest entries to retain per suite",
    )
    _add_ledger_arg(prune)


def _open_ledger(args: argparse.Namespace):
    from ..perf.ledger import Ledger

    return Ledger() if args.ledger is None else Ledger(args.ledger)


def _suite_names(ledger, requested: str):
    if requested != "all":
        return [requested]
    recorded = ledger.suites()
    if not recorded:
        raise PerfError(
            f"ledger {ledger.root!r} has no recorded profiles "
            f"(record one with 'perf record')"
        )
    return recorded


def _write_document(profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile.to_document(), fh, indent=1)
        fh.write("\n")


def _cmd_record(args: argparse.Namespace) -> int:
    from ..perf import provenance
    from ..perf.perfbench import Benchmark, profile_from_runs

    ledger = _open_ledger(args)
    repo_root = os.path.dirname(os.path.abspath(ledger.root)) or "."
    benchmark = Benchmark.load(os.path.join(repo_root, "BENCHMARK.json"))
    profile = profile_from_runs(args.suite, args.files, benchmark)
    profile = profile.with_provenance(provenance.collect(repo_root))
    if not args.no_append:
        path = ledger.append(profile, overwrite=args.overwrite)
        print(f"recorded {profile.describe()} -> {path}")
    else:
        print(f"built {profile.describe()} (not appended)")
    if args.output:
        _write_document(profile, args.output)
        print(f"wrote {args.output}")
    return 0


def _print_report(text: str, output) -> None:
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {output}")


def _cmd_check(args: argparse.Namespace) -> int:
    from ..perf.detect import CHECK_ALPHA, compare_profiles
    from ..perf.model import load_profile
    from ..perf.views import render_comparison

    comparison = compare_profiles(
        load_profile(args.baseline), load_profile(args.candidate),
        CHECK_ALPHA, paired=True,
    )
    _print_report(render_comparison(comparison), args.output)
    failed = len(comparison.failures)
    if failed:
        print(f"\nperf check FAILED: {failed} gated label(s) degraded")
        return 1
    print("\nperf check ok")
    return 0


def _diff_suite(ledger, args: argparse.Namespace) -> str:
    if args.suite is not None:
        return args.suite
    recorded = ledger.suites()
    if len(recorded) == 1:
        return recorded[0]
    raise PerfError(
        f"--suite is required to resolve commit refs (ledger has: "
        f"{', '.join(recorded) or 'no suites'})"
    )


def _cmd_diff(args: argparse.Namespace) -> int:
    if len(args.refs) > 2:
        raise PerfError(
            f"perf diff takes at most two refs, got {len(args.refs)}"
        )
    from ..perf.detect import DIFF_ALPHA, compare_profiles
    from ..perf.ledger import is_file_ref, resolve_profile
    from ..perf.views import render_comparison

    ledger = _open_ledger(args)
    refs = list(args.refs)
    # Two profile files are one paired A/B: their absolute labels gate.
    paired = len(refs) == 2 and all(is_file_ref(ref) for ref in refs)
    suite = args.suite if paired else _diff_suite(ledger, args)
    if len(refs) == 0:
        entries = ledger.entries(suite)
        if len(entries) < 2:
            raise PerfError(
                f"suite {suite!r} has {len(entries)} recorded "
                f"profile(s); perf diff needs two (or pass refs)"
            )
        base, base_origin = entries[1], entries[1].provenance.key
        cand, cand_origin = entries[0], entries[0].provenance.key
    elif len(refs) == 1:
        base, base_origin = resolve_profile(ledger, suite, refs[0])
        cand = ledger.lookup(suite)
        cand_origin = cand.provenance.key
    else:
        base, base_origin = resolve_profile(ledger, suite, refs[0])
        cand, cand_origin = resolve_profile(ledger, suite, refs[1])
    comparison = compare_profiles(base, cand, DIFF_ALPHA, paired)
    title = (
        f"{cand.suite}: {base_origin} ({base.provenance.describe()}) -> "
        f"{cand_origin} ({cand.provenance.describe()})"
    )
    _print_report(render_comparison(comparison, title=title), args.output)
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    from ..perf.views import render_label_history, render_log

    ledger = _open_ledger(args)
    suites = _suite_names(ledger, args.suite)
    if not args.label:
        for suite in suites:
            print(render_log(ledger, suite, limit=args.limit))
        return 0
    rendered = 0
    for suite in suites:
        try:
            print(render_label_history(
                ledger, suite, args.label, limit=args.limit
            ))
        except PerfError:
            # With --suite all, a label naturally lives in one suite
            # only; re-raise when the user pinned the suite themselves.
            if args.suite != "all":
                raise
            continue
        rendered += 1
    if not rendered:
        raise PerfError(
            f"no recorded label matches {args.label!r} in any suite "
            f"({', '.join(suites)})"
        )
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args)
    for suite in _suite_names(ledger, args.suite):
        removed = ledger.prune(suite, args.keep)
        print(f"{suite}: pruned {len(removed)} entr(y/ies)")
        for path in removed:
            print(f"  removed {path}")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    handlers = {
        "record": _cmd_record,
        "check": _cmd_check,
        "diff": _cmd_diff,
        "log": _cmd_log,
        "prune": _cmd_prune,
    }
    try:
        return handlers[args.perf_cmd](args)
    except (ConfigError, PerfError) as error:
        print(f"perf {args.perf_cmd} failed: {error}")
        return 2 if isinstance(error, ConfigError) else 1

"""The ``repro-sim perf`` surface: record | check | diff | log | prune.

The ledger workflow::

    for seed in 1 2 3 4 5 6; do
        python3 perfbench/run.py --workload core-columnar --seed $seed \
            --seconds 3 --trace 0 > runs/core-columnar.$seed.out
    done
    repro-sim perf record --suite core-columnar runs/core-columnar.*.out
    git add BENCH_history && git commit
    repro-sim perf check               # report against recorded history
    repro-sim perf diff --suite core-columnar
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
not 0 is refused.  ``perf check`` is the CI entry point: it compares a
candidate profile against a baseline (by default the newest ledger
entry from a *different* commit) using the statistical detector and
exits non-zero when any gated label degrades or vanishes.  ``perf
diff`` renders any two recorded profiles (commit prefixes or file
paths) side by side with per-label verdicts.

The ``absolute`` labels (host speed: every end-to-end perfbench metric)
gate only when both profiles are passed as files — ``--baseline`` and
``--candidate`` for ``check``, two file refs for ``diff`` — and name the
same host: that is the same-session A/B, whose alternating runs cancel
the host's drift.  Against ledger entries, recorded in other sessions,
they are reported and not gated.
"""

from __future__ import annotations

import argparse
import json
import os

from ..errors import ConfigError, PerfError
from . import provenance
from .detect import DetectorConfig, compare_profiles
from .ledger import DEFAULT_LEDGER, Ledger, is_file_ref, resolve_profile
from .model import Profile, load_profile
from .perfbench import Benchmark, profile_from_runs
from .views import render_comparison, render_label_history, render_log


def _add_ledger_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        default=DEFAULT_LEDGER,
        metavar="DIR",
        help=f"profile ledger directory (default {DEFAULT_LEDGER})",
    )


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", type=float, default=0.05,
        help="significance level for the statistical tests (default 0.05)",
    )
    parser.add_argument(
        "--min-effect", type=float, default=0.05,
        help="minimum relative shift that can fail the gate, so "
        "tiny-but-significant deltas pass (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="ratio-fallback threshold for sample-starved labels "
        "(default 0.30 = 30%%)",
    )
    parser.add_argument(
        "--method", default="auto",
        choices=("auto", "mannwhitney", "welch", "ratio"),
        help="force one comparison method (default: auto by sample count)",
    )
    parser.add_argument(
        "--ignore-vanished", action="store_true",
        help="report labels missing from the candidate without failing",
    )


def add_perf_parser(sub) -> None:
    """Wire the ``perf`` subcommand into the main parser."""
    perf = sub.add_parser(
        "perf",
        help="perf-profile ledger: record history, detect degradations",
    )
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
        help="gate a candidate profile against the ledger baseline "
        "(the CI entry point; exit 1 on degradation)",
    )
    check.add_argument(
        "--suite", default="all",
        help="suite to check, or 'all' recorded suites (default: all)",
    )
    check.add_argument(
        "--candidate", default=None, metavar="FILE",
        help="candidate profile document (default: the ledger's newest "
        "entry); with a --baseline file, absolute labels gate",
    )
    check.add_argument(
        "--baseline", default=None, metavar="REF",
        help="baseline: commit prefix or profile file (default: the "
        "newest ledger entry from a different commit than the candidate)",
    )
    check.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="also write the rendered report to this file",
    )
    _add_detector_args(check)
    _add_ledger_arg(check)

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
    _add_detector_args(diff)
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


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(
        alpha=args.alpha,
        min_effect=args.min_effect,
        max_regression=args.max_regression,
        method=args.method,
        ignore_vanished=args.ignore_vanished,
    )


def _suite_names(ledger: Ledger, requested: str):
    if requested != "all":
        return [requested]
    recorded = ledger.suites()
    if not recorded:
        raise PerfError(
            f"ledger {ledger.root!r} has no recorded profiles "
            f"(record one with 'perf record')"
        )
    return recorded


def _write_document(profile: Profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile.to_document(), fh, indent=1)
        fh.write("\n")


def _cmd_record(args: argparse.Namespace) -> int:
    ledger = Ledger(args.ledger)
    repo_root = os.path.dirname(os.path.abspath(args.ledger)) or "."
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


def _cmd_check(args: argparse.Namespace) -> int:
    ledger = Ledger(args.ledger)
    config = _detector_config(args)
    if args.candidate:
        candidates = [load_profile(args.candidate)]
        suites = [candidates[0].suite]
        if args.suite != "all" and suites != [args.suite]:
            raise PerfError(
                f"--candidate is a {suites[0]!r} profile, "
                f"not {args.suite!r}"
            )
    else:
        suites = _suite_names(ledger, args.suite)
        candidates = [ledger.lookup(suite) for suite in suites]
    failed = 0
    reports = []
    for suite, candidate in zip(suites, candidates):
        if args.baseline:
            baseline, origin = resolve_profile(ledger, suite, args.baseline)
        else:
            baseline = ledger.baseline_for(suite, candidate)
            if baseline is None:
                reports.append(
                    f"{suite}: only {candidate.provenance.describe()} is "
                    f"recorded — nothing older to compare against"
                )
                continue
        paired = bool(args.candidate) and is_file_ref(args.baseline)
        comparison = compare_profiles(baseline, candidate, config, paired)
        reports.append(render_comparison(comparison))
        failed += len(comparison.failures)
    text = "\n\n".join(reports)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    if failed:
        print(f"\nperf check FAILED: {failed} gated label(s) degraded")
        return 1
    print("\nperf check ok")
    return 0


def _diff_suite(ledger: Ledger, args: argparse.Namespace) -> str:
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
    ledger = Ledger(args.ledger)
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
    if base.suite != cand.suite:
        raise PerfError(
            f"cannot diff across suites: {base.suite!r} vs {cand.suite!r}"
        )
    comparison = compare_profiles(
        base, cand, _detector_config(args), paired
    )
    title = (
        f"{cand.suite}: {base_origin} ({base.provenance.describe()}) -> "
        f"{cand_origin} ({cand.provenance.describe()})"
    )
    text = render_comparison(comparison, title=title)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    ledger = Ledger(args.ledger)
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
    ledger = Ledger(args.ledger)
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

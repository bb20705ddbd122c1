"""Command-line interface.

Installed as ``repro-sim``; ``python -m repro.cli`` runs the same::

    repro-sim list                       # schemes and the workload corpus
    repro-sim machines list              # machine registry + families
    repro-sim schemes list               # steering schemes, described
    repro-sim run -b gcc -s general-balance
    repro-sim run -b gcc -m bypass-latency-2 -O clusters.0.iq_size=128
    repro-sim compare -b gcc             # every scheme on one benchmark
    repro-sim sweep bypass_ports 1 2 3   # ablation sweeps (dotted paths ok)
    repro-sim figure fig14               # regenerate one paper figure
    repro-sim figure all                 # the whole evaluation
    repro-sim campaign -b gcc li -s modulo general-balance -j 4
    repro-sim campaign ... -O l1d.size_kb=32 --json r.json --resume
    repro-sim campaign ... --backend worker -j 4   # warm worker pool
    repro-sim scenarios list             # workload families and suites
    repro-sim suite run branchy --json branchy.json   # a registered suite
    repro-sim suite export paper-table1 -o pt1.json   # data-file suites
    repro-sim suite run pt1.json --json store.json --resume
    repro-sim trace export -b gcc -o gcc.rtrace
    repro-sim trace import gcc.rtrace --check
    repro-sim trace show job-123-1 --log events.jsonl   # span tree
    repro-sim dist backends              # list execution backends
    repro-sim dist package smoke --job-dir job/   # multi-host pipeline
    repro-sim dist worker job/           # claim+simulate until empty
    repro-sim dist status job/
    repro-sim dist merge job/ --json results.json
    repro-sim perf record --suite core-columnar runs/*.out   # perfbench runs
    repro-sim perf check --baseline base.json --candidate change.json
    repro-sim perf diff --suite core-columnar   # previous vs latest entry
    repro-sim -v campaign ...            # span records on stderr

Each command group is one module of this package (``simulate``,
``figures``, ``campaigns``, ``traces``, ``dist``, ``perf``).  A
module's ``add_parser(sub)`` adds its commands and sets each command's
``handler``; the handlers import their subsystem when they run, so
building the parser loads none of them.  A pool worker
(``dist worker --stdio``) therefore starts without the analysis
harness or the perf ledger.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import campaigns, dist, figures, perf, simulate, traces

_GROUPS = (simulate, figures, campaigns, traces, dist, perf)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduction of 'Dynamic Cluster Assignment Mechanisms' "
            "(HPCA 2000)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="write telemetry span records as JSON lines to stderr "
        "(to REPRO_LOG_FILE instead when it is set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in _GROUPS:
        group.add_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    A :class:`~repro.errors.ConfigError` (a bad name, address or value
    the parser could not check) is printed as one line and exits 2,
    like a usage error.
    """
    args = build_parser().parse_args(argv)
    from ..errors import ConfigError
    from ..telemetry import configure

    configure(verbose=args.verbose)
    try:
        return args.handler(args)
    except ConfigError as error:
        print(f"repro-sim: error: {error}", file=sys.stderr)
        return 2

"""``trace``: portable ``.rtrace`` workload traces, and ``trace show``
for the distributed traces in the telemetry log."""

from __future__ import annotations

import argparse


def cmd_export(args: argparse.Namespace) -> int:
    from .. import scenarios
    from ..workloads import workload

    wl = workload(args.bench, seed=args.seed)
    out = args.output or f"{args.bench}.rtrace"
    meta = scenarios.export_trace(wl, out, args.records)
    print(f"wrote {out}: {meta.describe()}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from .. import scenarios

    print(scenarios.read_meta(args.file).describe())
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    from .. import scenarios
    from ..pipeline import simulate

    wl = scenarios.register_trace(args.file, name=args.name)
    shared = wl.shared_trace()
    print(
        f"imported {args.file} as workload {wl.name!r} "
        f"({len(shared)} records, seed {wl.seed})"
    )
    if args.check:
        n = min(1000, max(1, len(shared) - 500))
        result = simulate(wl, steering="general-balance",
                          n_instructions=n, warmup=min(300, n // 2))
        print(f"replay check: IPC {result.ipc:.3f} over {n} instructions")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """``trace show TOKEN``: render one distributed trace as a tree.

    *TOKEN* is a trace id (any unique prefix) or any span attribute
    value — most usefully a job-directory worker id.  Spans come from the
    JSON-lines telemetry log (``--log`` or ``REPRO_LOG_FILE``).
    """
    from .. import telemetry

    log_path = args.log or telemetry.sink_path()
    if log_path is None:
        print(
            "trace show needs a telemetry log: pass --log FILE or set "
            "REPRO_LOG_FILE"
        )
        return 2
    spans = telemetry.load_spans(log_path)
    if not spans:
        print(f"{log_path}: no spans recorded")
        return 1
    if args.token is None:
        # No token: list every trace so the user can pick one.
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.get("trace_id"), []).append(span)
        print(f"{log_path}: {len(by_trace)} trace(s)")
        for trace_id, members in by_trace.items():
            root = members[0]
            print(
                f"  {trace_id}  {root.get('name', '?')} "
                f"({len(members)} span(s))"
            )
        return 0
    trace_id = telemetry.resolve_trace_id(spans, args.token)
    if trace_id is None:
        print(f"no trace matching {args.token!r} in {log_path}")
        return 1
    print(telemetry.render_trace(spans, trace_id))
    if args.check:
        problems = telemetry.check_span_trees(
            [s for s in spans if s.get("trace_id") == trace_id]
        )
        for problem in problems:
            print(f"INCOMPLETE: {problem}")
        return 1 if problems else 0
    return 0


def add_parser(sub) -> None:
    trace_p = sub.add_parser(
        "trace", help="export/import portable .rtrace workload traces"
    )
    tsub = trace_p.add_subparsers(dest="trace_cmd", required=True)
    texport = tsub.add_parser(
        "export", help="freeze a workload's committed path to a file"
    )
    texport.add_argument("-b", "--bench", default="gcc")
    texport.add_argument(
        "-o", "--output", default=None,
        help="output path (default <bench>.rtrace)",
    )
    texport.add_argument(
        "-r", "--records", type=int, default=25000,
        help="committed records to export (a fetch-ahead cushion is added)",
    )
    texport.add_argument(
        "--seed", type=int, default=0, help="workload generation seed"
    )
    texport.set_defaults(handler=cmd_export)
    timport = tsub.add_parser(
        "import", help="load an .rtrace file into the workload corpus"
    )
    timport.add_argument("file")
    timport.add_argument(
        "--name", default=None,
        help="register under this name instead of the recorded one",
    )
    timport.add_argument(
        "--check",
        action="store_true",
        help="run a short simulation on the imported trace",
    )
    timport.set_defaults(handler=cmd_import)
    tinfo = tsub.add_parser("info", help="print an .rtrace file's metadata")
    tinfo.add_argument("file")
    tinfo.set_defaults(handler=cmd_info)
    tshow = tsub.add_parser(
        "show",
        help="render a distributed trace (by trace-id prefix or span "
        "attribute) from the telemetry log",
    )
    tshow.add_argument(
        "token", nargs="?", default=None,
        help="trace id (prefix) or a span attribute value such as a "
        "job-directory worker id; omit to list recorded traces",
    )
    tshow.add_argument(
        "--log", metavar="FILE", default=None,
        help="JSON-lines telemetry log (default: REPRO_LOG_FILE)",
    )
    tshow.add_argument(
        "--check", action="store_true",
        help="also verify the trace's span tree is complete "
        "(exit 1 on missing stages)",
    )
    tshow.set_defaults(handler=cmd_show)

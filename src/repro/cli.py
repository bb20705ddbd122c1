"""Command-line interface.

Installed as ``repro-sim``::

    repro-sim list                       # schemes and the workload corpus
    repro-sim machines list              # machine registry + families
    repro-sim schemes list               # steering schemes, described
    repro-sim run -b gcc -s general-balance
    repro-sim run -b gcc -m bypass-latency-2 -O clusters.0.iq_size=128
    repro-sim compare -b gcc             # every scheme on one benchmark
    repro-sim figure fig14               # regenerate one paper figure
    repro-sim figure all                 # the whole evaluation
    repro-sim sweep bypass_ports 1 2 3   # ablation sweeps (dotted paths ok)
    repro-sim campaign -b gcc li -s modulo general-balance -j 4
    repro-sim campaign ... -O l1d.size_kb=32 --json r.json --resume
    repro-sim scenarios list             # workload families and suites
    repro-sim scenarios run branchy --json branchy.json
    repro-sim suite export paper-table1 -o pt1.json   # data-file suites
    repro-sim suite run pt1.json --json store.json --resume
    repro-sim trace export -b gcc -o gcc.rtrace
    repro-sim trace import gcc.rtrace --check
    repro-sim campaign ... --backend worker -j 4   # execution backends
    repro-sim campaign ... --warm -j 4   # warm worker pool (persists)
    repro-sim dist backends              # list execution backends
    repro-sim dist pool status -j 2      # warm pool health + counters
    repro-sim dist package smoke --job-dir job/   # multi-host pipeline
    repro-sim dist worker job/           # claim+simulate until empty
    repro-sim dist status job/
    repro-sim dist merge job/ --json results.json
    repro-sim perf record              # measure + append to BENCH_history/
    repro-sim perf check               # statistical gate vs the ledger
    repro-sim perf diff 8745a1f 3638d8 --suite core
    repro-sim perf log --suite campaign
    repro-sim -v campaign ...          # structured event log on stderr
    repro-sim trace show job-123-1 --log events.jsonl   # span tree
    repro-sim telemetry dump           # logging config + metrics registry
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    FIGURES,
    ExperimentRunner,
    format_balance_histogram,
    format_comm_table,
    format_kv_table,
    format_speedup_table,
    format_value_table,
    table1_workloads,
    table2_parameters,
)
from .core.steering import available_schemes, scheme_description
from .pipeline import simulate, simulate_baseline
from .spec import (
    MachineSpec,
    RunSpec,
    available_machine_families,
    available_machines,
    machine_description,
    parse_override,
)
from .spec import run as run_spec


def _add_override_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-O",
        "--override",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="dotted machine override, e.g. clusters.0.iq_size=128 or "
        "l1d.size_kb=32 (repeatable)",
    )


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend (see 'dist backends'); default: serial, "
        "or the process pool when -j > 1",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="dispatch through the warm worker pool (shorthand for "
        "--backend worker; the pool and its preloaded traces persist "
        "for the rest of the process)",
    )
    parser.add_argument(
        "--dist-timeout",
        default=None,
        metavar="SECONDS",
        help="worker backend: per-point reply timeout; 'none' waits "
        "forever (default: the REPRO_DIST_TIMEOUT knob)",
    )
    parser.add_argument(
        "--dist-retries",
        default=None,
        metavar="N",
        help="worker backend: extra attempts after a worker "
        "death/timeout (default: the REPRO_DIST_RETRIES knob, i.e. 1)",
    )
    parser.add_argument(
        "--service-address",
        default=None,
        metavar="HOST:PORT",
        help="service backend: the dist serve daemon to submit to "
        "(default: the REPRO_SERVICE_ADDRESS knob)",
    )


def _backend_arg(args: argparse.Namespace):
    """The backend selected by --backend/--warm and its option flags.

    Returns ``(backend, error)``: a name, a constructed instance (when
    option flags need passing through), or an exit code when the flags
    contradict each other or fail validation.
    """
    backend = getattr(args, "backend", None)
    if getattr(args, "warm", False):
        if backend not in (None, "worker"):
            print(
                f"--warm selects the worker backend; it cannot combine "
                f"with --backend {backend}"
            )
            return None, 2
        backend = "worker"
    timeout = getattr(args, "dist_timeout", None)
    retries = getattr(args, "dist_retries", None)
    address = getattr(args, "service_address", None)
    if timeout is None and retries is None and address is None:
        return backend, None
    if backend not in ("worker", "service"):
        print(
            "--dist-timeout/--dist-retries/--service-address apply to "
            "--backend worker or --backend service"
        )
        return None, 2
    if backend == "service" and (timeout is not None or retries is not None):
        print(
            "--dist-timeout/--dist-retries belong to the daemon "
            "(see 'dist serve'), not to the service client"
        )
        return None, 2
    if backend == "worker" and address is not None:
        print("--service-address applies to --backend service only")
        return None, 2
    from . import dist
    from .errors import ConfigError

    options = {}
    if timeout is not None:
        options["timeout"] = timeout
    if retries is not None:
        options["retries"] = retries
    if address is not None:
        options["address"] = address
    try:
        return dist.backend(backend, **options), None
    except ConfigError as error:
        print(f"invalid backend options: {error}")
        return None, 2


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-n",
        "--instructions",
        type=int,
        default=20000,
        help="measured window length (committed instructions)",
    )
    parser.add_argument(
        "-w", "--warmup", type=int, default=5000, help="warm-up length"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload generation seed"
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from . import scenarios

    print("steering schemes:")
    for name in available_schemes():
        print(f"  {name}")
    print("workload corpus:")
    for family, members in scenarios.corpus_members().items():
        listed = ", ".join(members) if members else "(empty)"
        print(f"  {family}: {listed}")
    return 0


def _parse_overrides(args: argparse.Namespace):
    """``-O PATH=VALUE`` occurrences as canonical override pairs."""
    return tuple(parse_override(text) for text in args.override)


def _cmd_machines(args: argparse.Namespace) -> int:
    # machines list
    print("machines:")
    for name in available_machines():
        print(f"  {name}: {machine_description(name)}")
    print("parametric families (resolve as <family>-<N>):")
    for prefix in available_machine_families():
        print(f"  {prefix}-<N>: {machine_description(prefix)}")
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    # schemes list
    print("steering schemes:")
    for name in available_schemes():
        print(f"  {name}: {scheme_description(name)}")
    print(
        "\ncontract: a scheme implements choose_cluster(self, ctx, dyn) "
        "and on_dispatch(self, ctx, dyn, cluster)\nover the documented "
        "SteeringContext read-view (repro.core.steering.SteeringContext)."
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    base = simulate_baseline(
        args.bench,
        n_instructions=args.instructions,
        warmup=args.warmup,
        seed=args.seed,
    )
    # One declarative spec, executed through the repro.run facade.
    spec = RunSpec(
        bench=args.bench,
        scheme=args.scheme,
        machine=MachineSpec(args.machine, _parse_overrides(args)),
        seed=args.seed,
        n_instructions=args.instructions,
        warmup=args.warmup,
    )
    result = run_spec(spec)
    print(result.summary())
    print(f"  base IPC          {base.ipc:6.3f}")
    print(f"  scheme IPC        {result.ipc:6.3f}")
    print(f"  speed-up          {result.speedup_over(base):+6.1%}")
    print(f"  comms/instr       {result.comms_per_instr:6.3f}")
    print(f"  critical comms    {result.critical_comms_per_instr:6.3f}")
    print(f"  register repl.    {result.avg_replication:6.2f}")
    print(f"  branch accuracy   {result.branch_accuracy:6.1%}")
    print(f"  L1D miss rate     {result.l1d_miss_rate:6.1%}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    base = simulate_baseline(
        args.bench,
        n_instructions=args.instructions,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(f"{args.bench}: base IPC {base.ipc:.3f}")
    print(f"{'scheme':>24s}{'speed-up':>10s}{'comm/i':>8s}{'crit':>7s}")
    for scheme in available_schemes():
        if scheme == "naive":
            continue
        result = simulate(
            args.bench,
            steering=scheme,
            n_instructions=args.instructions,
            warmup=args.warmup,
            seed=args.seed,
        )
        print(
            f"{scheme:>24s}{result.speedup_over(base):>+10.1%}"
            f"{result.comms_per_instr:>8.3f}"
            f"{result.critical_comms_per_instr:>7.3f}"
        )
    return 0


def _print_figure(name: str, runner: ExperimentRunner) -> None:
    data = FIGURES[name](runner)
    if name == "fig3":
        print(
            format_speedup_table(
                "Figure 3: static vs dynamic partitioning",
                data["benchmarks"],
                {"static": data["static"], "LdSt slice": data["dynamic"]},
                {
                    "static": data["static_gmean"],
                    "LdSt slice": data["dynamic_gmean"],
                },
                mean_label="G-mean",
            )
        )
    elif name == "fig4":
        print(
            format_speedup_table(
                "Figure 4: LdSt slice vs Br slice steering",
                data["benchmarks"],
                {"LdSt slice": data["ldst"], "Br slice": data["br"]},
                {
                    "LdSt slice": data["ldst_hmean"],
                    "Br slice": data["br_hmean"],
                },
            )
        )
    elif name == "fig5":
        rows = {
            "LdSt slice": {
                "critical": data["ldst_mean_critical"],
                "noncritical": data["ldst_mean_total"]
                - data["ldst_mean_critical"],
                "total": data["ldst_mean_total"],
            },
            "Br slice": {
                "critical": data["br_mean_critical"],
                "noncritical": data["br_mean_total"]
                - data["br_mean_critical"],
                "total": data["br_mean_total"],
            },
        }
        print(format_comm_table("Figure 5: comms/instr (mean)", rows))
    elif name in ("fig6", "fig9", "fig12"):
        titles = {
            "fig6": "Figure 6: balance distribution, slice steering",
            "fig9": "Figure 9: balance distribution, non-slice balance",
            "fig12": "Figure 12: balance distribution, slice balance",
        }
        print(format_balance_histogram(titles[name], data))
    elif name == "fig7":
        print(
            format_speedup_table(
                "Figure 7: non-slice balance vs slice steering",
                data["benchmarks"],
                {
                    "LdSt slice": data["ldst-slice"],
                    "Br slice": data["br-slice"],
                    "LdSt non-slice": data["ldst-nonslice"],
                    "Br non-slice": data["br-nonslice"],
                },
                {
                    "LdSt slice": data["ldst-slice_hmean"],
                    "Br slice": data["br-slice_hmean"],
                    "LdSt non-slice": data["ldst-nonslice_hmean"],
                    "Br non-slice": data["br-nonslice_hmean"],
                },
            )
        )
    elif name == "fig8":
        print(format_comm_table("Figure 8: comms/instr (mean)", data))
    elif name == "fig11":
        print(
            format_speedup_table(
                "Figure 11: slice balance steering",
                data["benchmarks"],
                {"LdSt slice bal": data["ldst"], "Br slice bal": data["br"]},
                {
                    "LdSt slice bal": data["ldst_hmean"],
                    "Br slice bal": data["br_hmean"],
                },
            )
        )
        print(
            f"mean comms/instr: LdSt {data['ldst_mean_comms']:.3f}, "
            f"Br {data['br_mean_comms']:.3f}"
        )
    elif name == "fig13":
        print(
            format_speedup_table(
                "Figure 13: priority slice balance steering",
                data["benchmarks"],
                {"LdSt p.slice": data["ldst"], "Br p.slice": data["br"]},
                {
                    "LdSt p.slice": data["ldst_hmean"],
                    "Br p.slice": data["br_hmean"],
                },
            )
        )
        print(
            "critical comms/instr: "
            f"LdSt {data['ldst_critical_plain']:.3f} -> "
            f"{data['ldst_critical']:.3f}, "
            f"Br {data['br_critical_plain']:.3f} -> {data['br_critical']:.3f}"
        )
    elif name == "fig14":
        print(
            format_speedup_table(
                "Figure 14: general balance steering",
                data["benchmarks"],
                {
                    "Modulo": data["modulo"],
                    "General bal": data["general"],
                    "UB arch": data["upper_bound"],
                },
                {
                    "Modulo": data["modulo_hmean"],
                    "General bal": data["general_hmean"],
                    "UB arch": data["upper_bound_hmean"],
                },
            )
        )
    elif name == "fig15":
        print(
            format_value_table(
                "Figure 15: register replication (general balance)",
                data["benchmarks"],
                data["replication"],
                "regs/cycle",
                data["hmean"],
            )
        )
    elif name == "fig16":
        print(
            format_speedup_table(
                "Figure 16: general balance vs FIFO-based steering",
                data["benchmarks"],
                {"FIFO-based": data["fifo"], "General bal": data["general"]},
                {
                    "FIFO-based": data["fifo_hmean"],
                    "General bal": data["general_hmean"],
                },
            )
        )
        print(
            f"comms/instr: FIFO {data['fifo_comms']:.3f}, "
            f"general {data['general_comms']:.3f}"
        )


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(
        n_instructions=args.instructions,
        warmup=args.warmup,
        seed=args.seed,
    )
    if args.name == "table1":
        for row in table1_workloads():
            print(
                f"{row['benchmark']:>10s}  {row['input']:<24s}"
                f"{row['description']}"
            )
        return 0
    if args.name == "table2":
        print(format_kv_table("Table 2: machine parameters", table2_parameters()))
        return 0
    names = list(FIGURES) if args.name == "all" else [args.name]
    for name in names:
        if name not in FIGURES:
            known = ", ".join(["table1", "table2", *FIGURES])
            print(f"unknown figure {name!r}; available: {known}")
            return 2
        _print_figure(name, runner)
        print()
    return 0


def _print_campaign_results(results, seeds) -> None:
    """Shared result printout of the campaign/scenarios run commands."""
    for run in results:
        print(run.result.summary())
    if len(seeds) > 1:
        print()
        print(
            f"{'bench':>10s} {'scheme':<22s} {'seeds':>5s} "
            f"{'ipc mean':>9s} {'ipc std':>8s} {'comm mean':>10s}"
        )
        for agg in results.aggregate():
            print(
                f"{agg.bench:>10s} {agg.scheme:<22s} {agg.n_seeds:>5d} "
                f"{agg.ipc:>9.3f} {agg.ipc_std:>8.4f} "
                f"{agg.means['comms_per_instr']:>10.3f}"
            )


def _execute_grid(points, args) -> int:
    """Run *points* honouring -j/--json/--csv/--resume; print results.

    The first of --json/--csv acts as the incremental store; with both
    given the second is written as an additional plain export.
    """
    from .analysis.campaign import CampaignError, run_campaign

    store = args.json or args.csv
    if args.resume and store is None:
        print("--resume needs a store: pass --json or --csv")
        return 2
    backend, error = _backend_arg(args)
    if error is not None:
        return error
    try:
        run = run_campaign(
            points,
            workers=args.jobs,
            store=store,
            resume=args.resume,
            backend=backend,
        )
    except CampaignError as error:
        for point, text in error.failures:
            last = text.strip().splitlines()[-1]
            print(f"FAILED {point.label}: {last}")
        return 1
    seeds = sorted({p.seed for p in points})
    _print_campaign_results(run.results, seeds)
    if run.n_cached:
        print(
            f"reused {run.n_cached} stored point(s), "
            f"simulated {run.n_simulated}"
        )
    if store:
        print(f"wrote {store}")
    if args.json and args.csv:
        run.results.save_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .analysis.campaign import Campaign, expand_grid

    schemes = args.schemes or [
        s for s in available_schemes() if s != "naive"
    ]
    points = expand_grid(
        args.benches,
        schemes,
        machines=tuple(args.machines),
        overrides=(_parse_overrides(args),),
        seeds=tuple(args.seeds),
        n_instructions=args.instructions,
        warmup=args.warmup,
    )
    backend, error = _backend_arg(args)
    if error is not None:
        return error
    workers = Campaign(
        points, workers=args.jobs, backend=backend
    ).effective_workers
    print(
        f"campaign: {len(args.benches)} bench(es) x {len(schemes)} "
        f"scheme(s) x {len(args.machines)} machine(s) x "
        f"{len(args.seeds)} seed(s) = {len(points)} points "
        f"({workers} worker(s))"
    )
    return _execute_grid(points, args)


def _cmd_suite(args: argparse.Namespace) -> int:
    from . import scenarios

    if args.suite_cmd == "export":
        out = args.output or f"{args.suite}.json"
        suite = scenarios.export_suite(args.suite, out)
        print(
            f"wrote {out}: suite {suite.name!r}, "
            f"{len(suite.benches)} bench(es) x {len(suite.schemes)} "
            f"scheme(s) x {len(suite.machines)} machine(s)"
        )
        return 0
    # suite run FILE
    suite = scenarios.load_suite_file(args.file)
    unknown = set(suite.benches) - set(scenarios.corpus_benches())
    if unknown:
        print(
            "note: bench(es) not in the registered corpus "
            f"(may still resolve via custom profiles): "
            f"{', '.join(sorted(unknown))}"
        )
    points = suite.points(
        n_instructions=args.instructions,
        warmup=args.warmup,
        seeds=tuple(args.seeds) if args.seeds else None,
    )
    print(
        f"suite {suite.name!r} from {args.file}: {suite.description}\n"
        f"  {len(points)} points over {len(suite.benches)} bench(es) x "
        f"{len(suite.schemes)} scheme(s)"
    )
    return _execute_grid(points, args)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from . import scenarios

    if args.scenarios_cmd == "list":
        print("workload families:")
        for name in scenarios.available_families():
            family = scenarios.get_family(name)
            members = ", ".join(family.members) if family.members else "(empty)"
            print(f"  {name}: {family.description}")
            print(f"    members: {members}")
        print("scenario suites:")
        for name in scenarios.available_suites():
            suite = scenarios.get_suite(name)
            print(f"  {name}: {suite.description}")
            print(
                f"    {len(suite.benches)} bench(es) x "
                f"{len(suite.schemes)} scheme(s), "
                f"n={suite.n_instructions} warmup={suite.warmup}"
            )
        return 0
    # scenarios run SUITE
    suite = scenarios.get_suite(args.suite)
    points = suite.points(
        n_instructions=args.instructions,
        warmup=args.warmup,
        seeds=tuple(args.seeds) if args.seeds else None,
    )
    print(
        f"suite {suite.name!r}: {suite.description}\n"
        f"  {len(points)} points over {len(suite.benches)} bench(es) x "
        f"{len(suite.schemes)} scheme(s)"
    )
    return _execute_grid(points, args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import scenarios
    from .workloads import workload

    if args.trace_cmd == "export":
        wl = workload(args.bench, seed=args.seed)
        out = args.output or f"{args.bench}.rtrace"
        meta = scenarios.export_trace(wl, out, args.records)
        print(f"wrote {out}: {meta.describe()}")
        return 0
    if args.trace_cmd == "info":
        print(scenarios.read_meta(args.file).describe())
        return 0
    if args.trace_cmd == "show":
        return _cmd_trace_show(args)
    # trace import FILE
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


def _cmd_trace_show(args: argparse.Namespace) -> int:
    """``trace show TOKEN``: render one distributed trace as a tree.

    *TOKEN* is a trace id (any unique prefix) or any span attribute
    value — most usefully a service job id.  Spans come from the
    JSON-lines telemetry log (``--log`` or ``REPRO_LOG_FILE``).
    """
    from . import telemetry
    from .errors import ConfigError

    log_path = args.log or telemetry.sink_path()
    if log_path is None:
        print(
            "trace show needs a telemetry log: pass --log FILE or set "
            "REPRO_LOG_FILE"
        )
        return 2
    telemetry.flush()  # this process may have spans still queued
    try:
        spans = telemetry.load_spans(log_path)
    except ConfigError as error:
        print(str(error))
        return 2
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


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """``telemetry dump``: the logging config + metrics registry."""
    import json as json_module
    import os

    from . import telemetry

    level = os.environ.get(telemetry.LEVEL_ENV)
    document = {
        "level": level if level is not None else (
            "info" if telemetry.sink_path() else "off"
        ),
        "file": telemetry.sink_path(),
        "metrics": telemetry.metrics.snapshot(),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json_module.dump(document, fh, indent=1)
        print(f"wrote {args.json}")
        return 0
    print(f"log level: {document['level']}")
    print(f"log file:  {document['file'] or '(stderr when enabled)'}")
    if not document["metrics"]:
        print("metrics:   (none recorded in this process)")
        return 0
    print("metrics:")
    for name, doc in document["metrics"].items():
        if doc["type"] == "histogram":
            detail = (
                f"count {doc['count']}"
                + (
                    f", mean {doc['mean']}s, max {doc['max']}s"
                    if doc.get("count") else ""
                )
            )
        else:
            detail = f"{doc['value']}"
        print(f"  {name} ({doc['type']}): {detail}")
    return 0


def _dist_suite_points(args):
    """Expand the suite named (or stored in the file) `args.suite`."""
    import os

    from . import scenarios

    if os.path.isfile(args.suite):
        suite = scenarios.load_suite_file(args.suite)
    else:
        suite = scenarios.get_suite(args.suite)
    return suite, suite.points(
        n_instructions=args.instructions,
        warmup=args.warmup,
        seeds=tuple(args.seeds) if args.seeds else None,
    )


def _cmd_dist(args: argparse.Namespace) -> int:
    from . import dist

    if args.dist_cmd == "backends":
        if args.json:
            import json as json_module

            print(json_module.dumps(
                [
                    {
                        "name": name,
                        "description": dist.backend_description(name),
                    }
                    for name in dist.available_backends()
                ],
                indent=1,
            ))
            return 0
        print("execution backends:")
        for name in dist.available_backends():
            print(f"  {name}: {dist.backend_description(name)}")
        return 0
    if args.dist_cmd == "package":
        suite, points = _dist_suite_points(args)
        job = dist.package_job(
            points, args.job_dir, description=f"suite {suite.name!r}"
        )
        print(f"packaged {job.describe()}")
        return 0
    if args.dist_cmd == "worker":
        modes = sum(
            1 for on in (args.job_dir is not None, args.stdio,
                         args.listen is not None) if on
        )
        if modes != 1:
            print(
                "dist worker needs exactly one mode: a job directory "
                "(directory-queue), --stdio (protocol on stdin/stdout), "
                "or --listen HOST:PORT (protocol on a socket)"
            )
            return 2
        if args.job_dir is not None:
            done = dist.run_worker(
                args.job_dir,
                worker_id=args.worker_id,
                max_points=args.max_points,
            )
            print(f"worker completed {done} point(s)")
            return 0
        if args.listen is not None:
            return dist.serve_listen(args.listen)
        return dist.serve_stdio()
    if args.dist_cmd == "serve":
        return _cmd_dist_serve(args)
    if args.dist_cmd == "pool":
        # pool status [--jobs N] [--worker ADDR]... [--json FILE]
        import json as json_module

        from . import telemetry

        remote = list(args.worker or [])
        pool = dist.shared_pool(remote=remote)
        pool.ensure(max(args.jobs, len(remote)))
        stats = pool.stats()
        stats["telemetry"] = telemetry.metrics.snapshot()
        print(
            f"worker pool: {stats['size']} live worker(s), "
            f"{stats['spawned_total']} spawned / "
            f"{stats['connects_total']} connect(s) this process, "
            f"protocol v{dist.PROTOCOL_VERSION}"
        )
        print(
            f"  served {stats['points_served']} point(s) in "
            f"{stats['batches']} batch(es); trace cache "
            f"{stats['trace_cache_hits']} hit(s) / "
            f"{stats['trace_cache_misses']} miss(es), "
            f"{stats['trace_payloads']} payload(s) exported"
        )
        for worker in stats["workers"]:
            label = (
                f"{worker.get('transport', '?')} "
                f"{worker.get('address', '?')}"
            )
            if worker.get("busy"):
                print(f"  {label}: busy serving a dispatcher")
            elif not worker.get("alive", True):
                print(f"  {label}: unreachable")
            else:
                print(
                    f"  {label}: {worker['points_served']} point(s), "
                    f"{worker['preloaded_traces']} trace(s) pinned"
                )
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json_module.dump(stats, fh, indent=1)
            print(f"wrote {args.json}")
        return 0
    if args.dist_cmd == "status":
        if args.requeue_lost:
            moved = dist.requeue_lost(args.job_dir)
            print(f"requeued {moved} lost point(s)")
        print(dist.job_status(args.job_dir).describe())
        return 0
    # dist merge JOBDIR
    from .errors import DistError

    store = args.json or args.csv
    try:
        merged = dist.merge_job(
            args.job_dir, store=store, allow_partial=args.allow_partial
        )
        if args.json and args.csv:
            # Same contract as campaign/scenarios run: the second
            # format is an additional plain export.
            dist.merge_job(
                args.job_dir, store=args.csv,
                allow_partial=args.allow_partial,
            )
    except DistError as error:
        print(f"merge failed: {error}")
        print("(pass --allow-partial to merge what completed)")
        return 1
    print(f"merged {merged.describe()}")
    if store:
        print(f"wrote {store}")
    if args.json and args.csv:
        print(f"wrote {args.csv}")
    for index in sorted(merged.failures):
        last = merged.failures[index].strip().splitlines()[-1]
        print(f"FAILED {merged.points[index].label}: {last}")
    return 0 if merged.complete else 1


def _cmd_dist_serve(args: argparse.Namespace) -> int:
    """`dist serve [run|status|stop]` — the simulation-service daemon."""
    import json as json_module

    from . import dist
    from .errors import ConfigError, DistError

    if args.action in ("status", "stop"):
        address = args.address or dist.service_address_from_env()
        if address is None:
            print(
                "dist serve status/stop needs the daemon address "
                "(--address HOST:PORT or REPRO_SERVICE_ADDRESS)"
            )
            return 2
        client = dist.ServiceClient(address=address, tenant="cli")
        try:
            if args.action == "stop":
                client.shutdown(stop_workers=args.stop_workers)
                print(f"asked daemon at {address} to stop")
                return 0
            status = client.status()
        except (ConfigError, DistError) as error:
            print(f"service at {address} unavailable: {error}")
            return 1
        finally:
            client.close()
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json_module.dump(status, fh, indent=1)
            print(f"wrote {args.json}")
        pool = status.get("pool", {})
        print(
            f"serve daemon at {status['address']} "
            f"(protocol v{status['protocol']}, "
            f"up {status['uptime']:.0f}s): "
            f"{status['jobs']['active']} active / "
            f"{status['jobs']['completed']} completed job(s), "
            f"{pool.get('points_served', 0)} point(s) served by "
            f"{status['slots']} slot(s)"
        )
        for tenant, row in sorted(status.get("tenants", {}).items()):
            print(
                f"  tenant {tenant}: weight {row['weight']}, "
                f"{row['queued_chunks']} chunk(s) queued, "
                f"{row['dispatched_chunks']} dispatched, "
                f"{row['points_served']} point(s) served"
            )
        for worker in pool.get("workers", []):
            label = (
                f"{worker.get('transport', '?')} "
                f"{worker.get('address', '?')}"
            )
            if worker.get("busy"):
                print(f"  worker {label}: busy")
            elif not worker.get("alive", True):
                print(f"  worker {label}: unreachable")
            else:
                print(
                    f"  worker {label}: "
                    f"{worker['points_served']} point(s) served"
                )
        return 0

    # action == "run": own the pool and serve until interrupted.
    weights = {}
    for item in args.weight or []:
        tenant, eq, value = item.partition("=")
        if not eq or not tenant:
            print(f"invalid --weight {item!r} (expected TENANT=N)")
            return 2
        try:
            weights[tenant] = int(value)
        except ValueError:
            print(f"invalid --weight {item!r} (expected TENANT=N)")
            return 2
    options = {}
    if args.dist_timeout is not None:
        options["timeout"] = args.dist_timeout
    if args.dist_retries is not None:
        options["retries"] = args.dist_retries
    try:
        daemon = dist.ServeDaemon(
            address=args.address or "127.0.0.1:7731",
            jobs=args.jobs,
            remote=tuple(args.worker or ()),
            watch=args.watch,
            weights=weights or None,
            **options,
        )
        daemon.start()
    except (ConfigError, DistError, OSError) as error:
        print(f"dist serve failed to start: {error}")
        return 1
    print(f"serving on {daemon.address} ({daemon.n_slots} slot(s))")
    try:
        daemon.wait()
    except KeyboardInterrupt:
        print("interrupted; stopping")
    finally:
        daemon.stop()
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from .perf.cli import cmd_perf

    return cmd_perf(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweeps import Sweep

    sweep = Sweep(
        args.param,
        args.values,
        bench=args.bench,
        scheme=args.scheme,
        machine=args.machine,
        n_instructions=args.instructions,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(sweep.format())
    return 0


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
        action="count",
        default=0,
        help="structured event logging on stderr (-v info, -vv debug; "
        "REPRO_LOG_LEVEL/REPRO_LOG_FILE take precedence)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list schemes and benchmarks")

    machines_p = sub.add_parser(
        "machines", help="machine registry (Table 2 + parametric variants)"
    )
    msub = machines_p.add_subparsers(dest="machines_cmd", required=True)
    msub.add_parser("list", help="registered machines with descriptions")

    schemes_p = sub.add_parser("schemes", help="steering scheme registry")
    schsub = schemes_p.add_subparsers(dest="schemes_cmd", required=True)
    schsub.add_parser("list", help="registered schemes with descriptions")

    run = sub.add_parser("run", help="simulate one benchmark/scheme pair")
    run.add_argument("-b", "--bench", default="gcc")
    run.add_argument("-s", "--scheme", default="general-balance")
    run.add_argument(
        "-m",
        "--machine",
        default="clustered",
        help="machine name from the registry (see 'machines list')",
    )
    _add_override_arg(run)
    _add_run_args(run)

    compare = sub.add_parser("compare", help="every scheme on one benchmark")
    compare.add_argument("-b", "--bench", default="gcc")
    _add_run_args(compare)

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure (or 'all')"
    )
    figure.add_argument("name")
    _add_run_args(figure)

    campaign = sub.add_parser(
        "campaign",
        help="run a bench x scheme x seed grid in one pass "
        "(shared traces, optional worker processes)",
    )
    campaign.add_argument(
        "-b",
        "--benches",
        nargs="+",
        default=["gcc", "li"],
        help="benchmarks to include",
    )
    campaign.add_argument(
        "-s",
        "--schemes",
        nargs="+",
        default=None,
        help="steering schemes (default: every scheme except 'naive')",
    )
    campaign.add_argument(
        "--machine",
        "--machines",
        dest="machines",
        nargs="+",
        default=["clustered"],
        help="machine name(s) from the registry; several names add a "
        "grid axis (see 'machines list')",
    )
    _add_override_arg(campaign)
    campaign.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0],
        help="workload seeds (multiple seeds enable mean/std aggregation)",
    )
    campaign.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial)",
    )
    _add_backend_arg(campaign)
    campaign.add_argument(
        "--json", default=None, help="write results to this JSON file"
    )
    campaign.add_argument(
        "--csv", default=None, help="write results to this CSV file"
    )
    campaign.add_argument(
        "-n",
        "--instructions",
        type=int,
        default=20000,
        help="measured window length (committed instructions)",
    )
    campaign.add_argument(
        "-w", "--warmup", type=int, default=5000, help="warm-up length"
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="reuse points already present in the --json/--csv store and "
        "simulate only missing ones",
    )

    scenarios_p = sub.add_parser(
        "scenarios",
        help="workload corpus: list families/suites, run a named suite",
    )
    ssub = scenarios_p.add_subparsers(dest="scenarios_cmd", required=True)
    ssub.add_parser("list", help="list workload families and suites")
    srun = ssub.add_parser(
        "run", help="run one named scenario suite as a campaign"
    )
    srun.add_argument("suite", help="suite name (see 'scenarios list')")
    srun.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial)",
    )
    _add_backend_arg(srun)
    srun.add_argument(
        "-n", "--instructions", type=int, default=None,
        help="override the suite's measured window length",
    )
    srun.add_argument(
        "-w", "--warmup", type=int, default=None,
        help="override the suite's warm-up length",
    )
    srun.add_argument(
        "--seeds", nargs="+", type=int, default=None,
        help="override the suite's workload seeds",
    )
    srun.add_argument(
        "--json", default=None, help="write results to this JSON store"
    )
    srun.add_argument(
        "--csv", default=None, help="write results to this CSV store"
    )
    srun.add_argument(
        "--resume",
        action="store_true",
        help="reuse points already present in the store",
    )

    suite_p = sub.add_parser(
        "suite", help="export/run scenario suites as JSON data files"
    )
    suitesub = suite_p.add_subparsers(dest="suite_cmd", required=True)
    sexport = suitesub.add_parser(
        "export", help="write a registered suite to a data file"
    )
    sexport.add_argument("suite", help="suite name (see 'scenarios list')")
    sexport.add_argument(
        "-o", "--output", default=None,
        help="output path (default <suite>.json)",
    )
    sfile = suitesub.add_parser(
        "run", help="run a suite data file as a campaign"
    )
    sfile.add_argument("file", help="suite data file (see 'suite export')")
    sfile.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial)",
    )
    _add_backend_arg(sfile)
    sfile.add_argument(
        "-n", "--instructions", type=int, default=None,
        help="override the suite's measured window length",
    )
    sfile.add_argument(
        "-w", "--warmup", type=int, default=None,
        help="override the suite's warm-up length",
    )
    sfile.add_argument(
        "--seeds", nargs="+", type=int, default=None,
        help="override the suite's workload seeds",
    )
    sfile.add_argument(
        "--json", default=None, help="write results to this JSON store"
    )
    sfile.add_argument(
        "--csv", default=None, help="write results to this CSV store"
    )
    sfile.add_argument(
        "--resume",
        action="store_true",
        help="reuse points already present in the store",
    )

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
    tinfo = tsub.add_parser("info", help="print an .rtrace file's metadata")
    tinfo.add_argument("file")
    tshow = tsub.add_parser(
        "show",
        help="render a distributed trace (by job id or trace-id prefix) "
        "from the telemetry log",
    )
    tshow.add_argument(
        "token", nargs="?", default=None,
        help="trace id (prefix) or a span attribute value such as a "
        "service job id; omit to list recorded traces",
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

    dist_p = sub.add_parser(
        "dist",
        help="distributed execution: backends, job packaging, workers, "
        "merge",
    )
    dsub = dist_p.add_subparsers(dest="dist_cmd", required=True)
    dbackends = dsub.add_parser(
        "backends", help="list registered execution backends"
    )
    dbackends.add_argument(
        "--json", action="store_true",
        help="machine-readable name/description list",
    )
    dpackage = dsub.add_parser(
        "package",
        help="write a suite's points + traces into a job directory",
    )
    dpackage.add_argument(
        "suite", help="suite name (see 'scenarios list') or suite file"
    )
    dpackage.add_argument(
        "--job-dir", required=True, help="job directory to create"
    )
    dpackage.add_argument(
        "-n", "--instructions", type=int, default=None,
        help="override the suite's measured window length",
    )
    dpackage.add_argument(
        "-w", "--warmup", type=int, default=None,
        help="override the suite's warm-up length",
    )
    dpackage.add_argument(
        "--seeds", nargs="+", type=int, default=None,
        help="override the suite's workload seeds",
    )
    dworker = dsub.add_parser(
        "worker",
        help="run one worker: claim from a job directory, or serve the "
        "stdin/stdout JSON-lines protocol",
    )
    dworker.add_argument(
        "job_dir", nargs="?", default=None,
        help="job directory to claim points from",
    )
    dworker.add_argument(
        "--stdio", action="store_true",
        help="serve the JSON-lines worker protocol on stdin/stdout",
    )
    dworker.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve the JSON-lines worker protocol on a TCP socket "
        "(port 0 picks a free port; prints the bound address)",
    )
    dworker.add_argument(
        "--worker-id", default=None,
        help="worker id for claims and the partial store "
        "(default <hostname>-<pid>)",
    )
    dworker.add_argument(
        "--max-points", type=int, default=None,
        help="stop after completing this many points",
    )
    dmerge = dsub.add_parser(
        "merge", help="fold a job's partial stores into one result store"
    )
    dmerge.add_argument("job_dir", help="job directory to merge")
    dmerge.add_argument(
        "--json", default=None, help="write merged results to this JSON file"
    )
    dmerge.add_argument(
        "--csv", default=None, help="write merged results to this CSV file"
    )
    dmerge.add_argument(
        "--allow-partial", action="store_true",
        help="merge completed points even if some are failed/missing",
    )
    dpool = dsub.add_parser(
        "pool",
        help="warm worker pool: spawn/inspect this process's shared pool",
    )
    dpoolsub = dpool.add_subparsers(dest="pool_cmd", required=True)
    dpoolstatus = dpoolsub.add_parser(
        "status",
        help="ensure the pool is up and print its serving counters",
    )
    dpoolstatus.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes to ensure are live",
    )
    dpoolstatus.add_argument(
        "--worker", action="append", metavar="HOST:PORT", default=None,
        help="adopt a remote listen-mode worker at this address "
        "(repeatable)",
    )
    dpoolstatus.add_argument(
        "--json", default=None,
        help="also write the counters to this JSON file",
    )
    dserve = dsub.add_parser(
        "serve",
        help="simulation service: run the dispatcher daemon, or query/"
        "stop a running one",
    )
    dserve.add_argument(
        "action", nargs="?", choices=("run", "status", "stop"),
        default="run",
        help="run the daemon (default), or talk to a running one",
    )
    dserve.add_argument(
        "--address", metavar="HOST:PORT", default=None,
        help="daemon address (run default 127.0.0.1:7731; status/stop "
        "fall back to REPRO_SERVICE_ADDRESS)",
    )
    dserve.add_argument(
        "-j", "--jobs", type=int, default=0,
        help="local worker subprocesses to spawn (default 0)",
    )
    dserve.add_argument(
        "--worker", action="append", metavar="HOST:PORT", default=None,
        help="adopt a remote listen-mode worker at this address "
        "(repeatable)",
    )
    dserve.add_argument(
        "--watch", metavar="DIR", default=None,
        help="also adopt dirqueue job directories appearing under DIR",
    )
    dserve.add_argument(
        "--weight", action="append", metavar="TENANT=N", default=None,
        help="fair-share weight for a tenant (repeatable; default 1)",
    )
    dserve.add_argument(
        "--dist-timeout", metavar="SECONDS", default=None,
        help="per-request worker reply timeout "
        "(default REPRO_DIST_TIMEOUT or none)",
    )
    dserve.add_argument(
        "--dist-retries", metavar="N", default=None,
        help="extra attempts per chunk after a worker failure "
        "(default REPRO_DIST_RETRIES or 1)",
    )
    dserve.add_argument(
        "--json", default=None,
        help="status: also write the stats to this JSON file",
    )
    dserve.add_argument(
        "--stop-workers", action="store_true",
        help="stop: also shut down the daemon's remote workers",
    )
    dstatus = dsub.add_parser(
        "status", help="summarise a job directory's progress"
    )
    dstatus.add_argument("job_dir", help="job directory to inspect")
    dstatus.add_argument(
        "--requeue-lost", action="store_true",
        help="move claimed-but-unfinished points back into the queue "
        "(only when their workers are dead)",
    )

    telemetry_p = sub.add_parser(
        "telemetry",
        help="observability: logging configuration and the metrics "
        "registry",
    )
    telsub = telemetry_p.add_subparsers(dest="telemetry_cmd", required=True)
    teldump = telsub.add_parser(
        "dump", help="print the logging config + metrics snapshot"
    )
    teldump.add_argument(
        "--json", default=None,
        help="write the dump to this JSON file instead",
    )

    from .perf.cli import add_perf_parser

    add_perf_parser(sub)

    sweep_p = sub.add_parser(
        "sweep", help="sweep one machine parameter (ablation study)"
    )
    sweep_p.add_argument(
        "param",
        help="flat name or dotted path, e.g. bypass_ports, "
        "clusters.0.iq_size, l1d.size_kb",
    )
    sweep_p.add_argument(
        "values", nargs="+", type=int, help="points to evaluate"
    )
    sweep_p.add_argument("-b", "--bench", default="gcc")
    sweep_p.add_argument("-s", "--scheme", default="general-balance")
    sweep_p.add_argument(
        "-m", "--machine", default="clustered",
        help="machine name the sweep varies (see 'machines list')",
    )
    _add_run_args(sweep_p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    from . import telemetry

    telemetry.configure(verbose=args.verbose)
    handlers = {
        "list": _cmd_list,
        "machines": _cmd_machines,
        "schemes": _cmd_schemes,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "scenarios": _cmd_scenarios,
        "suite": _cmd_suite,
        "trace": _cmd_trace,
        "dist": _cmd_dist,
        "telemetry": _cmd_telemetry,
        "perf": _cmd_perf,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

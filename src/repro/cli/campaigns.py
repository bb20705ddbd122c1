"""``campaign``, ``scenarios`` and ``suite``: grid runs and the suites
that name them."""

from __future__ import annotations

import argparse
import os

from .simulate import add_override_arg, parse_overrides


def add_window_args(parser: argparse.ArgumentParser, suite: bool) -> None:
    """-n/-w/--seeds of a grid; for a *suite*, overrides of its own."""
    own = "override the suite's " if suite else ""
    parser.add_argument(
        "-n", "--instructions", type=int, default=None if suite else 20000,
        help=f"{own}measured window length (committed instructions)",
    )
    parser.add_argument(
        "-w", "--warmup", type=int, default=None if suite else 5000,
        help=f"{own}warm-up length",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=None if suite else [0],
        help=f"{own}workload seeds (several give mean/std aggregation)",
    )


def _add_grid_args(parser: argparse.ArgumentParser, suite: bool) -> None:
    """The window, seed, backend and store options of a grid run."""
    add_window_args(parser, suite)
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (1 = serial)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="execution backend (see 'dist backends'); default: serial, "
        "or the process pool when -j > 1",
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
        "--json", default=None, help="write results to this JSON store"
    )
    parser.add_argument(
        "--csv", default=None, help="write results to this CSV store"
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse points already present in the --json/--csv store and "
        "simulate only missing ones",
    )


def _backend_arg(args: argparse.Namespace):
    """The backend selected by --backend and its option flags.

    Returns ``(backend, error)``: a name, a constructed instance (when
    option flags need passing through), or an exit code when the flags
    contradict each other.  A flag value that fails validation raises
    :class:`~repro.errors.ConfigError`, which ``main`` reports.
    """
    backend = args.backend
    timeout = args.dist_timeout
    retries = args.dist_retries
    if timeout is None and retries is None:
        return backend, None
    if backend != "worker":
        print("--dist-timeout/--dist-retries apply to --backend worker")
        return None, 2
    from .. import dist

    options = {}
    if timeout is not None:
        options["timeout"] = timeout
    if retries is not None:
        options["retries"] = retries
    return dist.backend(backend, **options), None


def suite_points(args: argparse.Namespace):
    """The suite `args.suite` names or stores, and its points.

    The argument is a suite file if it names an existing file, ends in
    ``.json`` or has a directory part; otherwise a registered name.
    """
    from .. import scenarios

    name = args.suite
    if os.path.isfile(name) or name.endswith(".json") or os.path.dirname(name):
        suite = scenarios.load_suite_file(name)
    else:
        suite = scenarios.get_suite(name)
    return suite, suite.points(
        n_instructions=args.instructions,
        warmup=args.warmup,
        seeds=tuple(args.seeds) if args.seeds else None,
    )


def _print_campaign_results(results, seeds) -> None:
    """Shared result printout of the campaign and suite run commands."""
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


def _execute_grid(points, args, backend) -> int:
    """Run *points* honouring -j/--json/--csv/--resume; print results.

    The first of --json/--csv acts as the incremental store; with both
    given the second is written as an additional plain export.
    """
    from ..analysis.campaign import CampaignError, run_campaign

    store = args.json or args.csv
    if args.resume and store is None:
        print("--resume needs a store: pass --json or --csv")
        return 2
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


def cmd_campaign(args: argparse.Namespace) -> int:
    from ..analysis.campaign import Campaign, expand_grid
    from ..core.steering import available_schemes

    schemes = args.schemes or [
        s for s in available_schemes() if s != "naive"
    ]
    points = expand_grid(
        args.benches,
        schemes,
        machines=tuple(args.machines),
        overrides=(parse_overrides(args),),
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
    return _execute_grid(points, args, backend)


def cmd_suite_export(args: argparse.Namespace) -> int:
    from .. import scenarios

    out = args.output or f"{args.suite}.json"
    suite = scenarios.export_suite(args.suite, out)
    print(
        f"wrote {out}: suite {suite.name!r}, "
        f"{len(suite.benches)} bench(es) x {len(suite.schemes)} "
        f"scheme(s) x {len(suite.machines)} machine(s)"
    )
    return 0


def cmd_suite_run(args: argparse.Namespace) -> int:
    from .. import scenarios

    suite, points = suite_points(args)
    unknown = set(suite.benches) - set(scenarios.corpus_benches())
    if unknown:
        print(
            "note: bench(es) not in the registered corpus "
            f"(may still resolve via custom profiles): "
            f"{', '.join(sorted(unknown))}"
        )
    print(
        f"suite {suite.name!r}: {suite.description}\n"
        f"  {len(points)} points over {len(suite.benches)} bench(es) x "
        f"{len(suite.schemes)} scheme(s)"
    )
    backend, error = _backend_arg(args)
    if error is not None:
        return error
    return _execute_grid(points, args, backend)


def cmd_scenarios(_args: argparse.Namespace) -> int:
    # scenarios list
    from .. import scenarios

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


def add_parser(sub) -> None:
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
    add_override_arg(campaign)
    _add_grid_args(campaign, suite=False)
    campaign.set_defaults(handler=cmd_campaign)

    scenarios_p = sub.add_parser(
        "scenarios",
        help="workload corpus: list families and suites",
    )
    ssub = scenarios_p.add_subparsers(dest="scenarios_cmd", required=True)
    ssub.add_parser(
        "list", help="list workload families and suites"
    ).set_defaults(handler=cmd_scenarios)

    suite_p = sub.add_parser(
        "suite", help="run scenario suites; export them as JSON data files"
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
    sexport.set_defaults(handler=cmd_suite_export)
    srun = suitesub.add_parser(
        "run", help="run a suite, registered or from a data file, as a "
        "campaign"
    )
    srun.add_argument(
        "suite", help="suite name (see 'scenarios list') or suite file "
        "(see 'suite export')"
    )
    _add_grid_args(srun, suite=True)
    srun.set_defaults(handler=cmd_suite_run)

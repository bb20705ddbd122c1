"""``dist``: execution backends, job directories and workers."""

from __future__ import annotations

import argparse

from .campaigns import add_window_args, suite_points


def cmd_backends(args: argparse.Namespace) -> int:
    from .. import dist

    if args.json:
        import json

        print(json.dumps(
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


def cmd_package(args: argparse.Namespace) -> int:
    from .. import dist

    suite, points = suite_points(args)
    job = dist.package_job(
        points, args.job_dir, description=f"suite {suite.name!r}"
    )
    print(f"packaged {job.describe()}")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    if (args.job_dir is not None) == args.stdio:
        print(
            "dist worker needs exactly one mode: a job directory "
            "(directory-queue) or --stdio (protocol on stdin/stdout)"
        )
        return 2
    from .. import dist

    if args.job_dir is not None:
        done = dist.run_worker(
            args.job_dir,
            worker_id=args.worker_id,
            max_points=args.max_points,
        )
        print(f"worker completed {done} point(s)")
        return 0
    return dist.serve_stdio()


def cmd_status(args: argparse.Namespace) -> int:
    from .. import dist

    if args.requeue_lost:
        moved = dist.requeue_lost(args.job_dir)
        print(f"requeued {moved} lost point(s)")
    print(dist.job_status(args.job_dir).describe())
    return 0


def cmd_merge(args: argparse.Namespace) -> int:
    from .. import dist
    from ..errors import DistError

    store = args.json or args.csv
    try:
        merged = dist.merge_job(
            args.job_dir, store=store, allow_partial=args.allow_partial
        )
        if args.json and args.csv:
            # Same contract as campaign and suite run: the second
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


def add_parser(sub) -> None:
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
    dbackends.set_defaults(handler=cmd_backends)
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
    add_window_args(dpackage, suite=True)
    dpackage.set_defaults(handler=cmd_package)
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
        "--worker-id", default=None,
        help="worker id for claims and the partial store "
        "(default <hostname>-<pid>)",
    )
    dworker.add_argument(
        "--max-points", type=int, default=None,
        help="stop after completing this many points",
    )
    dworker.set_defaults(handler=cmd_worker)
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
    dmerge.set_defaults(handler=cmd_merge)
    dstatus = dsub.add_parser(
        "status", help="summarise a job directory's progress"
    )
    dstatus.add_argument("job_dir", help="job directory to inspect")
    dstatus.add_argument(
        "--requeue-lost", action="store_true",
        help="move claimed-but-unfinished points back into the queue "
        "(only when their workers are dead)",
    )
    dstatus.set_defaults(handler=cmd_status)

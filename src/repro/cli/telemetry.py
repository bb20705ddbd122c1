"""``telemetry dump``: the logging configuration and metrics registry."""

from __future__ import annotations

import argparse


def cmd_dump(args: argparse.Namespace) -> int:
    import json
    import os

    from .. import telemetry

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
            json.dump(document, fh, indent=1)
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


def add_parser(sub) -> None:
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
    teldump.set_defaults(handler=cmd_dump)

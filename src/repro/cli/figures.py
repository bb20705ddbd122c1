"""``figure``: regenerate the paper's figures and tables."""

from __future__ import annotations

import argparse

from .simulate import add_run_args


def cmd_figure(args: argparse.Namespace) -> int:
    from ..analysis import (
        FIGURES,
        ExperimentRunner,
        format_kv_table,
        render_figure,
        table1_workloads,
        table2_parameters,
    )

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
        print(render_figure(name, FIGURES[name](runner)))
        print()
    return 0


def add_parser(sub) -> None:
    figure = sub.add_parser(
        "figure", help="regenerate a paper figure (or 'all')"
    )
    figure.add_argument("name")
    add_run_args(figure)
    figure.set_defaults(handler=cmd_figure)

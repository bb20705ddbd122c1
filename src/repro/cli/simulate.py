"""``list``, ``machines``, ``schemes``, ``run``, ``compare`` and ``sweep``:
the registries and single-simulation commands."""

from __future__ import annotations

import argparse


def add_override_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-O",
        "--override",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="dotted machine override, e.g. clusters.0.iq_size=128 or "
        "l1d.size_kb=32 (repeatable)",
    )


def parse_overrides(args: argparse.Namespace):
    """``-O PATH=VALUE`` occurrences as canonical override pairs."""
    from ..spec import parse_override

    return tuple(parse_override(text) for text in args.override)


def add_run_args(parser: argparse.ArgumentParser) -> None:
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


def cmd_list(_args: argparse.Namespace) -> int:
    from .. import scenarios
    from ..core.steering import available_schemes

    print("steering schemes:")
    for name in available_schemes():
        print(f"  {name}")
    print("workload corpus:")
    for family, members in scenarios.corpus_members().items():
        listed = ", ".join(members) if members else "(empty)"
        print(f"  {family}: {listed}")
    return 0


def cmd_machines(_args: argparse.Namespace) -> int:
    # machines list
    from ..spec import (
        available_machine_families,
        available_machines,
        machine_description,
    )

    print("machines:")
    for name in available_machines():
        print(f"  {name}: {machine_description(name)}")
    print("parametric families (resolve as <family>-<N>):")
    for prefix in available_machine_families():
        print(f"  {prefix}-<N>: {machine_description(prefix)}")
    return 0


def cmd_schemes(_args: argparse.Namespace) -> int:
    # schemes list
    from ..core.steering import available_schemes, scheme_description

    print("steering schemes:")
    for name in available_schemes():
        print(f"  {name}: {scheme_description(name)}")
    print(
        "\ncontract: a scheme implements choose_cluster(self, ctx, dyn) "
        "and on_dispatch(self, ctx, dyn, cluster)\nover the documented "
        "SteeringContext read-view (repro.core.steering.SteeringContext)."
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from ..pipeline import simulate_baseline
    from ..spec import MachineSpec, RunSpec
    from ..spec import run as run_spec

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
        machine=MachineSpec(args.machine, parse_overrides(args)),
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


def cmd_compare(args: argparse.Namespace) -> int:
    from ..core.steering import available_schemes
    from ..pipeline import simulate, simulate_baseline

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


def cmd_sweep(args: argparse.Namespace) -> int:
    from ..analysis.sweeps import Sweep

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


def add_parser(sub) -> None:
    sub.add_parser(
        "list", help="list schemes and benchmarks"
    ).set_defaults(handler=cmd_list)

    machines_p = sub.add_parser(
        "machines", help="machine registry (Table 2 + parametric variants)"
    )
    msub = machines_p.add_subparsers(dest="machines_cmd", required=True)
    msub.add_parser(
        "list", help="registered machines with descriptions"
    ).set_defaults(handler=cmd_machines)

    schemes_p = sub.add_parser("schemes", help="steering scheme registry")
    schsub = schemes_p.add_subparsers(dest="schemes_cmd", required=True)
    schsub.add_parser(
        "list", help="registered schemes with descriptions"
    ).set_defaults(handler=cmd_schemes)

    run = sub.add_parser("run", help="simulate one benchmark/scheme pair")
    run.add_argument("-b", "--bench", default="gcc")
    run.add_argument("-s", "--scheme", default="general-balance")
    run.add_argument(
        "-m",
        "--machine",
        default="clustered",
        help="machine name from the registry (see 'machines list')",
    )
    add_override_arg(run)
    add_run_args(run)
    run.set_defaults(handler=cmd_run)

    compare = sub.add_parser("compare", help="every scheme on one benchmark")
    compare.add_argument("-b", "--bench", default="gcc")
    add_run_args(compare)
    compare.set_defaults(handler=cmd_compare)

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
    add_run_args(sweep_p)
    sweep_p.set_defaults(handler=cmd_sweep)

#!/usr/bin/env python3
"""The repository benchmark: warm single simulations and cold sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload core-columnar --seed 0 --seconds 25 --trace 0

Workloads (all closed loop from one process: the next simulation or
sweep starts when the previous one returns):

``core-columnar``
    Repeated ``Processor.run`` of gcc x general-balance on the Table 2
    ``clustered`` machine, trace materialised before timing: the fused
    columnar pipeline path every non-FIFO point takes.
``core-fifo``
    The same loop on gcc x fifo x ``clustered-fifo``: the object-dispatch
    plus ``FifoIssueQueue`` path of the same pipeline layer.
``sweep-cold``
    The ``paper-table1`` grid (8 benches x 5 schemes) through a warm
    worker pool with jobs = nproc and a fresh simulation seed per sweep,
    so no result memo or trace payload is reused and trace generation is
    counted.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run that alternates traced and
untraced operations and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``perfbench/README.md`` says what each metric means and
which layer it belongs to.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
#: Bytecode cache for this process and its workers, always written, so
#: every run after the first imports from cache whatever the caller's
#: environment says.  The tracked ``__pycache__`` directories never
#: match a fresh checkout's mtimes and are left alone.
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")

WORKLOADS = ("core-columnar", "core-fifo", "sweep-cold")

#: (scheme, machine) per core workload; both simulate the gcc stand-in.
CORE = {
    "core-columnar": ("general-balance", "clustered"),
    "core-fifo": ("fifo", "clustered-fifo"),
}
CORE_BENCH = "gcc"
#: The static program is generated from a fixed seed; ``--seed`` picks
#: the committed path through it (branch outcomes, memory addresses).
#: Regenerating the program per seed moves host time by up to a third,
#: which would drown the run-to-run comparison in input variance.
CORE_PROGRAM_SEED = 0
#: Committed paths per run, seeds ``--seed * PATHS_PER_RUN + j``.  Host
#: time differs by several percent from one path to the next, so a run
#: rotates through several and reports totals over them.
PATHS_PER_RUN = 8
#: The paper-table1 window, so a core repeat costs what one sweep point does.
N_INSTRUCTIONS = 10000
WARMUP = 3000
#: Trace records materialised past the window during set-up (the fetch
#: unit runs ahead of commit by up to the in-flight capacity).
TRACE_CUSHION = 2048
MIN_CORE_REPEATS = 5

SWEEP_SUITE = "paper-table1"
#: Simulation seed of sweep *k* in a run with ``--seed s``: s * 1000 + k.
SEEDS_PER_RUN = 1000
MIN_SWEEPS = 2
#: Per-point reply timeout for the worker pool (a point takes well under
#: a second), so a hung worker cannot keep the run past its time limit.
POINT_TIMEOUT_S = 10
#: A first run in a fresh checkout compiles the bytecode cache.
SPAWN_TIMEOUT_S = 30

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def ensure_program() -> None:
    """Put the checkout's ``src/`` on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no simulator sources under {SRC}; run from a "
            f"full checkout of the repository\n"
        )
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.pycache_prefix = PYCACHE
    sys.dont_write_bytecode = False
    os.environ["PYTHONPYCACHEPREFIX"] = PYCACHE
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    # Tuning knobs would change which code paths run; the benchmark
    # always measures the defaults.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def digest(result) -> str:
    """Stable hash over every :class:`SimResult` field."""
    text = json.dumps(asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def proc_status_mb(field: str, pid="self") -> float:
    """A memory field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def p75(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def committed(result, warmup: int) -> int:
    """Instructions a run committed: warm-up plus the measured window."""
    return warmup + result.instructions


def pipeline_counts(results) -> dict:
    """Simulated counts that must repeat exactly (summed over *results*)."""
    cycles = sum(r.cycles for r in results)
    n = len(results)
    return {
        "pipeline.cycles": cycles,
        "pipeline.ipc": sum(r.instructions for r in results) / cycles,
        "pipeline.copies_issued": sum(r.copies_issued for r in results),
        "pipeline.stalls_rob": sum(r.stalls["rob"] for r in results),
        "pipeline.stalls_regs": sum(r.stalls["regs"] for r in results),
        "pipeline.stalls_iq": sum(r.stalls["iq"] for r in results),
        "memory.l1d_miss_rate": sum(r.l1d_miss_rate for r in results) / n,
        "frontend.branch_accuracy": sum(r.branch_accuracy for r in results) / n,
    }


class Tally:
    """Attempted / failed operations plus the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(reason)


# ----------------------------------------------------------------------
# core-columnar / core-fifo
# ----------------------------------------------------------------------
def core_workloads(seeds):
    """The gcc program (fixed) with the committed path of each seed."""
    import repro.workloads as workloads

    profile = workloads.get_profile(CORE_BENCH)
    program = workloads.generate_program(profile, seed=CORE_PROGRAM_SEED)
    return [
        workloads.Workload(name=CORE_BENCH, profile=profile, program=program, seed=seed)
        for seed in seeds
    ]


def core_paths(seed: int):
    """The committed-path seeds a run with ``--seed`` *seed* rotates through."""
    return [seed * PATHS_PER_RUN + j for j in range(PATHS_PER_RUN)]


def make_processor(wl, scheme: str, machine: str, scheduler=None):
    from repro.core.steering import make_steering
    from repro.pipeline.processor import Processor
    from repro.spec import machine_config

    return Processor(
        wl, machine_config(machine), make_steering(scheme), scheduler=scheduler
    )


def core_setup(scheme: str, machine: str, seed: int):
    """Generate the program and materialise its traces; build a processor."""
    wls = core_workloads(core_paths(seed))
    for wl in wls:
        shared = wl.shared_trace()
        shared.ensure(WARMUP + N_INSTRUCTIONS + TRACE_CUSHION)
        shared.columns()
    make_processor(wls[0], scheme, machine)
    return wls


def core_reference(workload: str, wl, golden: dict):
    """The digest a timed run of *wl* must reproduce: pinned for the
    paths of ``--seed 0``, otherwise the reference ``scan`` scheduler's."""
    pinned = golden.get(workload, {}).get(str(wl.seed))
    if pinned is not None:
        return pinned, "pinned"
    scheme, machine = CORE[workload]
    result = make_processor(wl, scheme, machine, scheduler="scan").run(
        N_INSTRUCTIONS, warmup=WARMUP
    )
    return digest(result), "scan"


def run_core(workload: str, seed: int, seconds: float, trace: bool, tally: Tally):
    from repro.telemetry import metrics as registry
    from spans import Spans, ensure_spans, generate_spans, instrument_processor, stats_spans

    scheme, machine = CORE[workload]
    import_s = time.perf_counter() - _START
    setup_times = []
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        spans = Spans()
        start = time.perf_counter()
        if trace:
            with generate_spans(spans), ensure_spans(spans):
                wls = core_setup(scheme, machine, seed)
        else:
            wls = core_setup(scheme, machine, seed)
        setup_times.append(time.perf_counter() - start)
        setup_spans.append(spans.fold())
    setup_s = import_s + statistics.median(setup_times)

    # Untimed warm run: first-touch of the pinned columns and code paths.
    make_processor(wls[0], scheme, machine).run(N_INSTRUCTIONS, warmup=WARMUP)

    memo = (registry.counter("steering.memo.hits"), registry.counter("steering.memo.misses"))
    memo_before = [c.value for c in memo]
    untraced = []  # (path, seconds, total cycles, committed)
    traced = []  # (seconds, spans, committed)
    results = {}  # path -> results
    deadline = time.perf_counter() + seconds
    turn = 0
    # Every path runs at least once untraced (and once traced).
    minimum = max(MIN_CORE_REPEATS, len(wls))
    while time.perf_counter() < deadline or len(untraced) < minimum or (
        trace and len(traced) < minimum
    ):
        # A traced run alternates traced and untraced repeats of the same
        # path, so the two share the same host conditions and the ratio
        # of their times is the tracing overhead.
        traced_turn = trace and turn % 2 == 1
        path = (turn // 2 if trace else turn) % len(wls)
        turn += 1
        processor = make_processor(wls[path], scheme, machine)
        spans = Spans()
        tally.attempted += 1
        try:
            if traced_turn:
                instrument_processor(spans, processor)
                with stats_spans(spans):
                    start = time.perf_counter()
                    result = processor.run(N_INSTRUCTIONS, warmup=WARMUP)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = processor.run(N_INSTRUCTIONS, warmup=WARMUP)
                elapsed = time.perf_counter() - start
        except Exception as err:  # noqa: BLE001 — a failed operation
            tally.fail(1, f"Processor.run raised {type(err).__name__}: {err}")
            continue
        results.setdefault(path, []).append(result)
        if traced_turn:
            traced.append((elapsed, spans.fold(), committed(result, WARMUP)))
        else:
            untraced.append((path, elapsed, processor.cycle, committed(result, WARMUP)))

    golden = load_golden()
    sources = set()
    for path, path_results in results.items():
        reference, source = core_reference(workload, wls[path], golden)
        sources.add(source)
        tally.attempted += 1
        mismatched = [digest(r) for r in path_results if digest(r) != reference]
        if mismatched:
            tally.fail(
                len(mismatched),
                f"path {wls[path].seed}: {len(mismatched)} run(s) differ from the "
                f"{source} reference {reference} (seen {sorted(set(mismatched))})",
            )
    print(
        f"{workload}: {len(untraced)} untraced + {len(traced)} traced runs of "
        f"{WARMUP}+{N_INSTRUCTIONS} instructions over {len(wls)} committed paths, "
        f"checked against the {'/'.join(sorted(sources))} reference"
    )
    if not untraced:
        return {}
    # Median time per path, then totals over the run's paths: host time
    # differs by a few percent from path to path, and the sum over all
    # of them averages that out.
    per_path = {}
    for path, t, _, instr in untraced:
        per_path.setdefault(path, (instr, []))[1].append(t)
    path_time = sum(statistics.median(ts) for _, ts in per_path.values())
    times = [t for _, t, _, _ in untraced]
    if not trace:
        return {
            "sim_instr_per_s": sum(instr for instr, _ in per_path.values()) / path_time,
            "sweep_points_per_s": len(per_path) / path_time,
            "point_s_p50": statistics.median(times),
            "point_s_p75": p75(times),
            "setup_s": setup_s,
            "peak_rss_mb": proc_status_mb("VmHWM"),
        }
    hits = memo[0].value - memo_before[0]
    lookups = sum(c.value - b for c, b in zip(memo, memo_before))
    metrics = core_layer_metrics(traced, tally)
    metrics.update(pipeline_counts([runs[0] for runs in results.values()]))
    metrics.update({
        "core.steering.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "core.steering.memo_lookups": lookups,
        "pipeline.host_ns_per_cycle": statistics.median(
            t * 1e9 / cycles for _, t, cycles, _ in untraced
        ),
        "workloads.generate_s": statistics.median(s.ns["generate"] / 1e9 for s in setup_spans),
        "workloads.trace_records": statistics.median(
            s.counts["trace_records"] for s in setup_spans
        ),
        "workloads.trace_ns_per_record": statistics.median(
            s.ns["ensure"] / max(1, s.counts["trace_records"]) for s in setup_spans
        ),
        "trace.overhead_frac": (
            statistics.median(t for t, _, _ in traced) / statistics.median(times) - 1.0
            if traced else 0.0
        ),
    })
    return metrics


#: Stages that ``step`` calls directly; their inclusive spans tile it.
STEP_CHILDREN = ("commit", "lsq", "issue", "dispatch", "fetch", "stats")


def core_layer_metrics(traced, tally: Tally) -> dict:
    """Per-instruction stage self times, medians over the traced repeats.

    Dispatch self time excludes the steering decision it calls.  The
    stage spans plus ``step_other`` tile the ``step`` span by
    construction; the checks catch spans that overlap (a negative
    remainder) or that exceed the run they were taken in.
    """
    rows = []
    for elapsed, spans, instr in traced:
        ns = spans.ns
        other = ns["step"] - sum(ns[name] for name in STEP_CHILDREN)
        if other < 0 or ns["choose"] > ns["dispatch"]:
            tally.fail(1, "stage spans overlap: negative self time")
        if ns["step"] > elapsed * 1e9:
            tally.fail(1, "step spans exceed the traced run's wall time")
        rows.append({
            "frontend.fetch_ns_per_instr": ns["fetch"] / instr,
            "memory.lsq_ns_per_instr": ns["lsq"] / instr,
            "pipeline.commit_ns_per_instr": ns["commit"] / instr,
            "pipeline.stats_ns_per_instr": ns["stats"] / instr,
            "pipeline.step_other_ns_per_instr": other / instr,
            "pipeline.step_ns_per_instr": ns["step"] / instr,
            "pipeline.dispatch_ns_per_instr": (ns["dispatch"] - ns["choose"]) / instr,
            "core.steering.choose_ns_per_instr": ns["choose"] / instr,
            "pipeline.issue_ns_per_instr": ns["issue"] / instr,
        })
    if not rows:
        return {}
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def spawn_pool(jobs: int):
    """A worker pool with *jobs* live workers that answered a ping."""
    from repro.dist.worker import WorkerPool

    pool = WorkerPool()
    pool.ensure(jobs)
    for slot in range(jobs):
        pool.worker_at(slot).request("ping", timeout=SPAWN_TIMEOUT_S)
    return pool


def reference_points(points, sweep_index: int):
    """Half the benches, one point each: even sweeps take the even
    benches and odd sweeps the odd ones, so every run (at least two
    sweeps) re-checks one point per bench.  The scheme rotates from
    sweep to sweep."""
    by_bench = {}
    for point in points:
        by_bench.setdefault(point.bench, []).append(point)
    return [
        group[(i + sweep_index) % len(group)]
        for i, group in enumerate(by_bench.values())
        if i % 2 == sweep_index % 2
    ]


def scan_result(point):
    """*point* simulated in-process under the reference scan scheduler."""
    from repro.core.steering import make_steering
    from repro.pipeline.processor import Processor
    from repro.workloads import workload

    steering = make_steering(point.scheme)
    config = point.config()
    if getattr(steering, "requires_fifo_issue", False) and not config.fifo_issue:
        config = config.with_fifo_issue()
    processor = Processor(
        workload(point.bench, seed=point.seed), config, steering, scheduler="scan"
    )
    return processor.run(point.n_instructions, warmup=point.warmup)


def check_sweep(runs, sim_seed: int, sweep_index: int, golden: dict, tally: Tally):
    """Pinned digests for seed 0; otherwise scan re-runs of some points."""
    pinned = golden.get("sweep-cold", {}).get(str(sim_seed))
    if pinned is not None:
        bad = [
            run.point.label for run in runs
            if digest(run.result) != pinned.get(f"{run.point.bench}/{run.point.scheme}")
        ]
        if bad:
            tally.fail(len(bad), f"seed {sim_seed}: pinned digest mismatch {bad[:4]}")
        return "pinned"
    by_point = {run.point: run.result for run in runs}
    for point in reference_points(list(by_point), sweep_index):
        tally.attempted += 1
        if digest(scan_result(point)) != digest(by_point[point]):
            tally.fail(1, f"{point.label}: differs from the scan reference")
    return "scan"


def finish_sweep(pool, before, runs, wall, traced, spans, sim_seed, index, golden, tally):
    """Apply the cold guard and the result check to one finished sweep."""
    after = pool.stats()
    delta = {
        key: after[key] - before[key]
        for key in ("result_cache_hits", "trace_cache_misses", "batches", "trace_payloads")
    }
    groups = len({run.point.trace_key for run in runs})
    # Cold guard: a memo hit, or a payload not built for this sweep,
    # would time a cache while the label says simulation.
    if delta["result_cache_hits"] or delta["trace_payloads"] != groups:
        tally.fail(
            len(runs),
            f"sweep seed {sim_seed} was not cold: {delta} "
            f"({groups} fresh trace groups expected)",
        )
    start = time.perf_counter()
    source = check_sweep(runs, sim_seed, index, golden, tally)
    return {
        "wall": wall,
        "traced": traced,
        "spans": spans,
        "runs": runs,
        "delta": delta,
        "check": f"{source} in {time.perf_counter() - start:.2f} s",
    }


def run_sweep(seed: int, seconds: float, trace: bool, tally: Tally):
    from repro.analysis.campaign import Campaign
    from repro.dist.worker import WorkerBackend
    from repro.scenarios import get_suite
    from spans import Spans, dispatcher_spans

    jobs = len(os.sched_getaffinity(0))
    import_s = time.perf_counter() - _START
    setup_times = []
    pool = None
    try:
        for _ in range(SETUP_REPEATS):
            if pool is not None:
                pool.shutdown()
            start = time.perf_counter()
            pool = spawn_pool(jobs)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        backend = WorkerBackend(pool=pool, timeout=POINT_TIMEOUT_S)
        suite = get_suite(SWEEP_SUITE)
        golden = load_golden()

        sweeps = []  # one dict per completed sweep
        rss_after = []
        measured = 0.0
        k = 0
        while measured < seconds or k < MIN_SWEEPS:
            sim_seed = seed * SEEDS_PER_RUN + k
            traced_turn = trace and k % 2 == 1
            points = suite.points(seeds=[sim_seed])
            tally.attempted += len(points)
            before = pool.stats()
            spans = Spans(threaded=True)
            start = time.perf_counter()
            try:
                if traced_turn:
                    with dispatcher_spans(spans):
                        runs = Campaign(points, workers=jobs, backend=backend).run()
                else:
                    runs = Campaign(points, workers=jobs, backend=backend).run()
            except Exception as err:  # noqa: BLE001 — a failed sweep
                runs = None
                tally.fail(len(points), f"sweep seed {sim_seed}: {type(err).__name__}: {err}")
            wall = time.perf_counter() - start
            measured += wall
            if runs is not None:
                sweeps.append(
                    finish_sweep(pool, before, list(runs), wall, traced_turn, spans,
                                 sim_seed, k, golden, tally)
                )
                rss_after.append(proc_status_mb("VmRSS"))
            k += 1
            if k == MIN_SWEEPS:
                # Peak memory after a fixed amount of work: the run's
                # sweep count depends on speed, and each fresh-seed
                # sweep grows the dispatcher's unbounded trace caches.
                workers_hwm = [
                    proc_status_mb("VmHWM", w["pid"])
                    for w in pool.stats()["workers"] if "pid" in w
                ]
                dispatcher_hwm = proc_status_mb("VmHWM")
    finally:
        if pool is not None:
            pool.shutdown()

    for i, sweep in enumerate(sweeps):
        print(
            f"sweep-cold: sweep {i} {'traced' if sweep['traced'] else 'untraced'} "
            f"{len(sweep['runs'])} points in {sweep['wall']:.3f} s, "
            f"checked against {sweep['check']}, pool deltas {sweep['delta']}"
        )
    plain = [s for s in sweeps if not s["traced"]]
    traced = [s for s in sweeps if s["traced"]]
    if not plain:
        return {}
    if not trace:
        elapsed = [run.elapsed_seconds for s in plain for run in s["runs"]]
        print(
            f"sweep-cold: {len(elapsed)} point samples; after {MIN_SWEEPS} sweeps "
            f"dispatcher peak {dispatcher_hwm:.1f} MiB, workers "
            f"{['%.1f' % m for m in workers_hwm]} MiB"
        )
        return {
            "sim_instr_per_s": statistics.median(
                sum(committed(run.result, run.point.warmup) for run in s["runs"]) / s["wall"]
                for s in plain
            ),
            "sweep_points_per_s": statistics.median(len(s["runs"]) / s["wall"] for s in plain),
            "point_s_p50": statistics.median(elapsed),
            "point_s_p75": p75(elapsed),
            "setup_s": setup_s,
            "peak_rss_mb": max([dispatcher_hwm] + workers_hwm),
        }
    if not traced:
        return {}
    metrics = sweep_layer_metrics(traced, jobs)
    metrics.update(pipeline_counts([run.result for run in traced[0]["runs"]]))
    metrics["dist.rss_growth_mb_per_sweep"] = (
        (rss_after[-1] - rss_after[0]) / (len(rss_after) - 1) if len(rss_after) > 1 else 0.0
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(s["wall"] for s in traced)
        / statistics.median(s["wall"] for s in plain) - 1.0
    )
    return metrics


def sweep_layer_metrics(traced, jobs: int) -> dict:
    """Dispatcher-side layer metrics, medians over the traced sweeps."""
    rows = []
    for sweep in traced:
        ns, counts, runs = sweep["spans"].ns, sweep["spans"].counts, sweep["runs"]
        elapsed = sum(run.elapsed_seconds for run in runs)
        resolve = sum((run.timing or {}).get("resolve_seconds", 0.0) for run in runs)
        simulate = sum((run.timing or {}).get("simulate_seconds", 0.0) for run in runs)
        rows.append({
            "workloads.generate_s": ns["generate"] / 1e9,
            "workloads.trace_records": counts["trace_records"],
            "workloads.trace_ns_per_record": ns["ensure"] / max(1, counts["trace_records"]),
            "scenarios.export_s": (ns["export"] - ns["ensure"]) / 1e9,
            "scenarios.payload_bytes": counts["payload_bytes"],
            "dist.trace_payload_s": ns["trace_payload"] / 1e9,
            "dist.preload_s": ns["preload"] / 1e9,
            "dist.slot_idle_frac": 1.0 - elapsed / (jobs * sweep["wall"]),
            "dist.result_cache_hits": sweep["delta"]["result_cache_hits"],
            "dist.trace_cache_misses": sweep["delta"]["trace_cache_misses"],
            "dist.batches": sweep["delta"]["batches"],
            "campaign.resolve_s": resolve,
            "campaign.simulate_s": simulate,
            "campaign.overhead_s": elapsed - resolve - simulate,
        })
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def metric_units(trace: bool) -> dict:
    """Metric name -> unit for the mode, as ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}


def report(workload: str, trace: bool, measured: dict, tally: Tally) -> dict:
    """The result line: every metric of the mode, with its unit.

    A per-layer metric the workload does not exercise (pipeline stage
    times on sweep-cold, whose simulations run in worker processes; pool
    metrics on the core loops) reads 0; ``perfbench/README.md`` maps each
    metric to the workloads that measure it.  An end-to-end metric with
    no measurement is a failure.
    """
    units = metric_units(trace)
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0.0)
        metrics[name] = {"value": float(value), "unit": unit}
        print(f"{workload}  {name:<36s} {value:>16.6f} {unit}")
    missing = [name for name in units if name not in measured]
    if missing and not trace:
        tally.fail(1, f"no measurement for {missing}")
    for problem in tally.problems:
        print(f"{workload}  FAILED: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }


def bless() -> None:
    """Rewrite ``golden.json`` from in-process runs at seed 0."""
    from repro.analysis.campaign import Campaign
    from repro.scenarios import get_suite

    golden = {}
    for workload, (scheme, machine) in CORE.items():
        golden[workload] = {
            str(wl.seed): digest(
                make_processor(wl, scheme, machine).run(N_INSTRUCTIONS, warmup=WARMUP)
            )
            for wl in core_workloads(core_paths(0))
        }
    runs = Campaign(get_suite(SWEEP_SUITE).points(seeds=[0]), backend="serial").run()
    golden["sweep-cold"] = {
        "0": {f"{r.point.bench}/{r.point.scheme}": digest(r.result) for r in runs}
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--bless", action="store_true",
        help="rewrite perfbench/golden.json (after an intended model change)",
    )
    args = parser.parse_args(argv)
    if not args.bless and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    ensure_program()
    if args.bless:
        bless()
        return 0
    tally = Tally()
    trace = bool(args.trace)
    if args.workload == "sweep-cold":
        measured = run_sweep(args.seed, args.seconds, trace, tally)
    else:
        measured = run_core(args.workload, args.seed, args.seconds, trace, tally)
    print(json.dumps(report(args.workload, trace, measured, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

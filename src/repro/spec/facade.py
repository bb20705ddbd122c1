"""``repro.run``: the one entry point every execution path routes through.

:func:`run` takes a declarative spec and executes it — a
:class:`RunSpec` becomes one :class:`~repro.pipeline.SimResult`, a
:class:`SuiteSpec` expands through the campaign engine (with the same
``workers`` / ``store`` / ``resume`` controls as
:func:`~repro.analysis.campaign.run_campaign`).  Plain dicts (e.g. read
from JSON) are accepted and classified by shape.

:func:`execute_resolved` underneath is the single simulation core:
``simulate()``, campaign workers, sweeps, the figure harness and the CLI
all end up here, so behaviour (FIFO auto-switching, workload/scheme
resolution) is defined exactly once.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import ConfigError
from .specs import MachineSpec, RunSpec, SuiteSpec


def execute_resolved(
    bench,
    steering,
    config,
    n_instructions: int,
    warmup: int,
    seed: int,
):
    """Run one simulation from (possibly already-resolved) ingredients.

    *bench* is a workload name or instance, *steering* a scheme name or
    instance, *config* a :class:`ProcessorConfig` or ``None`` (the
    clustered machine).  The FIFO steering scheme automatically switches
    the window organisation when the caller did not.
    """
    # Imported lazily: this module sits below the pipeline package in
    # the import graph, and the heavy model modules are only needed at
    # execution time.
    from ..core.steering import make_steering
    from ..pipeline.config import ProcessorConfig
    from ..pipeline.processor import Processor
    from ..workloads import Workload, workload

    wl = bench if isinstance(bench, Workload) else workload(bench, seed=seed)
    scheme = make_steering(steering) if isinstance(steering, str) else steering
    cfg = config if config is not None else ProcessorConfig.default()
    if getattr(scheme, "requires_fifo_issue", False) and not cfg.fifo_issue:
        cfg = cfg.with_fifo_issue()
    return Processor(wl, cfg, scheme).run(n_instructions, warmup=warmup)


def execute(spec: RunSpec):
    """Resolve and execute one :class:`RunSpec`."""
    return execute_resolved(
        spec.bench,
        spec.scheme,
        spec.machine.resolve(),
        spec.n_instructions,
        spec.warmup,
        spec.seed,
    )


def run(
    spec: Union[RunSpec, SuiteSpec, dict],
    workers: int = 1,
    store: Optional[str] = None,
    resume: bool = False,
    backend=None,
):
    """Execute a declarative spec.

    Parameters
    ----------
    spec:
        A :class:`RunSpec` (returns the :class:`SimResult`), a
        :class:`SuiteSpec` (returns the campaign's
        :class:`~repro.analysis.campaign.IncrementalRun`), or a plain
        dict of either shape — dicts with a ``benches`` key are suites.
    workers / store / resume / backend:
        Campaign execution controls (``backend`` is a
        :mod:`repro.dist` backend name or instance); only meaningful
        for suites.
    """
    if isinstance(spec, dict):
        spec = (
            SuiteSpec.from_dict(spec)
            if "benches" in spec
            else RunSpec.from_dict(spec)
        )
    if isinstance(spec, RunSpec):
        if workers != 1 or store is not None or resume or backend is not None:
            raise ConfigError(
                "workers/store/resume/backend apply to suite specs; wrap "
                "the run in a SuiteSpec to use campaign features"
            )
        return execute(spec.validate())
    if isinstance(spec, SuiteSpec):
        from ..analysis.campaign import run_campaign

        return run_campaign(
            spec.validate().points(),
            workers=workers,
            store=store,
            resume=resume,
            backend=backend,
        )
    raise ConfigError(
        f"repro.run expects a RunSpec, SuiteSpec or dict, "
        f"got {type(spec).__name__}"
    )

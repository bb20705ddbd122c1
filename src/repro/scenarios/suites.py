"""Named scenario suites: declarative bundles of campaign grids.

A suite names a *question* — "how do the schemes rank on branch-hostile
code?" — and fixes the benches, schemes, machines, seeds and window sizes
that answer it.  Suites are plain :class:`~repro.spec.SuiteSpec`
objects, so everything the spec layer provides — dotted-path
overrides, JSON data-file round trips, :func:`repro.run` — and
everything the campaign engine provides (shared traces, worker
processes, JSON/CSV stores, incremental resume, seed aggregation)
applies to a suite run unchanged.

Two kinds of suites register here:

* **data-file suites** — checked-in JSON definitions under the
  repository's ``suites/`` directory (``paper-table1``, ``smoke``),
  located via :func:`suite_data_dir` (override with the
  ``REPRO_SUITE_DIR`` environment variable).  ``repro-sim suite
  export|run`` moves suites between the registry and such files;
* **in-code suites** — the stress-scenario grids defined below.

>>> from repro.scenarios import get_suite
>>> suite = get_suite("smoke")
>>> len(suite.points(n_instructions=500, warmup=150)) == len(
...     suite.benches) * len(suite.schemes)
True
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.campaign import IncrementalRun, run_campaign
from ..errors import ScenarioError, SpecError
from ..spec.specs import SuiteSpec

#: All registered suites by name.
_SUITES: Dict[str, SuiteSpec] = {}

#: Data-file suites expected in the suite data directory.
DATA_FILE_SUITES = ("paper-table1", "smoke")


def register_suite(suite: SuiteSpec) -> SuiteSpec:
    """Register *suite*, rejecting duplicate names."""
    if suite.name in _SUITES:
        raise ScenarioError(
            f"scenario suite {suite.name!r} is already registered"
        )
    _SUITES[suite.name] = suite
    return suite


def get_suite(name: str) -> SuiteSpec:
    """Look up a suite by name (raises for unknown names)."""
    try:
        return _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        hint = ""
        if name in DATA_FILE_SUITES and suite_data_dir() is None:
            hint = (
                "; its data file was not found — point REPRO_SUITE_DIR "
                "at the directory holding the checked-in suites/*.json"
            )
        raise ScenarioError(
            f"unknown scenario suite {name!r}; available: {known}{hint}"
        ) from None


def available_suites() -> Tuple[str, ...]:
    """Registered suite names, sorted."""
    return tuple(sorted(_SUITES))


def run_suite(
    name: str,
    workers: int = 1,
    n_instructions: Optional[int] = None,
    warmup: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    store: Optional[str] = None,
    resume: bool = False,
) -> IncrementalRun:
    """Expand and execute one named suite through the campaign engine.

    With *store*/*resume* the run is incremental: points already present
    in the store are reused, only missing ones are simulated, and the
    merged result set is written back.
    """
    suite = get_suite(name)
    points = suite.points(
        n_instructions=n_instructions, warmup=warmup, seeds=seeds
    )
    return run_campaign(
        points, workers=workers, store=store, resume=resume
    )


# ----------------------------------------------------------------------
# Data-file suites
# ----------------------------------------------------------------------
def suite_data_dir() -> Optional[str]:
    """Directory holding the checked-in suite data files, or ``None``.

    ``REPRO_SUITE_DIR`` wins when set; otherwise the repository root is
    located by walking up from this module looking for a ``suites/``
    directory with the expected files.
    """
    env = os.environ.get("REPRO_SUITE_DIR")
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(6):
        candidate = os.path.join(here, "suites")
        if os.path.isfile(
            os.path.join(candidate, f"{DATA_FILE_SUITES[0]}.json")
        ):
            return candidate
        parent = os.path.dirname(here)
        if parent == here:
            break
        here = parent
    return None


def load_suite_file(path: str) -> SuiteSpec:
    """Read (and validate) one suite data file without registering it."""
    return SuiteSpec.load(path)


def register_suite_file(path: str) -> SuiteSpec:
    """Load a suite data file and register it under its recorded name."""
    return register_suite(load_suite_file(path))


def export_suite(name: str, path: str) -> SuiteSpec:
    """Write the registered suite *name* to the data file *path*.

    The file round-trips exactly: ``repro-sim suite run`` on it expands
    to the identical campaign grid (same points, same stores).
    """
    suite = get_suite(name)
    suite.save(path)
    return suite


def _register_data_file_suites() -> None:
    """Register the checked-in suites (``paper-table1``, ``smoke``).

    These grids live in ``suites/*.json``, not in code — the data file
    *is* the definition.  A missing directory (e.g. an installed wheel
    without the repo checkout) just leaves them unregistered;
    :func:`get_suite` then names the ``REPRO_SUITE_DIR`` escape hatch.
    """
    directory = suite_data_dir()
    if directory is None:
        return
    for name in DATA_FILE_SUITES:
        path = os.path.join(directory, f"{name}.json")
        if not os.path.isfile(path):
            continue
        try:
            suite = load_suite_file(path)
        except SpecError as err:
            raise ScenarioError(
                f"checked-in suite file {path!r} is invalid: {err}"
            ) from err
        if suite.name != name:
            raise ScenarioError(
                f"suite file {path!r} declares name {suite.name!r}; "
                f"expected {name!r}"
            )
        register_suite(suite)


_register_data_file_suites()


# ----------------------------------------------------------------------
# Built-in in-code suites (stress scenarios around the paper's corpus)
# ----------------------------------------------------------------------
register_suite(
    SuiteSpec(
        name="branchy",
        description="branch-hostile codes: does balance steering survive "
        "constant mispredict recovery?",
        benches=("go", "branchy-mild", "branchy-hostile"),
        schemes=("modulo", "br-slice", "br-slice-balance", "general-balance"),
    )
)

register_suite(
    SuiteSpec(
        name="stress-memory",
        description="miss-dominated workloads: steering under long memory "
        "latencies",
        benches=("compress", "stream-cold", "memhog-512k", "memhog-2m"),
        schemes=(
            "modulo",
            "ldst-slice",
            "ldst-slice-balance",
            "general-balance",
        ),
    )
)

register_suite(
    SuiteSpec(
        name="comm-bound",
        description="pointer-chase chains where inter-cluster copies sit "
        "on the critical path",
        benches=("li", "pchase-mild", "pchase-heavy", "pchase-extreme"),
        schemes=(
            "modulo",
            "ldst-slice",
            "ldst-priority",
            "general-balance",
        ),
    )
)

register_suite(
    SuiteSpec(
        name="high-ilp",
        description="wide low-communication dataflow: the regime where "
        "any balanced scheme should approach the upper bound",
        benches=("ijpeg", "ilp-wide", "ilp-lowcomm", "stream-hot"),
        schemes=("modulo", "general-balance", "fifo"),
    )
)

"""Scenario corpus: portable traces, workload families, named suites.

This package turns the repo's workloads from a fixed table into an
extensible corpus with three layers:

* :mod:`~repro.scenarios.rtrace` — a versioned, compressed ``.rtrace``
  file format that freezes a workload's committed path so it can be
  shipped between machines and replayed byte-identically without
  regenerating the program;
* :mod:`~repro.scenarios.registry` — a plugin-style registry where the
  SpecInt95 stand-ins, parametric stress families (pointer-chase,
  branch-hostile, streaming, high-ILP, memory-stress) and imported
  traces all appear as named workload families;
* :mod:`~repro.scenarios.suites` — named scenario suites
  (``paper-table1``, ``branchy``, ``comm-bound``...) that expand into
  campaign grids and run through the campaign engine.  Suites are
  :class:`~repro.spec.SuiteSpec` objects: ``paper-table1`` and ``smoke``
  are loaded from the checked-in ``suites/*.json`` data files, and any
  suite can be exported to / re-run from such a file
  (:func:`export_suite`, :func:`register_suite_file`, ``repro-sim suite
  export|run``).

Importing this package registers the built-in families and suites;
:func:`repro.workloads.workload` triggers that import automatically on
the first unknown benchmark name, so corpus members resolve everywhere —
including campaign worker processes.

Quickstart::

    import repro.scenarios as scenarios

    run = scenarios.run_suite("comm-bound", workers=4)
    meta = scenarios.export_trace(workload("gcc"), "gcc.rtrace", 25000)
    wl = scenarios.register_trace("gcc.rtrace", name="gcc-recorded")
"""

from .registry import (
    WorkloadFamily,
    available_families,
    corpus_benches,
    corpus_members,
    family_of,
    get_family,
    register_family,
    register_trace,
    unregister_trace,
)
from .rtrace import (
    EXPORT_CUSHION,
    TraceMeta,
    export_trace,
    export_trace_bytes,
    import_trace,
    import_trace_bytes,
    read_meta,
)
from .suites import (
    DATA_FILE_SUITES,
    available_suites,
    export_suite,
    get_suite,
    load_suite_file,
    register_suite,
    register_suite_file,
    run_suite,
    suite_data_dir,
)

__all__ = [
    "WorkloadFamily",
    "available_families",
    "corpus_benches",
    "corpus_members",
    "family_of",
    "get_family",
    "register_family",
    "register_trace",
    "unregister_trace",
    "EXPORT_CUSHION",
    "TraceMeta",
    "export_trace",
    "export_trace_bytes",
    "import_trace",
    "import_trace_bytes",
    "read_meta",
    "DATA_FILE_SUITES",
    "available_suites",
    "export_suite",
    "get_suite",
    "load_suite_file",
    "register_suite",
    "register_suite_file",
    "run_suite",
    "suite_data_dir",
]

"""Rewrite the golden digest files.

``simresults.json`` comes from the production-vs-oracle equivalence
grid: every row of ``GRID`` in ``tests/test_scheduler_equivalence.py``
runs on the production :class:`Processor` and stores one digest over
all ``SimResult`` fields.  ``traces.json`` (``--traces``) holds one digest
per registered workload and seed over the committed path's first
records (``tests/test_trace_golden.py``).  Only an intended change to
the model's timing, or to the workload model, should be re-blessed::

    PYTHONPATH=src python tests/golden/regenerate.py [--traces]
"""

import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)


def load(module_file: str):
    spec = importlib.util.spec_from_file_location(
        module_file[:-3], os.path.join(TESTS, module_file)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: str, digests: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {path}")


def main() -> None:
    if "--traces" in sys.argv[1:]:
        traces = load("test_trace_golden.py")
        write(traces.GOLDEN, traces.all_digests())
        return
    grid = load("test_scheduler_equivalence.py")
    write(grid.GOLDEN, {
        grid.golden_key(*row): grid.digest(grid.run_with(grid.Processor, *row))
        for row in grid.GRID
    })


if __name__ == "__main__":
    main()

"""Rewrite ``simresults.json`` from the event-vs-scan equivalence grid.

Runs every row of ``GRID`` in ``tests/test_scheduler_equivalence.py``
under the production (event) scheduler and stores one digest over all
``SimResult`` fields per row.  Only an intended change to the model's
timing should be re-blessed::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
TEST_MODULE = os.path.join(os.path.dirname(HERE), "test_scheduler_equivalence.py")


def main() -> None:
    spec = importlib.util.spec_from_file_location("equivalence", TEST_MODULE)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    digests = {
        grid.golden_key(*row): grid.digest(grid.run_with("event", *row))
        for row in grid.GRID
    }
    with open(grid.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {grid.GOLDEN}")


if __name__ == "__main__":
    main()

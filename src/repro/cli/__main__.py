"""``python -m repro.cli``: the pool workers, CI and scripts start here."""

import sys

from . import main

sys.exit(main())

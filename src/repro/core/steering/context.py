"""The documented read-view steering schemes receive (batch steering API).

Steering schemes used to poke directly into :class:`Processor` internals
(``machine.map_table``, ``machine.iqs``, ``machine.ready_counts``, …).
:class:`SteeringContext` replaces those ad-hoc pokes with a stable,
documented surface passed to :meth:`SteeringScheme.choose_cluster` and
:meth:`SteeringScheme.on_dispatch`:

``masks``
    Flat per-logical-register presence masks (bit ``c`` set = the value
    has a physical register in cluster ``c``), maintained in place by
    the rename map table.  ``None`` only for exotic machine stand-ins
    without a map table; :meth:`presence_mask` falls back gracefully.
``ready_counts``
    Per-cluster ready-instruction counts from the last issue stage (the
    paper's instantaneous-workload signal).  The processor updates this
    one list in place every cycle.
``iq_occupancy(c)`` / ``iqs``
    Window occupancy per cluster and, on real processors, the queues
    themselves (the FIFO scheme inspects tail producers).
``batch``
    The current dispatch group (the decode buffer, oldest first); the
    instruction being steered is ``batch[0]``.  Read-only.
``memo`` / ``memo_hits`` / ``memo_misses``
    A per-processor steering-decision memo dictionary.  Schemes whose
    decision is a pure function of (pc, slice-state version) cache it
    here and count hits/misses; the processor publishes the counters to
    :mod:`repro.telemetry.metrics` as ``steering.memo.hits`` /
    ``steering.memo.misses`` at the end of each run.
``stats``
    The processor's statistics record for the current run (slice remap
    counters); the processor rebinds it when a run starts.

The context holds the machine's structures, never the processor: the
processor holds the context, so a reference back would make every
finished processor a reference cycle.

The context wraps any machine-like object (including the lightweight
fakes unit tests use), so scheme code and the helpers in
:mod:`repro.core.steering.base` accept either a context or a bare
machine.
"""

from __future__ import annotations

from .base import FP_CLUSTER


class SteeringContext:
    """Read-only machine view handed to steering schemes."""

    __slots__ = (
        "config",
        "map_table",
        "masks",
        "iqs",
        "program",
        "ready_counts",
        "stats",
        "batch",
        "memo",
        "memo_hits",
        "memo_misses",
        "_fallback",
    )

    def __init__(self, machine) -> None:
        self.config = machine.config
        map_table = getattr(machine, "map_table", None)
        self.map_table = map_table
        self.masks = getattr(map_table, "masks", None)
        self.iqs = getattr(machine, "iqs", None)
        self.program = getattr(machine, "program", None)
        self.ready_counts = machine.ready_counts
        self.stats = getattr(machine, "stats", None)
        self.batch = ()
        self.memo = {}
        self.memo_hits = 0
        self.memo_misses = 0
        # Only a machine stand-in without presence masks or windows is
        # kept, for the method fallbacks below.
        self._fallback = (
            machine if self.masks is None or self.iqs is None else None
        )

    def presence_mask(self, reg: int) -> int:
        """Bit mask of clusters where logical register *reg* resides."""
        masks = self.masks
        if masks is not None:
            return masks[reg]
        return self._fallback.presence_mask(reg)

    def iq_occupancy(self, cluster: int) -> int:
        """Instructions currently waiting in *cluster*'s window."""
        iqs = self.iqs
        if iqs is not None:
            return len(iqs[cluster])
        return self._fallback.iq_occupancy(cluster)

    def least_loaded(self) -> int:
        """Cluster with the lighter instantaneous load.

        Same policy as :func:`repro.core.steering.base.least_loaded`:
        ready counts first, window occupancy as tiebreak, FP cluster on
        a full tie.
        """
        r0, r1 = self.ready_counts
        if r0 != r1:
            return 0 if r0 < r1 else 1
        iqs = self.iqs
        if iqs is not None:
            o0 = len(iqs[0])
            o1 = len(iqs[1])
        else:
            o0 = self._fallback.iq_occupancy(0)
            o1 = self._fallback.iq_occupancy(1)
        if o0 != o1:
            return 0 if o0 < o1 else 1
        return FP_CLUSTER

    def __repr__(self) -> str:
        name = getattr(self.program, "name", "?")
        return f"<SteeringContext over {name!r}>"
